#!/usr/bin/env python3
"""Degraded-network serving: fault injection, reliable framing, reconnect-resume.

A deployed Pretzel client is a phone on a flaky network.  This example shows
the resilience layer built for that, in three acts:

1. a spam classification runs over a pipe that injects seeded
   drop/corrupt/reorder/duplicate faults, first raw (it breaks) and then
   through :class:`~repro.twopc.reliable.ReliableChannel`, the ack/retransmit
   layer that turns the damaged pipe into exactly-once in-order frames —
   the verdict is bit-identical to a clean run;
2. the fault ledger and retransmission stats show exactly what the network
   did and what the reliability layer paid to survive it;
3. a client disconnects mid-protocol (its decrypt parked in the provider's
   open window), carries its :class:`SessionState` snapshot away, reconnects
   on a fresh channel, and resumes to the same verdict — zero resubmissions.

Run with:  python examples/chaos_serving.py
"""

from repro.classify.model import LinearModel, QuantizedLinearModel
from repro.core.runtime import DecryptScheduler, ProviderRuntime, session_job
from repro.crypto.bv import BVParameters, BVScheme
from repro.crypto.dh import generate_group
from repro.exceptions import ProtocolError
from repro.twopc.reliable import chaos_channel
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol
from repro.twopc.transport import FaultSpec, FaultyTransport, FramedChannel, LoopbackTransport
from repro.twopc.wire import SessionState, WireCodec

import numpy as np

FEATURE_ROWS = 300
SEED = 20170814


def build_protocol():
    scheme = BVScheme(BVParameters.test_parameters())
    group = generate_group(256)
    rng = np.random.default_rng(5)
    linear = LinearModel(
        weights=rng.normal(size=(FEATURE_ROWS, 2)),
        biases=np.array([0.25, -0.25]),
        category_names=["spam", "ham"],
    )
    quantized = QuantizedLinearModel.from_linear_model(
        linear, value_bits=10, frequency_bits=4, max_features_per_email=4096
    )
    protocol = SpamFilterProtocol(scheme, group)
    return protocol, protocol.setup(quantized)


def main() -> None:
    protocol, setup = build_protocol()
    rng = np.random.default_rng(9)
    features = {int(row): 1 for row in rng.choice(FEATURE_ROWS, size=40, replace=False)}
    clean = protocol.classify_email(setup, features)
    print(f"clean run: is_spam={clean.is_spam} "
          f"({clean.network_messages} messages, {clean.network_bytes} bytes)")

    # --- Act 1: the same run over a damaged pipe ---------------------------
    print("\n25% drop + 25% corrupt per frame, raw pipe (no reliability layer):")
    spec = FaultSpec(drop_rate=0.25, corrupt_rate=0.25, seed=SEED)
    faulty = FaultyTransport(LoopbackTransport(parties=("client", "provider")), spec)
    codec = WireCodec(scheme=protocol.scheme, public_key=setup.keypair.public)
    try:
        protocol.classify_email(setup, features, channel=FramedChannel(faulty, codec))
        print("  survived (this seed was lucky)")
    except ProtocolError as error:
        print(f"  broke as expected: {type(error).__name__}: {error}")

    print("\nsame cocktail, same seed, through ReliableChannel:")
    channel, faulty, reliable = chaos_channel(
        FaultSpec(drop_rate=0.25, corrupt_rate=0.25, seed=SEED),
        scheme=protocol.scheme,
        public_key=setup.keypair.public,
    )
    chaotic = protocol.classify_email(setup, features, channel=channel)
    print(f"  completed: is_spam={chaotic.is_spam} "
          f"(bit-identical to clean: {chaotic.is_spam == clean.is_spam})")

    # --- Act 2: what the network did, what reliability paid ----------------
    counts = faulty.fault_counts()
    print(f"  faults injected: {counts}")
    print(f"  retransmissions: {reliable.stats['retransmissions']}, "
          f"acks: {reliable.stats['acks_sent']}, "
          f"corrupt frames dropped by CRC: {reliable.stats['corrupt_dropped']}, "
          f"duplicates deduplicated: {reliable.stats['duplicates_dropped']}")
    print(f"  logical payload bytes: {channel.total_bytes()}, "
          f"wire bytes under faults: {faulty.total_bytes()}")

    # --- Act 3: disconnect mid-protocol, snapshot, reconnect, resume -------
    print("\nreconnect-resume: client goes offline with its decrypt parked ...")
    pool = protocol.make_ot_pool(setup)
    runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
    job = session_job(protocol, setup, (features,), label="phone-1", ot_pool=pool)
    runtime.serve_burst([job])  # parks in the open decrypt window
    state = runtime.disconnect_job("phone-1")
    blob = state.to_bytes()
    print(f"  disconnected: provider holds the parked decrypt, "
          f"client carries a {len(blob)}-byte SessionState snapshot")

    client = SpamClientSession.restore(
        protocol, setup, SessionState.from_bytes(blob), ot_pool=pool
    )
    runtime.reconnect_job("phone-1", protocol.make_channel(setup, name="reconnect"), client)
    finished = runtime.drain()
    resumed = finished[0].client
    print(f"  reconnected and drained: is_spam={resumed.is_spam} "
          f"(matches clean: {resumed.is_spam == clean.is_spam}, zero resubmissions)")
    assert resumed.is_spam == clean.is_spam
    assert chaotic.is_spam == clean.is_spam


if __name__ == "__main__":
    main()
