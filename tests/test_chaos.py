"""Chaos suite: full protocol runs over seeded fault cocktails.

The degraded-network contract, end to end: with the ack/retransmit layer in
place, a spam or topic protocol run over a pipe injecting seeded
drop/corrupt/reorder/duplicate faults (the 1% and 5% cocktails of the
acceptance bar) must produce *bit-identical* results to a clean run — and a
client killed mid-protocol must resume via snapshot + reconnect with zero
resubmissions.  The raw (unreliable) transport is driven through the same
cocktails as a control: runs the bare pipe cannot complete, the reliable
layer must.  The fabric's TCP control link — reliable over faulty over a real
localhost connection, on both ends — carries a request/response exchange
through the same cocktails.

Seeded sweeps (``@pytest.mark.chaos``) honour ``CHAOS_SEED`` so CI can run
each build under a fresh seed (the run id) while any failure stays exactly
reproducible — the same discipline as the wire-fuzz suite.
"""

import asyncio
import os
from collections import deque

import pytest

from repro.core.runtime import (
    DecryptScheduler,
    FileSessionStore,
    ProviderRuntime,
    session_job,
)
from repro.crypto.chacha import open_sealed, seal
from repro.exceptions import (
    IntegrityError,
    ProtocolError,
    SnapshotError,
    TransportClosedError,
    TransportTimeoutError,
)
from repro.twopc.reliable import AsyncReliableTransport, chaos_channel
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol
from repro.twopc.topics import TopicExtractionProtocol
from repro.twopc.transport import (
    AsyncFaultyTransport,
    AsyncTcpTransport,
    FaultSpec,
    FaultyTransport,
    FramedChannel,
    LoopbackTransport,
)
from repro.twopc.wire import SessionState, WireCodec

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20170814"))

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {i: 1 for i in range(0, 200, 7)},
]

TOPIC_EMAILS = [
    {2: 1, 3: 2, 77: 1},
    {150: 4, 151: 1, 10: 2},
]

#: The acceptance-bar loss rates: light damage and heavy damage.
COCKTAIL_RATES = (0.01, 0.05)


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


def _spam_chaos_channel(protocol, setup, spec):
    return chaos_channel(spec, scheme=protocol.scheme, public_key=setup.keypair.public)


# ---------------------------------------------------------------------------
# Full protocol runs through the fault cocktails
# ---------------------------------------------------------------------------
class TestChaosSpamRuns:
    def test_cocktails_produce_bit_identical_verdicts(self, spam_setup, small_spam_model):
        protocol, setup = spam_setup
        clean = [protocol.classify_email(setup, features) for features in SPAM_EMAILS]
        assert [r.is_spam for r in clean] == [
            small_spam_model.predict_is_spam(features) for features in SPAM_EMAILS
        ]
        for rate in COCKTAIL_RATES:
            for index, features in enumerate(SPAM_EMAILS):
                spec = FaultSpec.loss_cocktail(rate, seed=CHAOS_SEED + index)
                channel, faulty, reliable = _spam_chaos_channel(protocol, setup, spec)
                chaotic = protocol.classify_email(setup, features, channel=channel)
                assert chaotic.is_spam == clean[index].is_spam
                assert chaotic.yao_and_gates == clean[index].yao_and_gates
                # The protocol-level ledger is unchanged by retransmissions:
                # the reliable layer charges each logical frame exactly once.
                assert chaotic.network_messages == clean[index].network_messages

    def test_heavy_damage_is_actually_injected_and_recovered(self, spam_setup):
        # At a 20% cocktail the ledger must show real faults; the run still
        # completes identically (this is the load-bearing resilience claim).
        protocol, setup = spam_setup
        clean = protocol.classify_email(setup, SPAM_EMAILS[0])
        injected_any = False
        for attempt in range(8):
            spec = FaultSpec.loss_cocktail(0.2, seed=CHAOS_SEED + attempt)
            channel, faulty, reliable = _spam_chaos_channel(protocol, setup, spec)
            chaotic = protocol.classify_email(setup, SPAM_EMAILS[0], channel=channel)
            assert chaotic.is_spam == clean.is_spam
            injected_any = injected_any or bool(faulty.fault_log)
        assert injected_any, "eight 20% cocktails injected nothing — injector is dead"


class TestChaosTopicRuns:
    def test_cocktails_produce_bit_identical_topics(self, topic_setup):
        protocol, setup = topic_setup
        clean = [
            protocol.extract_topic(setup, features, candidate_topics=[0, 2, 5])
            for features in TOPIC_EMAILS
        ]
        for rate in COCKTAIL_RATES:
            for index, features in enumerate(TOPIC_EMAILS):
                spec = FaultSpec.loss_cocktail(rate, seed=CHAOS_SEED + 100 + index)
                channel, _, _ = chaos_channel(
                    spec, scheme=protocol.scheme, public_key=setup.keypair.public
                )
                chaotic = protocol.extract_topic(
                    setup, features, candidate_topics=[0, 2, 5], channel=channel
                )
                assert chaotic.extracted_topic == clean[index].extracted_topic
                assert chaotic.candidates_used == clean[index].candidates_used


class TestRawTransportControl:
    """The control arm: the bare faulty pipe must fail where reliable succeeds."""

    def _raw_channel(self, protocol, setup, spec):
        faulty = FaultyTransport(LoopbackTransport(parties=("client", "provider")), spec)
        codec = WireCodec(scheme=protocol.scheme, public_key=setup.keypair.public)
        return FramedChannel(faulty, codec), faulty

    def test_raw_pipe_fails_where_reliable_completes(self, spam_setup):
        protocol, setup = spam_setup
        # Find a seed whose cocktail demonstrably damages this run, then show
        # the asymmetry: reliable completes, raw raises.
        for seed in range(CHAOS_SEED, CHAOS_SEED + 64):
            spec = FaultSpec(drop_rate=0.25, corrupt_rate=0.25, seed=seed)
            channel, faulty, _ = _spam_chaos_channel(protocol, setup, spec)
            result = protocol.classify_email(setup, SPAM_EMAILS[0], channel=channel)
            if not faulty.fault_log:
                continue
            raw_channel, raw_faulty = self._raw_channel(
                protocol, setup, FaultSpec(drop_rate=0.25, corrupt_rate=0.25, seed=seed)
            )
            with pytest.raises(ProtocolError):
                protocol.classify_email(setup, SPAM_EMAILS[0], channel=raw_channel)
            return
        pytest.fail("no seed in the sweep injected a fault — injector is dead")


# ---------------------------------------------------------------------------
# Reconnect-resume: snapshot, go away, come back on a fresh channel
# ---------------------------------------------------------------------------
class TestReconnectResume:
    def test_in_process_disconnect_resume_matches_clean(self, spam_setup):
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        clean = protocol.classify_email(setup, SPAM_EMAILS[0])

        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        job = session_job(protocol, setup, (SPAM_EMAILS[0],), label=7, ot_pool=pool)
        assert runtime.serve_burst([job]) == []  # parked inside the open window

        state = runtime.disconnect_job(7)
        assert runtime.outstanding_jobs() == 0
        assert runtime.disconnected_jobs() == 1
        blob = state.to_bytes()  # the bytes the device carries offline

        client = SpamClientSession.restore(
            protocol, setup, SessionState.from_bytes(blob), ot_pool=pool
        )
        channel = protocol.make_channel(setup, name="reconnect")
        runtime.reconnect_job(7, channel, client)
        assert runtime.disconnected_jobs() == 0
        finished = runtime.drain()
        assert [j.label for j in finished] == [7]
        assert finished[0].client.is_spam == clean.is_spam

    def test_disconnect_unknown_or_finished_job_rejected(self, spam_setup):
        protocol, setup = spam_setup
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        with pytest.raises(ProtocolError):
            runtime.disconnect_job("nope")
        with pytest.raises(ProtocolError):
            runtime.reconnect_job("nope", None, None)

    def test_reconnected_window_still_batches(self, spam_setup):
        # Two jobs park in one window; one client disconnects and returns.
        # The window must still fold both decrypts into one batched call.
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        jobs = [
            session_job(protocol, setup, (features,), label=index, ot_pool=pool)
            for index, features in enumerate(SPAM_EMAILS[:2])
        ]
        assert runtime.serve_burst(jobs) == []
        state = runtime.disconnect_job(0)
        client = SpamClientSession.restore(
            protocol, setup, SessionState.from_bytes(state.to_bytes()), ot_pool=pool
        )
        runtime.reconnect_job(0, protocol.make_channel(setup, name="rc"), client)
        finished = runtime.drain()
        assert sorted(j.label for j in finished) == [0, 1]
        per_email = setup.encrypted_model.result_ciphertext_count()
        assert max(runtime.decrypt_batch_sizes) >= 2 * per_email


# ---------------------------------------------------------------------------
# Sealed checkpoints (the AEAD satellite)
# ---------------------------------------------------------------------------
class TestSealedBlobs:
    def test_seal_round_trip(self):
        key = bytes(range(32))
        blob = seal(key, b"checkpoint payload")
        assert open_sealed(key, blob) == b"checkpoint payload"

    def test_ciphertext_hides_plaintext(self):
        blob = seal(bytes(32), b"garble seeds live here")
        assert b"garble seeds" not in blob

    def test_wrong_key_refused(self):
        blob = seal(bytes(32), b"data")
        with pytest.raises(IntegrityError):
            open_sealed(bytes([1]) * 32, blob)

    def test_every_flipped_bit_refused(self):
        key = bytes(range(32))
        blob = seal(key, b"short")
        for position in range(0, len(blob) * 8, 7):  # stride keeps it fast
            damaged = bytearray(blob)
            damaged[position // 8] ^= 1 << (position % 8)
            with pytest.raises(IntegrityError):
                open_sealed(key, bytes(damaged))

    def test_legacy_plaintext_version_byte_refused(self):
        with pytest.raises(IntegrityError):
            open_sealed(bytes(32), b"\x00" + bytes(60))
        with pytest.raises(IntegrityError):
            open_sealed(bytes(32), b"too short")


class TestSealedFileStore:
    def test_blobs_are_sealed_on_disk(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("window", b"secret session bytes")
        on_disk = (tmp_path / "window.state").read_bytes()
        assert b"secret session bytes" not in on_disk
        assert store.get("window") == b"secret session bytes"

    def test_reopened_store_shares_the_key_file(self, tmp_path):
        FileSessionStore(tmp_path).put("k", b"persisted")
        assert FileSessionStore(tmp_path).get("k") == b"persisted"

    def test_explicit_key_overrides_key_file(self, tmp_path):
        key = bytes(range(32))
        FileSessionStore(tmp_path, key=key).put("k", b"v")
        assert FileSessionStore(tmp_path, key=key).get("k") == b"v"
        with pytest.raises(SnapshotError):
            FileSessionStore(tmp_path, key=bytes(32)).get("k")

    def test_legacy_plaintext_checkpoint_refused_not_misparsed(self, tmp_path):
        store = FileSessionStore(tmp_path)
        (tmp_path / "legacy.state").write_bytes(b"pre-AEAD plaintext checkpoint")
        with pytest.raises(SnapshotError):
            store.get("legacy")
        store.delete("legacy")
        assert store.get("legacy") is None

    def test_tampered_checkpoint_refused(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("k", b"authentic")
        path = tmp_path / "k.state"
        sealed = bytearray(path.read_bytes())
        sealed[-1] ^= 1
        path.write_bytes(bytes(sealed))
        with pytest.raises(SnapshotError):
            store.get("k")


# ---------------------------------------------------------------------------
# Seeded sweep: many cocktails per build (CI passes the run id as CHAOS_SEED)
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestSeededChaosSweep:
    def test_spam_sweep_across_seeds_and_rates(self, spam_setup):
        protocol, setup = spam_setup
        clean = protocol.classify_email(setup, SPAM_EMAILS[1])
        for offset in range(6):
            for rate in COCKTAIL_RATES:
                spec = FaultSpec.loss_cocktail(rate, seed=CHAOS_SEED + 1000 + offset)
                channel, _, _ = _spam_chaos_channel(protocol, setup, spec)
                chaotic = protocol.classify_email(setup, SPAM_EMAILS[1], channel=channel)
                assert chaotic.is_spam == clean.is_spam, (
                    f"divergence at rate={rate} seed={CHAOS_SEED + 1000 + offset} "
                    f"(rerun with CHAOS_SEED={CHAOS_SEED})"
                )

    def test_disconnect_mid_cocktail_then_resume(self, spam_setup):
        # Chaos + reconnect composed: the job parks, the client goes away,
        # comes back, and the verdict still matches the clean run.
        protocol, setup = spam_setup
        pool = protocol.make_ot_pool(setup)
        clean = protocol.classify_email(setup, SPAM_EMAILS[2])
        for offset in range(3):
            runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
            job = session_job(protocol, setup, (SPAM_EMAILS[2],), label=offset, ot_pool=pool)
            assert runtime.serve_burst([job]) == []
            state = runtime.disconnect_job(offset)
            client = SpamClientSession.restore(
                protocol, setup, SessionState.from_bytes(state.to_bytes()), ot_pool=pool
            )
            runtime.reconnect_job(offset, protocol.make_channel(setup), client)
            finished = runtime.drain()
            assert finished[0].client.is_spam == clean.is_spam

    def test_disconnect_fault_surfaces_cleanly(self, spam_setup):
        # A mid-stream hangup (the disconnect fault) kills the run with
        # TransportClosedError — the signal the reconnect path starts from.
        protocol, setup = spam_setup
        spec = FaultSpec(disconnect_after_frames=3, seed=CHAOS_SEED)
        channel, _, _ = _spam_chaos_channel(protocol, setup, spec)
        with pytest.raises(TransportClosedError):
            protocol.classify_email(setup, SPAM_EMAILS[0], channel=channel)


# ---------------------------------------------------------------------------
# The fabric's TCP link: reliable over faulty over TCP, on both ends
# ---------------------------------------------------------------------------
@pytest.mark.chaos
class TestTcpReliableLinkChaos:
    """The stack the fabric's control link runs, driven through the cocktails.

    Each end wraps its own TCP endpoint in its own seeded fault injector and
    reliable layer, as ``fabric/control.py`` and ``fabric/agent.py`` do.  The
    provider end answers every request and keeps listening (so its poll
    timeouts can retransmit a lost final answer) until the client hangs up.
    """

    #: 24 requests and 24 answers; request 7 is a 64 KiB frame.
    REQUESTS = [
        bytes([index]) * (64 * 1024 if index == 7 else 100 + index) for index in range(24)
    ]

    @staticmethod
    def _answer(request: bytes) -> bytes:
        return b"re:" + len(request).to_bytes(4, "big") + request[:1]

    def _exchange(self, rate, seed):
        async def scenario():
            served = asyncio.get_running_loop().create_future()

            async def serve(tcp):
                faulty = AsyncFaultyTransport(tcp, FaultSpec.loss_cocktail(rate, seed=seed))
                link = AsyncReliableTransport(faulty)
                received = []
                try:
                    while True:
                        request = await link.receive("provider")
                        received.append(request)
                        await link.send("provider", self._answer(request))
                except TransportClosedError:
                    served.set_result((received, faulty.fault_counts()))
                except Exception as error:  # noqa: BLE001 — surfaced to the test
                    served.set_exception(error)

            server = await AsyncTcpTransport.start_server(serve, port=0)
            port = AsyncTcpTransport.bound_port(server)
            tcp = await AsyncTcpTransport.connect("127.0.0.1", port)
            faulty = AsyncFaultyTransport(tcp, FaultSpec.loss_cocktail(rate, seed=seed + 1))
            link = AsyncReliableTransport(faulty)
            answers = []
            try:
                for request in self.REQUESTS:
                    await link.send("client", request)
                    answers.append(await link.receive("client"))
            finally:
                await link.aclose()
            try:
                received, server_faults = await asyncio.wait_for(served, 60)
            finally:
                server.close()
                await server.wait_closed()
            return answers, received, faulty.fault_counts(), server_faults

        return asyncio.run(scenario())

    @pytest.mark.parametrize("rate", COCKTAIL_RATES)
    def test_exchange_is_exact_and_in_order(self, rate):
        answers, received, client_faults, server_faults = self._exchange(rate, CHAOS_SEED)
        assert received == self.REQUESTS, f"rerun with CHAOS_SEED={CHAOS_SEED}"
        assert answers == [self._answer(request) for request in self.REQUESTS]
        if rate == max(COCKTAIL_RATES):
            injected = sum(client_faults.values()) + sum(server_faults.values())
            assert injected > 0, "a 5% cocktail injected nothing — injector is dead"


class _RecordingInner:
    """An async endpoint stand-in that records sends; with ``echo`` the peer
    answers each frame it receives, and a receive with no answer times out."""

    name = "recording"
    parties = ("client", "provider")
    local_party = "client"

    def __init__(self, echo=False):
        self.echo = echo
        self.sent = []
        self.inbound = deque()
        self.receives = 0
        self.closed = False

    def peer_of(self, party):
        return "provider" if party == "client" else "client"

    def pending(self):
        return len(self.inbound)

    async def send(self, sender, frame):
        self.sent.append((sender, bytes(frame)))
        if self.echo:
            self.inbound.append(b"re:" + bytes(frame))

    async def receive(self, receiver, timeout_seconds=None):
        self.receives += 1
        if not self.inbound:
            raise TransportTimeoutError("the peer has nothing to answer")
        return self.inbound.popleft()

    async def aclose(self):
        self.closed = True


# ---------------------------------------------------------------------------
# Held-frame drain: a stranded tail frame must survive end-of-stream
# ---------------------------------------------------------------------------
class TestHeldFrameDrain:
    """Held (reordered/delayed) frames are normally released by *later sends*
    crossing their deadline.  A session's final outbound frame therefore used
    to strand: nothing else was ever sent, so the wrapper sat on it forever.
    ``drain()`` (and close/aclose) must deliver the tail regardless."""

    def test_sync_drain_delivers_stranded_tail(self):
        inner = LoopbackTransport(parties=("client", "provider"))
        faulty = FaultyTransport(
            inner, FaultSpec(delay_rate=1.0, delay_frames=50, seed=CHAOS_SEED)
        )
        for payload in (b"one", b"two", b"three"):
            faulty.send("client", payload)
        assert inner.pending() == 0  # all three held, none released
        assert faulty.pending() == 3
        faulty.drain()
        # Released oldest-first: the receiver sees the original order.
        received = [inner.receive("provider", 1.0) for _ in range(3)]
        assert received == [b"one", b"two", b"three"]

    def test_sync_close_drains_first(self):
        inner = LoopbackTransport(parties=("client", "provider"))
        faulty = FaultyTransport(
            inner, FaultSpec(delay_rate=1.0, delay_frames=50, seed=CHAOS_SEED)
        )
        faulty.send("client", b"tail")
        faulty.close()
        # The held frame moved into the inner pipe before the close: the
        # injector holds nothing, the inner ledger charged the send.
        assert faulty._injector.held == []
        assert faulty.inner.messages_by_sender.get("client") == 1

    def test_async_drain_and_aclose_deliver_stranded_tail(self):
        async def scenario():
            inner = _RecordingInner()
            faulty = AsyncFaultyTransport(
                inner, FaultSpec(delay_rate=1.0, delay_frames=50, seed=CHAOS_SEED)
            )
            await faulty.send("client", b"one")
            await faulty.send("client", b"two")
            assert inner.sent == []  # both held
            assert faulty.pending() == 2
            await faulty.drain()
            assert [frame for _, frame in inner.sent] == [b"one", b"two"]
            await faulty.send("client", b"tail")  # held again
            await faulty.aclose()  # aclose drains before closing
            assert [frame for _, frame in inner.sent] == [b"one", b"two", b"tail"]
            assert inner.closed

        asyncio.run(scenario())

    def test_async_receive_timeout_releases_held_outbound_frames(self):
        # An endpoint holds only its own outbound frames.  When a receive
        # times out, the held request may be exactly what the peer is waiting
        # for, so the retry must follow its release — not wait twice for an
        # answer that cannot come.
        async def scenario():
            inner = _RecordingInner(echo=True)
            faulty = AsyncFaultyTransport(inner, FaultSpec(reorder_rate=1.0, seed=CHAOS_SEED))
            await faulty.send("client", b"request")
            assert inner.sent == []  # held by the reorder fault
            assert await faulty.receive("client", timeout_seconds=0.01) == b"re:request"
            assert inner.sent == [("client", b"request")]
            assert inner.receives == 2
            assert faulty.pending() == 0

        asyncio.run(scenario())
