"""Session persistence: golden bytes, restore roundtrips, stores, crash recovery.

The :class:`~repro.twopc.wire.SessionState` contract is what lets a killed
worker *resume* parked sessions instead of re-running them, so these tests pin
it from three directions:

* **golden bytes** — one pinned encoding per state kind (spam, topic, noprv,
  OT pool, pooled OT machines, Yao sessions — including mid-round), mirroring
  the wire-frame golden tests: any payload drift fails review-visibly and
  must ride a version bump;
* **restore roundtrips** — ``restore(state).snapshot() == state`` for every
  pinned variant, so the two directions of the contract cannot diverge;
* **recovery behaviour** — mid-window checkpoint/restore in-process for spam
  and topics, and a real ``SIGKILL`` of a shard worker whose replacement
  resumes from the :class:`~repro.core.runtime.FileSessionStore` checkpoint
  with zero resubmissions and bit-identical outputs.

Timing (``seconds``) is the one payload field wall clocks touch; the golden
builders zero it after driving a session mid-round.
"""

import hashlib
import os
import signal
from pathlib import Path

import pytest

from repro.core.runtime import (
    DecryptScheduler,
    FileSessionStore,
    InMemorySessionStore,
    MailboxDirectory,
    ProviderRuntime,
    ShardCheckpointLog,
    ShardedRuntime,
    ShardWorkerCore,
    checkpoint_open_windows,
    restore_open_windows,
    session_job,
)
from repro.crypto.circuits import SpamCircuit
from repro.crypto.ot import (
    SECURITY_PARAMETER,
    OtExtensionPool,
    OtExtensionReceiverState,
    OtExtensionSenderState,
    PooledIknpReceiverMachine,
    PooledIknpSenderMachine,
)
from repro.crypto.prg import Prg
from repro.crypto.yao import YaoEvaluatorSession, YaoGarblerSession
from repro.exceptions import SnapshotError, WireFormatError
from repro.obs import MetricsRegistry, scoped_registry
from repro.twopc.noprv import NoPrivClassifier, NoPrivClientSession, NoPrivProviderSession
from repro.twopc.spam import SpamClientSession, SpamFilterProtocol, SpamProviderSession
from repro.twopc.topics import (
    TopicClientSession,
    TopicExtractionProtocol,
    TopicProviderSession,
)
from repro.twopc.wire import (
    OtPublicsFrame,
    SessionState,
    SessionStateFrame,
    SessionStateKind,
    WireCodec,
)
from repro.utils.bitops import bytes_to_bits
from repro.utils.serialization import canonical_dumps, canonical_loads

SPAM_EMAILS = [
    {1: 1, 5: 1, 9: 1},
    {100: 1, 150: 1, 199: 1, 42: 1},
    {i: 1 for i in range(0, 200, 7)},
]

TOPIC_EMAILS = [
    {2: 1, 3: 2, 77: 1},
    {150: 4, 151: 1, 10: 2},
]


def _read_bits(stream, count: int) -> list[int]:
    """The next *count* bits of a Prg stream, little-endian per byte."""
    return bytes_to_bits(stream.read((count + 7) // 8), count)


@pytest.fixture(scope="module")
def spam_setup(bv_scheme, dh_group, small_spam_model):
    protocol = SpamFilterProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_spam_model)


@pytest.fixture(scope="module")
def topic_setup(bv_scheme, dh_group, small_topic_model):
    protocol = TopicExtractionProtocol(bv_scheme, dh_group)
    return protocol, protocol.setup(small_topic_model)


@pytest.fixture(scope="module")
def spam_truth(small_spam_model):
    return [small_spam_model.predict_is_spam(features) for features in SPAM_EMAILS]


def _deterministic_pool() -> OtExtensionPool:
    """A full-size (kappa=128) pool built from fixed bytes, for golden states."""
    kappa = SECURITY_PARAMETER
    return OtExtensionPool(
        sender_state=OtExtensionSenderState(
            s_bits=bytes_to_bits(bytes(range(16)), kappa),
            seed_keys=[bytes([j % 256]) * 16 for j in range(kappa)],
        ),
        receiver_state=OtExtensionReceiverState(
            seed_pairs=[
                (bytes([j % 256]) * 16, bytes([(j + 1) % 256]) * 16) for j in range(kappa)
            ],
        ),
    )


def _small_pool() -> OtExtensionPool:
    """A tiny (4-transfer) pool whose golden encoding stays a short literal."""
    return OtExtensionPool(
        sender_state=OtExtensionSenderState(
            s_bits=[1, 0, 1, 1],
            seed_keys=[bytes([j]) * 4 for j in range(4)],
            next_index=8,
            claimed=[(0, 8)],
        ),
        receiver_state=OtExtensionReceiverState(
            seed_pairs=[(bytes([j]) * 4, bytes([j + 1]) * 4) for j in range(4)],
            next_index=8,
        ),
    )


def _zeroed(session):
    """Zero the wall-clock fields so mid-round snapshots are deterministic."""
    session.seconds = 0.0
    machine = getattr(session, "_ot", None)
    if machine is not None:
        machine.seconds = 0.0
    return session


# Pinned encodings: regenerate ONLY together with a state-version bump.
GOLDEN_STATES = {
    "ot_pool": "0103000001d34d000000000000000253000000000000000872656365697665724d000000000000000253000000000000000a6e6578745f696e6465784900000000000000010853000000000000000a736565645f70616972734c00000000000000044c000000000000000242000000000000000400000000420000000000000004010101014c000000000000000242000000000000000401010101420000000000000004020202024c000000000000000242000000000000000402020202420000000000000004030303034c0000000000000002420000000000000004030303034200000000000000040404040453000000000000000673656e6465724d0000000000000005530000000000000007636c61696d65644c00000000000000014c000000000000000249000000000000000100490000000000000001085300000000000000056b617070614900000000000000010453000000000000000a6e6578745f696e64657849000000000000000108530000000000000006735f626974734200000000000000010d530000000000000009736565645f6b6579734c000000000000000442000000000000000400000000420000000000000004010101014200000000000000040202020242000000000000000403030303",  # noqa: E501
    "pooled_ot_receiver_midround": "0302000000a54d000000000000000753000000000000000763686f696365734200000000000000010d530000000000000005636f756e744900000000000000010453000000000000000866696e697368656446530000000000000006726573756c744e5300000000000000077365636f6e647344000000000000000053000000000000000b73746172745f696e646578490000000000000001005300000000000000077374617274656454",  # noqa: E501
    "yao_garbler": "1003000001314d000000000000000b53000000000000000866696e69736865644653000000000000000c676172626c65725f626974734200000000000000015353000000000000000d676172626c65725f636f756e74490000000000000001085300000000000000026f744e5300000000000000076f745f6d6f6465530000000000000004696b6e7053000000000000000b6f75747075745f626974734e5300000000000000096f75747075745f746f5300000000000000096576616c7561746f725300000000000000077365636f6e647344000000000000000053000000000000000473656564420000000000000020111111111111111111111111111111111111111111111111111111111111111153000000000000000b73656e745f7461626c6573465300000000000000077374617274656446",  # noqa: E501
    "yao_garbler_midround": "10030000037b4d000000000000000b53000000000000000866696e69736865644653000000000000000c676172626c65725f626974734200000000000000015353000000000000000d676172626c65725f636f756e74490000000000000001085300000000000000026f7442000000000000024202020000023c4d000000000000000453000000000000000866696e69736865644653000000000000000d6d6573736167655f70616972734c00000000000000084c0000000000000002420000000000000010d21efd347bc31f704d0f4411249a40f2420000000000000010fae8ffd73b9de98494c93e227247565d4c000000000000000242000000000000001070d833b160d5ee05a6dea2480e6bbee2420000000000000010582e3152208b18f17f18d87b58b6a84d4c00000000000000024200000000000000106ec608eedb6c7d05d1c81b0a46e2ab9842000000000000001046300a0d9b328bf1080e6139103fbd374c0000000000000002420000000000000010f0dfff0812d4601dfe29c9e6d0312360420000000000000010d829fdeb528a96e927efb3d586ec35cf4c0000000000000002420000000000000010b90d499e7d268e42bf49c046bcce718b42000000000000001091fb4b7d3d7878b6668fba75ea1367244c00000000000000024200000000000000100bd28bd5c40fa865d8243163037330664200000000000000102324893684515e9101e24b5055ae26c94c0000000000000002420000000000000010cb086b27764cb8b62e7c875ccbd95e76420000000000000010e3fe69c436124e42f7bafd6f9d0448d94c0000000000000002420000000000000010d2bb7504c925f6602c60042a1e494e30420000000000000010fa4d77e7897b0094f5a67e194894589f5300000000000000077365636f6e647344000000000000000053000000000000000773746172746564545300000000000000076f745f6d6f6465530000000000000004696b6e7053000000000000000b6f75747075745f626974734e5300000000000000096f75747075745f746f5300000000000000096576616c7561746f725300000000000000077365636f6e647344000000000000000053000000000000000473656564420000000000000020111111111111111111111111111111111111111111111111111111111111111153000000000000000b73656e745f7461626c6573465300000000000000077374617274656454",  # noqa: E501
    "yao_evaluator_midround": "11030000013d4d000000000000000653000000000000000866696e6973686564465300000000000000026f744200000000000000ab0302000000a54d000000000000000753000000000000000763686f6963657342000000000000000162530000000000000005636f756e744900000000000000010853000000000000000866696e697368656446530000000000000006726573756c744e5300000000000000077365636f6e647344000000000000000053000000000000000b73746172745f696e64657849000000000000000100530000000000000007737461727465645453000000000000000b6f75747075745f626974734e5300000000000000096f75747075745f746f5300000000000000096576616c7561746f725300000000000000077365636f6e64734400000000000000005300000000000000077374617274656454",  # noqa: E501
    "spam_client": "2004000000d74d000000000000000753000000000000000866656174757265734c00000000000000024c000000000000000249000000000000000103490000000000000001014c0000000000000002490000000000000001074900000000000000010253000000000000000866696e69736865644653000000000000000769735f7370616d4e5300000000000000077365636f6e6473440000000000000000530000000000000007737461727465644653000000000000000379616f4e53000000000000000d79616f5f616e645f676174657349000000000000000100",  # noqa: E501
    "spam_provider": "2104000000c54d00000000000000085300000000000000106177616974696e675f726571756573744653000000000000000862756666657265644c000000000000000142000000000000000c5a010300000001000000010553000000000000000565787472614d000000000000000053000000000000000866696e697368656446530000000000000005696e6e65724e53000000000000000770656e64696e674e5300000000000000077365636f6e64734400000000000000005300000000000000077374617274656446",  # noqa: E501
    "topic_client": "22040000010a4d000000000000000853000000000000000a63616e646964617465734c0000000000000002490000000000000001004900000000000000010253000000000000000a6465636f6d706f7365645453000000000000000866656174757265734c00000000000000024c000000000000000249000000000000000101490000000000000001014c0000000000000002490000000000000001024900000000000000010353000000000000000866696e6973686564465300000000000000077365636f6e6473440000000000000000530000000000000007737461727465644653000000000000000379616f4e53000000000000000d79616f5f616e645f676174657349000000000000000100",  # noqa: E501
    "topic_provider": "2304000001004d00000000000000085300000000000000106177616974696e675f726571756573744653000000000000000862756666657265644c000000000000000053000000000000000565787472614d000000000000000353000000000000000a6465636f6d706f7365645453000000000000000f6578747261637465645f746f7069634e530000000000000010696e6e65725f63616e646964617465734900000000000000010253000000000000000866696e697368656446530000000000000005696e6e65724e53000000000000000770656e64696e674e5300000000000000077365636f6e64734400000000000000005300000000000000077374617274656446",  # noqa: E501
    "noprv_client": "2401000000b54d000000000000000553000000000000000866656174757265734c00000000000000024c000000000000000249000000000000000101490000000000000001014c0000000000000002490000000000000001094900000000000000010253000000000000000866696e6973686564465300000000000000127072656469637465645f63617465676f72794e5300000000000000077365636f6e64734400000000000000005300000000000000077374617274656446",  # noqa: E501
    "noprv_provider": "2501000000554d000000000000000453000000000000000866696e697368656446530000000000000006726573756c744e5300000000000000077365636f6e64734400000000000000005300000000000000077374617274656446",  # noqa: E501
}


@pytest.fixture(scope="module")
def golden_circuit():
    # Eight garbler and eight evaluator input wires: the golden Yao states'
    # counts, choices and label pairs (they were pinned on a two-word circuit
    # of width 4, whose inputs were wires 0-7 and 8-15 too).
    return SpamCircuit.build(8)


@pytest.fixture(scope="module")
def noprv_model():
    import numpy as np

    from repro.classify.model import LinearModel

    rng = np.random.default_rng(7)
    return LinearModel(
        weights=rng.normal(size=(20, 2)),
        biases=np.zeros(2),
        category_names=["spam", "ham"],
    )


class _GoldenContext:
    """Builds each golden variant and restores each pinned encoding."""

    def __init__(self, dh_group, spam_setup, topic_setup, circuit, noprv_model):
        self.group = dh_group
        self.spam_protocol, self.spam_setup = spam_setup
        self.topic_protocol, self.topic_setup = topic_setup
        self.circuit = circuit
        self.classifier = NoPrivClassifier(noprv_model)

    def build(self, name):
        if name == "ot_pool":
            return _small_pool()
        if name == "pooled_ot_receiver_midround":
            machine = PooledIknpReceiverMachine(
                self.group, [1, 0, 1, 1], _deterministic_pool().receiver_state
            )
            machine.start()
            return _zeroed(machine)
        if name in ("yao_garbler", "yao_garbler_midround"):
            garbler = YaoGarblerSession(
                self.circuit.circuit,
                self.circuit.garbler_bits(3 + (5 << 4)),
                self.group,
                output_to="evaluator",
                ot_pool=_deterministic_pool(),
                garble_seed=b"\x11" * 32,
            )
            if name.endswith("midround"):
                garbler.start()
            return _zeroed(garbler)
        if name == "yao_evaluator_midround":
            evaluator = YaoEvaluatorSession(
                self.circuit.circuit,
                self.circuit.evaluator_bits(2 + (6 << 4)),
                self.group,
                output_to="evaluator",
                ot_pool=_deterministic_pool(),
            )
            evaluator.start()
            return _zeroed(evaluator)
        if name == "spam_client":
            return self.spam_protocol.client_session(self.spam_setup, {3: 1, 7: 2})
        if name == "spam_provider":
            provider = self.spam_protocol.provider_session(self.spam_setup)
            provider._awaiting_request = False
            provider._buffered = [OtPublicsFrame((5,))]
            return provider
        if name == "topic_client":
            return self.topic_protocol.client_session(
                self.topic_setup, {1: 1, 2: 3}, candidate_topics=[0, 2]
            )
        if name == "topic_provider":
            provider = self.topic_protocol.provider_session(self.topic_setup)
            provider._awaiting_request = False
            provider._decomposed = True
            provider._inner_candidates = 2
            return provider
        if name == "noprv_client":
            return NoPrivClientSession({1: 1, 9: 2})
        if name == "noprv_provider":
            return NoPrivProviderSession(self.classifier)
        raise AssertionError(name)

    def restore(self, name, state):
        if name == "ot_pool":
            return OtExtensionPool.restore(state)
        if name == "pooled_ot_receiver_midround":
            return PooledIknpReceiverMachine.restore(
                self.group, state, _deterministic_pool().receiver_state
            )
        if name in ("yao_garbler", "yao_garbler_midround"):
            return YaoGarblerSession.restore(
                state, self.circuit.circuit, self.group, ot_pool=_deterministic_pool()
            )
        if name == "yao_evaluator_midround":
            return YaoEvaluatorSession.restore(
                state, self.circuit.circuit, self.group, ot_pool=_deterministic_pool()
            )
        if name == "spam_client":
            return SpamClientSession.restore(self.spam_protocol, self.spam_setup, state)
        if name == "spam_provider":
            return SpamProviderSession.restore(self.spam_protocol, self.spam_setup, state)
        if name == "topic_client":
            return TopicClientSession.restore(self.topic_protocol, self.topic_setup, state)
        if name == "topic_provider":
            return TopicProviderSession.restore(self.topic_protocol, self.topic_setup, state)
        if name == "noprv_client":
            return NoPrivClientSession.restore(state)
        if name == "noprv_provider":
            return NoPrivProviderSession.restore(self.classifier, state)
        raise AssertionError(name)


@pytest.fixture(scope="module")
def golden_context(dh_group, spam_setup, topic_setup, golden_circuit, noprv_model):
    return _GoldenContext(dh_group, spam_setup, topic_setup, golden_circuit, noprv_model)


class TestGoldenSessionStates:
    @pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
    def test_pinned_encoding(self, golden_context, name):
        assert golden_context.build(name).snapshot().to_bytes().hex() == GOLDEN_STATES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
    def test_restore_roundtrip(self, golden_context, name):
        state = SessionState.from_bytes(bytes.fromhex(GOLDEN_STATES[name]))
        restored = golden_context.restore(name, state)
        assert restored.snapshot().to_bytes().hex() == GOLDEN_STATES[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
    def test_state_rides_the_wire_as_a_frame(self, name):
        codec = WireCodec()
        state = SessionState.from_bytes(bytes.fromhex(GOLDEN_STATES[name]))
        encoded = codec.encode(SessionStateFrame(state))
        decoded = codec.decode(encoded)
        assert isinstance(decoded, SessionStateFrame)
        assert decoded.state == state


class TestPoolSnapshotsAcrossDerivationChanges:
    """A pool snapshot resumes only on the derivation that wrote it.

    ``data/ot_pool_bfe22cc.bin`` is ``OtExtensionPool.snapshot().to_bytes()``
    taken on commit bfe22cc (state version 1: a column PRG re-keyed per
    batch).  ``data/ot_pool_v2.bin`` is the same recipe on state version 2 —
    column streams and SHA-256 pads, what commit 7cb42f0 writes and resumes:
    a pool seeded by a real handshake on the benchmark's 256-bit group and
    extended once (13 transfers), so the pad cursors are mid-stream.  Their
    payload *layout* is this build's, but resuming either would extend with
    other rows or other pads than its in-flight sessions were started on: both
    are refused by version, and a worker handed a checkpoint that carries one
    recomputes instead.

    ``data/ot_pool_v3.bin`` is that version-2 pool snapshotted by this build
    (state version 3: fixed-key AES pads).  The digests are the next
    64-transfer extension of the restored pool as this commit produced it —
    what a later same-bytes rewrite has to reproduce.  The columns digest is
    the one version 2 pinned: only the pads moved.
    """

    PARENT_BLOBS = {
        1: Path(__file__).parent / "data" / "ot_pool_bfe22cc.bin",
        2: Path(__file__).parent / "data" / "ot_pool_v2.bin",
    }
    BLOB = Path(__file__).parent / "data" / "ot_pool_v3.bin"
    NEXT_EXTENSION = (
        "6c07611ceb95532ffbc864305b917cda11d11dc5e35cbc2a138d380b19791a87",  # OT_EXT_COLUMNS
        "27af72a5546142ed84c4ed76471217b48552454eed3cdb1bac36eeef7ac66356",  # OT_EXT_PAIRS
    )

    @pytest.mark.parametrize("version", sorted(PARENT_BLOBS))
    def test_a_parent_commit_snapshot_is_refused_by_version(self, version):
        state = SessionState.from_bytes(self.PARENT_BLOBS[version].read_bytes())
        assert (state.kind, state.version) == (SessionStateKind.OT_POOL, version)
        with pytest.raises(SnapshotError, match=f"version {version}"):
            OtExtensionPool.restore(state)

    def test_restores_and_extends_bit_identically(self):
        blob = self.BLOB.read_bytes()
        pool = OtExtensionPool.restore(SessionState.from_bytes(blob))
        assert pool.ready and pool.snapshot().to_bytes() == blob
        assert pool.receiver_state.next_index == 13 and pool.sender_state.claimed == [(0, 13)]
        stream = Prg(b"parent-pool-batch" + (64).to_bytes(4, "big"), domain=b"pin-batch")
        choices = _read_bits(stream, 64)
        pairs = [(stream.read(16), stream.read(16)) for _ in range(64)]
        receiver = PooledIknpReceiverMachine(None, choices, pool.receiver_state)
        sender = PooledIknpSenderMachine(None, pairs, pool.sender_state)
        (columns,) = receiver.start()
        (encrypted,) = sender.handle(columns)
        receiver.handle(encrypted)
        assert receiver.result == [pair[choice] for pair, choice in zip(pairs, choices)]
        codec = WireCodec()
        assert (
            hashlib.sha256(codec.encode(columns)).hexdigest(),
            hashlib.sha256(codec.encode(encrypted)).hexdigest(),
        ) == self.NEXT_EXTENSION

    @pytest.mark.parametrize("version", sorted(PARENT_BLOBS))
    def test_a_worker_handed_a_parent_commit_checkpoint_recomputes(
        self, version, spam_setup, spam_truth
    ):
        protocol, setup = spam_setup
        address = "upgraded@example.com"
        burst = [
            (job_id, "spam", address, (features,))
            for job_id, features in enumerate(SPAM_EMAILS)
        ]
        with scoped_registry(MetricsRegistry()):
            source = ShardWorkerCore((100, None))
            source.handle("register", (address, protocol, setup))
            assert source.handle("burst", burst)[1][0] == []  # all parked mid-round
            verb, (blob, _results, _metrics) = source.handle("checkpoint", None)
            assert verb == "checkpointed"
        # The same checkpoint as a parent commit would have written it: the
        # pool record is that commit's snapshot.
        checkpoint = canonical_loads(blob)
        assert [record["address"] for record in checkpoint["pools"]] == [address]
        checkpoint["pools"][0]["state"] = self.PARENT_BLOBS[version].read_bytes()
        with scoped_registry(MetricsRegistry()):
            target = ShardWorkerCore((100, None))
            target.handle("register", (address, protocol, setup, True))  # pool deferred
            verb, (resumed, results, _metrics) = target.handle(
                "restore", canonical_dumps(checkpoint)
            )
            assert (verb, resumed, results) == ("restored", [], [])  # nothing resumed
            assert target.directory.pool_of("spam", address) is None  # least of all that pool
            # ... so the driver backfills the pool and resubmits every email.
            assert target.handle("ensure_pools", None) == ("ok", None)
            assert target.handle("burst", burst)[1][0] == []
            verb, (results, metrics) = target.handle("drain", None)
        assert [result.is_spam for _job_id, result in sorted(results)] == spam_truth
        served = [
            entry["value"] for entry in metrics["counters"]
            if entry["name"] == "emails_served_total"
        ]
        assert sum(served) == len(SPAM_EMAILS)  # each email counted once


class TestCheckpointsAcrossTheScoreSampleChange:
    """A parked email resumes only on the build that parked it.

    ``data/shard_checkpoint_8bb011a.bin`` is the ``checkpoint`` reply of a
    ``ShardWorkerCore`` on commit 8bb011a with this module's three spam emails
    parked mid-round: session states of version 1, each provider holding one
    *whole* blinded ciphertext and expecting a ``slot_bits``-wide circuit.
    This build parks score samples and garbles ``dot_product_bits`` wide, so
    the states are refused by version and the worker recomputes — resuming
    them would pair a 32-bit evaluator with a 24-bit garbler.
    """

    PARENT_CHECKPOINT = Path(__file__).parent / "data" / "shard_checkpoint_8bb011a.bin"

    def test_the_parent_commit_states_are_refused_by_version(self, spam_setup, bv_scheme):
        protocol, setup = spam_setup
        checkpoint = canonical_loads(self.PARENT_CHECKPOINT.read_bytes())
        assert len(checkpoint["jobs"]) == len(SPAM_EMAILS)
        for record in checkpoint["jobs"]:
            provider = SessionState.from_bytes(record["provider"])
            client = SessionState.from_bytes(record["client"])
            assert (provider.version, client.version) == (1, 1)
            (parked,) = canonical_loads(provider.payload)["pending"]
            assert len(parked) == bv_scheme.ciphertext_size_bytes()  # not a sample
            with pytest.raises(SnapshotError, match="version 1"):
                SpamProviderSession.restore(protocol, setup, provider)
            with pytest.raises(SnapshotError, match="version 1"):
                SpamClientSession.restore(protocol, setup, client)

    def test_a_worker_handed_the_parent_commit_checkpoint_recomputes(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        address = "upgraded@example.com"
        burst = [
            (job_id, "spam", address, (features,))
            for job_id, features in enumerate(SPAM_EMAILS)
        ]
        with scoped_registry(MetricsRegistry()):
            target = ShardWorkerCore((100, None))
            target.handle("register", (address, protocol, setup))
            verb, (resumed, results, _metrics) = target.handle(
                "restore", self.PARENT_CHECKPOINT.read_bytes()
            )
            assert (verb, resumed, results) == ("restored", [], [])  # nothing resumed
            # ... so the driver resubmits every email, and each is served once.
            assert target.handle("burst", burst)[1][0] == []
            verb, (results, metrics) = target.handle("drain", None)
        assert [result.is_spam for _job_id, result in sorted(results)] == spam_truth
        served = [
            entry["value"] for entry in metrics["counters"]
            if entry["name"] == "emails_served_total"
        ]
        assert sum(served) == len(SPAM_EMAILS)


class TestCheckpointsAcrossTheMarginChange:
    """Parked spam and topic emails resume only on the build that parked them.

    ``data/shard_checkpoint_0c36dc6.bin`` is the ``checkpoint`` reply of a
    ``ShardWorkerCore`` on commit 0c36dc6 with one spam email (``SPAM_EMAILS[0]``,
    mailbox ``upgraded@example.com``) and one topic email (``TOPIC_EMAILS[0]``,
    candidates ``[0, 1, 2]``, mailbox ``upgraded-topics@example.com``) parked
    mid-round.  Its spam provider holds a sample opened at the two spam/ham
    slots and expects a ``dot_product_bits``-wide two-word circuit; its topic
    provider expects the argmax with its last value mux.  This build packs one
    margin column, garbles ``dot_product_bits + 1`` wide and drops that mux, so
    every state is refused by version and the worker recomputes.
    """

    PARENT_CHECKPOINT = Path(__file__).parent / "data" / "shard_checkpoint_0c36dc6.bin"
    TOPIC_CANDIDATES = [0, 1, 2]

    def test_the_parent_commit_states_are_refused_by_version(
        self, spam_setup, topic_setup, bv_scheme
    ):
        checkpoint = canonical_loads(self.PARENT_CHECKPOINT.read_bytes())
        assert [record["kind"] for record in checkpoint["jobs"]] == ["spam", "topics"]
        for record in checkpoint["jobs"]:
            protocol, setup = spam_setup if record["kind"] == "spam" else topic_setup
            provider = SessionState.from_bytes(record["provider"])
            client = SessionState.from_bytes(record["client"])
            assert (provider.version, client.version) == (2, 2)
            if record["kind"] == "spam":
                (parked,) = canonical_loads(provider.payload)["pending"]
                sample = bv_scheme.deserialize_ciphertext(parked)
                assert bv_scheme.ciphertext_run(sample) == (bv_scheme.num_slots - 2, 2)
            with pytest.raises(SnapshotError, match="version 2"):
                protocol.restore_provider(setup, provider)
            with pytest.raises(SnapshotError, match="version 2"):
                protocol.restore_client(setup, client)

    def test_a_worker_handed_the_parent_commit_checkpoint_recomputes(
        self, spam_setup, topic_setup, spam_truth, small_topic_model
    ):
        _recomputes_both_parked_emails(
            self.PARENT_CHECKPOINT, spam_setup, topic_setup, spam_truth, small_topic_model
        )


class TestCheckpointsAcrossTheFixedKeyChange:
    """Parked emails of the SHA-256 build are recomputed, never resumed.

    ``data/shard_checkpoint_7cb42f0.bin`` is the same recipe as
    ``shard_checkpoint_0c36dc6.bin`` (one spam and one topic email parked
    mid-round) on commit 7cb42f0: spam/topic session states of version 3 and
    version-2 OT pools, whose garbled rows and IKNP pads were SHA-256.  This
    build derives both from fixed-key AES, so resuming a parked garbler against
    a fresh evaluator (or a restored pool against in-flight pads) would hand
    the evaluator labels that decode to nothing: every state and pool is
    refused by version and the worker recomputes.
    """

    PARENT_CHECKPOINT = Path(__file__).parent / "data" / "shard_checkpoint_7cb42f0.bin"

    def test_the_parent_commit_states_and_pools_are_refused_by_version(
        self, spam_setup, topic_setup
    ):
        checkpoint = canonical_loads(self.PARENT_CHECKPOINT.read_bytes())
        assert [record["kind"] for record in checkpoint["jobs"]] == ["spam", "topics"]
        for record in checkpoint["jobs"]:
            protocol, setup = spam_setup if record["kind"] == "spam" else topic_setup
            provider = SessionState.from_bytes(record["provider"])
            client = SessionState.from_bytes(record["client"])
            assert (provider.version, client.version) == (3, 3)
            with pytest.raises(SnapshotError, match="version 3"):
                protocol.restore_provider(setup, provider)
            with pytest.raises(SnapshotError, match="version 3"):
                protocol.restore_client(setup, client)
        assert len(checkpoint["pools"]) == 2
        for record in checkpoint["pools"]:
            state = SessionState.from_bytes(record["state"])
            assert (state.kind, state.version) == (SessionStateKind.OT_POOL, 2)
            with pytest.raises(SnapshotError, match="version 2"):
                OtExtensionPool.restore(state)

    def test_a_worker_handed_the_parent_commit_checkpoint_recomputes(
        self, spam_setup, topic_setup, spam_truth, small_topic_model
    ):
        _recomputes_both_parked_emails(
            self.PARENT_CHECKPOINT, spam_setup, topic_setup, spam_truth, small_topic_model
        )


def _recomputes_both_parked_emails(blob_path, spam_setup, topic_setup, spam_truth, topic_model):
    """Restore a parent checkpoint of one parked spam and one parked topic email.

    Nothing resumes; the driver resubmits both, and each is served once with
    the right answer.
    """
    candidates = TestCheckpointsAcrossTheMarginChange.TOPIC_CANDIDATES
    scores = topic_model.integer_scores(TOPIC_EMAILS[0])
    topic_truth = max(candidates, key=lambda index: (scores[index], -index))
    burst = [
        (0, "spam", "upgraded@example.com", (SPAM_EMAILS[0],)),
        (1, "topics", "upgraded-topics@example.com", (TOPIC_EMAILS[0], candidates)),
    ]
    with scoped_registry(MetricsRegistry()):
        target = ShardWorkerCore((100, None))
        target.handle("register", ("upgraded@example.com", *spam_setup))
        target.handle("register", ("upgraded-topics@example.com", *topic_setup))
        verb, (resumed, results, _metrics) = target.handle("restore", blob_path.read_bytes())
        assert (verb, resumed, results) == ("restored", [], [])  # nothing resumed
        assert target.handle("burst", burst)[1][0] == []
        verb, (results, metrics) = target.handle("drain", None)
    spam_result, topic_result = (result for _job_id, result in sorted(results))
    assert spam_result.is_spam == spam_truth[0]
    assert topic_result.extracted_topic == topic_truth
    served = [
        entry["value"] for entry in metrics["counters"]
        if entry["name"] == "emails_served_total"
    ]
    assert sum(served) == len(burst)


class TestYaoRestoreChecksTheCircuitShape:
    """A Yao snapshot restored under another circuit shape is refused.

    It used to restore: the garbler then failed on its next frame with a
    ``CircuitError`` mid-serve instead of degrading to recompute.
    """

    @pytest.mark.parametrize("started", [False, True], ids=["fresh", "midround"])
    def test_a_garbler_snapshot_of_another_width(self, dh_group, started):
        wide = SpamCircuit.build(8)
        garbler = YaoGarblerSession(
            wide.circuit, wide.garbler_bits(0x53), dh_group,
            ot_pool=_deterministic_pool(), garble_seed=b"\x11" * 32,
        )
        if started:
            garbler.start()
        state = garbler.snapshot()
        with pytest.raises(SnapshotError, match="8 input bits"):
            YaoGarblerSession.restore(
                state, SpamCircuit.build(6).circuit, dh_group, ot_pool=_deterministic_pool()
            )
        restored = YaoGarblerSession.restore(
            state, wide.circuit, dh_group, ot_pool=_deterministic_pool()
        )
        assert restored.snapshot() == state

    def test_an_evaluator_snapshot_of_another_width(self, dh_group):
        wide = SpamCircuit.build(8)
        evaluator = YaoEvaluatorSession(
            wide.circuit, wide.evaluator_bits(0x62), dh_group, ot_pool=_deterministic_pool()
        )
        evaluator.start()
        state = evaluator.snapshot()
        with pytest.raises(SnapshotError, match="8 choices"):
            YaoEvaluatorSession.restore(
                state, SpamCircuit.build(6).circuit, dh_group, ot_pool=_deterministic_pool()
            )
        restored = YaoEvaluatorSession.restore(
            state, wide.circuit, dh_group, ot_pool=_deterministic_pool()
        )
        assert restored.snapshot() == state


class TestSessionStateValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WireFormatError):
            SessionState(kind=0x7F, version=1, payload=b"")
        blob = SessionState(
            kind=SessionStateKind.OT_POOL, version=1, payload=b""
        ).to_bytes()
        with pytest.raises(WireFormatError):
            SessionState.from_bytes(b"\x7f" + blob[1:])

    def test_version_mismatch_refused_at_restore(self):
        state = SessionState(kind=SessionStateKind.NOPRV_CLIENT, version=99, payload=b"")
        with pytest.raises(SnapshotError, match="version"):
            NoPrivClientSession.restore(state)

    def test_wrong_kind_refused_at_restore(self):
        state = SessionState.from_bytes(bytes.fromhex(GOLDEN_STATES["noprv_provider"]))
        with pytest.raises(SnapshotError, match="kind"):
            NoPrivClientSession.restore(state)

    def test_malformed_payload_refused_at_restore(self):
        state = SessionState(
            kind=SessionStateKind.NOPRV_CLIENT, version=1, payload=b"\xff\xff"
        )
        with pytest.raises(SnapshotError):
            NoPrivClientSession.restore(state)

    def test_unsupported_sessions_refuse_to_snapshot(self, dh_group):
        from repro.crypto.ot import IknpReceiverMachine

        with pytest.raises(SnapshotError):
            IknpReceiverMachine(dh_group, [0, 1]).snapshot()


class TestSessionStores:
    @pytest.mark.parametrize("make_store", [InMemorySessionStore, None], ids=["memory", "file"])
    def test_put_get_delete_keys(self, make_store, tmp_path):
        store = make_store() if make_store else FileSessionStore(tmp_path)
        assert store.get("a") is None
        store.put("a", b"one")
        store.put("b", b"two")
        assert store.get("a") == b"one"
        assert store.keys() == ["a", "b"]
        store.put("a", b"overwritten")
        assert store.get("a") == b"overwritten"
        store.delete("a")
        store.delete("a")  # idempotent
        assert store.get("a") is None
        assert store.keys() == ["b"]

    def test_file_store_sanitizes_keys(self, tmp_path):
        store = FileSessionStore(tmp_path)
        store.put("shard/0:spam", b"blob")
        assert store.get("shard/0:spam") == b"blob"
        assert all(os.sep not in key for key in os.listdir(tmp_path))

    def test_file_store_keys_roundtrip_escaped_names(self, tmp_path):
        # keys() must return the *stored* keys (same contract as the
        # in-memory store), not the escaped filenames — get(keys()[i]) works.
        store = FileSessionStore(tmp_path)
        hostile = ["user@example.com", "a%2fb", "shard/1", "plain"]
        for key in hostile:
            store.put(key, key.encode())
        assert store.keys() == sorted(hostile)
        for key in store.keys():
            assert store.get(key) == key.encode()

    def test_file_store_survives_reopen(self, tmp_path):
        FileSessionStore(tmp_path).put("k", b"persisted")
        assert FileSessionStore(tmp_path).get("k") == b"persisted"


def _park_jobs(directory, kind, address, feature_sets, candidates=None):
    """Admit jobs into a wide-open window; returns (runtime, jobs, context)."""
    runtime = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
    protocol, setup = directory.protocol_of(kind, address)
    arguments = () if kind == "spam" else (candidates,)
    jobs = [
        session_job(protocol, setup, (features, *arguments), label=index,
                    ot_pool=directory.pool_of(kind, address))
        for index, features in enumerate(feature_sets)
    ]
    finished = runtime.serve_burst(jobs)
    assert finished == []  # everything is parked inside the open window
    context = {job.label: (kind, address) for job in jobs}
    return runtime, jobs, context


class TestMidWindowCheckpointRestore:
    """In-process checkpoint/restore of open decrypt windows, per protocol."""

    def test_spam_resumes_bit_identically(self, spam_setup, spam_truth):
        protocol, setup = spam_setup
        directory = MailboxDirectory()
        directory.register_spam("inproc@example.com", protocol, setup)
        runtime, jobs, context = _park_jobs(
            directory, "spam", "inproc@example.com", SPAM_EMAILS
        )
        blob = checkpoint_open_windows(runtime, directory, context)
        assert blob is not None

        # A "fresh process": new directory (so registration builds a *fresh*
        # pool, which the restore must override), new runtime, state from bytes.
        fresh = MailboxDirectory()
        fresh.register_spam("inproc@example.com", protocol, setup)
        restored = restore_open_windows(blob, fresh)
        assert [job_id for job_id, _, _, _ in restored] == [0, 1, 2]
        runtime2 = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        restored_jobs = [job for _, _, _, job in restored]
        for job in restored_jobs:
            assert job.client.started and job.provider.started  # no re-execution
        runtime2.serve_burst(restored_jobs)
        finished = runtime2.drain()
        verdicts = {job.label: job.client.is_spam for job in finished}
        assert [verdicts[index] for index in range(len(SPAM_EMAILS))] == spam_truth

    def test_topics_resume_bit_identically(self, topic_setup, small_topic_model):
        protocol, setup = topic_setup
        truths = [small_topic_model.predict(features) for features in TOPIC_EMAILS]
        candidates = sorted(set(truths) | {0, 1, 2})
        directory = MailboxDirectory()
        directory.register_topics("inproc-topics@example.com", protocol, setup)
        runtime, jobs, context = _park_jobs(
            directory, "topics", "inproc-topics@example.com", TOPIC_EMAILS, candidates
        )
        blob = checkpoint_open_windows(runtime, directory, context)
        fresh = MailboxDirectory()
        fresh.register_topics("inproc-topics@example.com", protocol, setup)
        restored = restore_open_windows(blob, fresh)
        runtime2 = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        runtime2.serve_burst([job for _, _, _, job in restored])
        finished = runtime2.drain()
        extracted = {job.label: job.provider.extracted_topic for job in finished}
        assert [extracted[index] for index in range(len(TOPIC_EMAILS))] == truths

    def test_empty_runtime_checkpoints_to_none(self, spam_setup):
        protocol, setup = spam_setup
        directory = MailboxDirectory()
        runtime = ProviderRuntime()
        assert checkpoint_open_windows(runtime, directory, {}) is None


class TestCrashRecovery:
    """A SIGKILLed shard worker resumes from its FileSessionStore checkpoint."""

    def test_sigkill_recovery_for_topics(
        self, topic_setup, small_topic_model, tmp_path
    ):
        protocol, setup = topic_setup
        truths = [small_topic_model.predict(features) for features in TOPIC_EMAILS]
        candidates = sorted(set(truths) | {0, 1})
        address = "sigkill-topics@example.com"
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as runtime:
            runtime.register_topics(address, protocol, setup)
            job_ids = runtime.submit_topics(
                [(address, features, candidates) for features in TOPIC_EMAILS]
            )
            os.kill(runtime.worker_pid(0), signal.SIGKILL)
            runtime.join_worker(0)
            assert runtime.restart_shard(0) == 0
            runtime.drain()
            extracted = [
                runtime.take_result(job_id).extracted_topic for job_id in job_ids
            ]
        assert extracted == truths

    def test_checkpoint_cleared_after_drain(self, spam_setup, tmp_path):
        protocol, setup = spam_setup
        address = "clears@example.com"
        store = FileSessionStore(tmp_path)
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as runtime:
            runtime.register_spam(address, protocol, setup)
            runtime.submit_spam([(address, SPAM_EMAILS[0])])
            assert store.read_records("shard-0")
            runtime.drain()
            assert store.read_records("shard-0") is None

    def test_stale_checkpoint_from_another_parent_is_refused(
        self, spam_setup, spam_truth, tmp_path
    ):
        # A leftover checkpoint from an earlier ShardedRuntime in the same
        # directory must NOT be resumed by a new parent: its job ids would
        # collide with the new parent's, delivering another run's verdicts.
        protocol, setup = spam_setup
        address = "stale@example.com"
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as old_parent:
            old_parent.register_spam(address, protocol, setup)
            old_parent.submit_spam([(address, SPAM_EMAILS[0])])
            # Kill the worker so close() cannot drain the window: the
            # checkpoint survives the old parent.
            os.kill(old_parent.worker_pid(0), signal.SIGKILL)
            old_parent.join_worker(0)
        store = FileSessionStore(tmp_path)
        assert store.read_records("shard-0")
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as new_parent:
            new_parent.register_spam(address, protocol, setup)
            # Restart while the stale log is still on disk and the new
            # parent has nothing outstanding: the foreign-incarnation
            # checkpoint must be refused (and dropped), not resumed as
            # phantom jobs.
            assert new_parent.restart_shard(0) == 0
            assert store.read_records("shard-0") is None
            assert all(
                stat["restored_jobs"] == 0 for stat in new_parent.shard_stats()
            )
            job_ids = new_parent.submit_spam([(address, f) for f in SPAM_EMAILS])
            new_parent.drain()
            verdicts = [new_parent.take_result(job_id).is_spam for job_id in job_ids]
        assert verdicts == spam_truth

    def test_poisoned_checkpoint_falls_back_to_recompute(
        self, spam_setup, spam_truth, tmp_path
    ):
        # An unreadable checkpoint must degrade to resubmission, not fail
        # recovery — and must be deleted so retries do not re-hit it.
        # Mid-file damage in an append-only log is tampering (appends only
        # ever extend it), so the AEAD refusal has to cover every record.
        protocol, setup = spam_setup
        address = "poisoned@example.com"
        store = FileSessionStore(tmp_path)
        log_path = tmp_path / "shard-0.statelog"
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as runtime:
            runtime.register_spam(address, protocol, setup)
            job_ids = runtime.submit_spam([(address, f) for f in SPAM_EMAILS])
            os.kill(runtime.worker_pid(0), signal.SIGKILL)
            runtime.join_worker(0)
            poisoned = bytearray(log_path.read_bytes())
            poisoned[8] ^= 0xFF  # flip a byte inside the first sealed record
            log_path.write_bytes(bytes(poisoned))
            with pytest.raises(SnapshotError):
                store.read_records("shard-0")
            resubmitted = runtime.restart_shard(0)
            assert resubmitted == len(SPAM_EMAILS)  # recompute fallback
            assert log_path.read_bytes() != bytes(poisoned)  # dropped, not kept
            runtime.drain()
            verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        assert verdicts == spam_truth

    def test_torn_tail_loses_only_the_final_batch(
        self, spam_setup, spam_truth, tmp_path
    ):
        # A crash mid-append tears the file inside the *last* batch.  The
        # torn tail is dropped silently (its emails recover by resubmission);
        # everything before it still restores.
        protocol, setup = spam_setup
        address = "torn@example.com"
        store = FileSessionStore(tmp_path)
        log_path = tmp_path / "shard-0.statelog"
        with ShardedRuntime(
            num_shards=1, window_bursts=100, checkpoint_dir=tmp_path
        ) as runtime:
            runtime.register_spam(address, protocol, setup)
            job_ids = runtime.submit_spam([(address, f) for f in SPAM_EMAILS])
            os.kill(runtime.worker_pid(0), signal.SIGKILL)
            runtime.join_worker(0)
            intact = store.read_records("shard-0")
            log_path.write_bytes(log_path.read_bytes()[:-3])
            survivors = store.read_records("shard-0")
            assert len(survivors) == len(intact) - 1  # only the tail record fell
            assert survivors == intact[: len(survivors)]
            runtime.restart_shard(0)
            runtime.drain()
            verdicts = [runtime.take_result(job_id).is_spam for job_id in job_ids]
        assert verdicts == spam_truth


class TestShardCheckpointLog:
    """The append-only checkpoint log: bounded writes, dedup, compaction."""

    def _parked(self, spam_setup):
        protocol, setup = spam_setup
        directory = MailboxDirectory()
        directory.register_spam("log@example.com", protocol, setup)
        runtime, _jobs, context = _park_jobs(
            directory, "spam", "log@example.com", SPAM_EMAILS
        )
        return directory, runtime, context

    def test_unchanged_windows_are_never_rewritten(self, spam_setup, tmp_path):
        # The whole point of the log: a sync where nothing moved appends
        # nothing, so write cost tracks churn instead of backlog width.
        directory, runtime, context = self._parked(spam_setup)
        store = FileSessionStore(tmp_path)
        log = ShardCheckpointLog(store, "shard-0")
        log.sync(runtime, directory, context)
        size = (tmp_path / "shard-0.statelog").stat().st_size
        log.sync(runtime, directory, context)
        assert (tmp_path / "shard-0.statelog").stat().st_size == size

    def test_load_folds_to_a_restorable_blob_and_compacts(
        self, spam_setup, spam_truth, tmp_path
    ):
        protocol, setup = spam_setup
        directory, runtime, context = self._parked(spam_setup)
        store = FileSessionStore(tmp_path)
        ShardCheckpointLog(store, "shard-0").sync(runtime, directory, context)
        # A fresh log instance (a replacement worker) folds the records into
        # a blob the plain blob-restore path accepts unchanged.
        blob = ShardCheckpointLog(store, "shard-0").load()
        fresh = MailboxDirectory()
        fresh.register_spam("log@example.com", protocol, setup)
        restored = restore_open_windows(blob, fresh)
        assert [job_id for job_id, _, _, _ in restored] == [0, 1, 2]
        runtime2 = ProviderRuntime(scheduler=DecryptScheduler(window_bursts=100))
        runtime2.serve_burst([job for *_, job in restored])
        verdicts = {job.label: job.client.is_spam for job in runtime2.drain()}
        assert [verdicts[i] for i in range(len(SPAM_EMAILS))] == spam_truth
        # Compaction rewrote the file, but to an equivalent fold.
        assert ShardCheckpointLog(store, "shard-0").load() == blob

    def test_drained_log_is_deleted(self, spam_setup, tmp_path):
        directory, runtime, context = self._parked(spam_setup)
        store = FileSessionStore(tmp_path)
        log = ShardCheckpointLog(store, "shard-0")
        log.sync(runtime, directory, context)
        assert store.read_records("shard-0")
        runtime.drain()
        log.sync(runtime, directory, context)
        assert store.read_records("shard-0") is None


class TestNoPrivResultFidelity:
    def test_provider_result_survives_roundtrip_field_for_field(self, noprv_model):
        classifier = NoPrivClassifier(noprv_model)
        provider = NoPrivProviderSession(classifier)
        provider.started = True
        from repro.twopc.wire import FeaturesFrame

        provider.handle(FeaturesFrame(((1, 2), (4, 1))))
        restored = NoPrivProviderSession.restore(classifier, provider.snapshot())
        assert restored.result is not None
        assert restored.result.predicted_category == provider.result.predicted_category
        assert restored.result.provider_seconds == provider.result.provider_seconds
        assert restored.result.features_used == provider.result.features_used
        assert restored.snapshot() == provider.snapshot()
