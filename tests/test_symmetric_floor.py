"""Definitions, byte pins, properties and refusals for the symmetric hot path.

The garbler's label stream, the IKNP column streams, the garbled rows and the
IKNP pads are first proved from their *definitions* (raw ``shake_256`` output
one bit at a time, raw AES-128 output one block at a time, GF(2¹²⁸) doubling
one bit at a time).  The digests (``GARBLING_PINS``, ``POOLED_PINS``,
``ONE_SHOT_PINS``) were then produced by this commit's code with the recipes in
this file: they say nothing about *which* derivation is right — the
definition tests do — and exist so that a later rewrite meant to keep the
bytes can show it did, without a second implementation in ``src/``.  A change
that means to move them re-pins them once and bumps ``OT_POOL_STATE_VERSION``
/ ``YAO_STATE_VERSION``, because snapshots written before it stop resuming.
A change of circuit *shape* alone re-pins that shape's digests and bumps the
session state versions that embed the circuit (``parent_spam32`` shows the
derivation itself did not move).  The move from SHA-256 to fixed-key AES rows
and pads re-pinned only the ``tables`` digests and the pairs frames: labels,
offsets, outputs and columns kept their bytes.
"""

import hashlib
import hmac
import pickle
import random
import sys
import threading
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

from repro.crypto import garbled, hashes, ot
from repro.crypto.circuits import PLAN_AND, Circuit, CircuitBuilder, SpamCircuit, TopicCircuit
from repro.crypto.garbled import LABEL_BYTES, GarbledTables, decode_outputs, evaluate, garble
from repro.crypto.packing import PackedLinearModel, decrypt_dot_products
from repro.crypto.prg import Prg, prf
from repro.crypto.yao import YaoEvaluatorSession, YaoGarblerSession
from repro.exceptions import OTError, ParameterError, ProtocolAbort, ProtocolError
from repro.twopc.wire import SessionState, WireCodec
from repro.utils.bitops import bits_to_bytes, int_to_bits, xor_bytes


def _digest(*parts: bytes) -> str:
    return hashlib.sha256(b"".join(parts)).hexdigest()


# ---------------------------------------------------------------------------
# Garbling / evaluation
# ---------------------------------------------------------------------------
def _garbling_digests(circuit, seed: bytes) -> dict[str, str]:
    stream = Prg(seed, domain=b"pin-inputs")
    garbler_bits = stream.read_bits(len(circuit.garbler_inputs))
    evaluator_bits = stream.read_bits(len(circuit.evaluator_inputs))
    garbling = garble(circuit, seed=seed)
    zero_labels = garbling.wire_zero_labels
    outputs = evaluate(
        circuit,
        GarbledTables.from_bytes(garbling.tables.to_bytes()),
        garbling.input_labels(circuit.garbler_inputs, garbler_bits),
        garbling.input_labels(circuit.evaluator_inputs, evaluator_bits),
    )
    return {
        "tables": _digest(garbling.tables.to_bytes()),
        "zero_labels": _digest(*(zero_labels[wire] for wire in sorted(zero_labels))),
        "offset": _digest(garbling.free_xor_offset),
        "outputs": _digest(*outputs),
    }


GARBLING_PINS = {
    "spam32": {
        "tables": "290d271cc71aac79806ca372989a630ea896b62ab585e93039647982cdbb2335",
        "zero_labels": "9e3c67f7d1a95fd13249946dfb0e73ed4e426a4148329d27988d0a8c58103455",
        "offset": "1d4e1ddc8cc257b3e604409f392add0d0ef30e6d323fb3837418364766068af4",
        "outputs": "22cdf81f0b771bc5558d38522b52a57c97da3534c828c21965e343962c8f9b5e",
    },
    "topic32x10x8": {
        "tables": "c36756a10014da549b2739d397798f4672fa9fb3bb96217d2ff3024e7bfd6fcb",
        "zero_labels": "45c5559d950c960a5a6c565f31bb7ab4d6c200cb7c1c349f2c6776801b81a6f8",
        "offset": "1d4e1ddc8cc257b3e604409f392add0d0ef30e6d323fb3837418364766068af4",
        "outputs": "864d05aae2a119d9d636021f6d562162d6afe0a15680749745fc72f174824f5e",
    },
    # The spam circuit of commit 0c36dc6, rebuilt from the test-local copy
    # below: its labels, offset and outputs are that commit's "spam32" pins,
    # so the gadgets and the label stream did not move — only the circuit
    # shapes did, and then the row derivation (its tables were 6b43d108…).
    "parent_spam32": {
        "tables": "024fde0debde5378b1ce2c6195c28bdbbb6abf9ae65d71f6eba5b2dc9303eeb4",
        "zero_labels": "93c56741fd8f3c1c3373c7864a5156134db9a2f18be78992e22ad6eb221aaf55",
        "offset": "1d4e1ddc8cc257b3e604409f392add0d0ef30e6d323fb3837418364766068af4",
        "outputs": "f92438a1a9428eed74790d8c9c25095fb8603a25dadfbad4aadfd1ecac04e6ca",
    },
}


@pytest.mark.parametrize("name", sorted(GARBLING_PINS))
def test_garbling_bytes_are_pinned(name):
    circuit = {
        "spam32": lambda: SpamCircuit.build(32).circuit,
        "topic32x10x8": lambda: TopicCircuit.build(32, 10, 8).circuit,
        "parent_spam32": lambda: _parent_spam_circuit(32),
    }[name]()
    assert _garbling_digests(circuit, seed=b"symmetric-floor-pin") == GARBLING_PINS[name]


def test_garbling_labels_are_one_sequential_shake_read():
    """Offset, input wires, AND outputs — in that order, 16 bytes each, from one XOF."""
    circuit = SpamCircuit.build(8).circuit
    garbling = garble(circuit, seed=b"label-stream")
    and_outputs = [gate.output for gate in circuit.gates if gate.kind.value == "and"]
    wires = circuit.garbler_inputs + circuit.evaluator_inputs + and_outputs
    stream = hashlib.shake_256(b"garble-labels" + b"label-stream").digest(
        LABEL_BYTES * (1 + len(wires))
    )
    labels = [stream[at : at + LABEL_BYTES] for at in range(0, len(stream), LABEL_BYTES)]
    assert garbling.free_xor_offset == labels[0][:-1] + bytes([labels[0][-1] | 1])
    zero_labels = garbling.wire_zero_labels
    assert [zero_labels[wire] for wire in wires] == labels[1:]
    with pytest.raises(ParameterError):
        garble(circuit, seed=b"")


# -- fixed-key AES and GF(2^128), from their definitions ------------------------
def _aes_block(block: bytes) -> bytes:
    """One block of AES-128 under the public fixed key, from a fresh context."""
    assert len(block) == 16
    return Cipher(algorithms.AES(b"pretzel-fixedkey"), modes.ECB()).encryptor().update(block)


def _gf_times(constant: int, value: int) -> int:
    """``constant · value`` in GF(2^128) mod x^128 + x^7 + x^2 + x + 1, one bit at a time."""
    product = 0
    for bit in range(constant.bit_length()):
        if (constant >> bit) & 1:
            product ^= value << bit
    for bit in range(product.bit_length() - 1, 127, -1):
        if (product >> bit) & 1:
            product ^= ((1 << 128) | 0b10000111) << (bit - 128)
    return product


def _row_key(label_a: int, label_b: int, position: int) -> int:
    """``K = 2·A ⊕ 4·B ⊕ T`` with ``T = "garble-gate" ‖ 0x00 ‖ position``."""
    tweak = int.from_bytes(b"garble-gate\x00" + position.to_bytes(4, "big"), "big")
    return _gf_times(2, label_a) ^ _gf_times(4, label_b) ^ tweak


def test_garbled_rows_are_fixed_key_aes_pads_from_the_definition():
    """Every row of every AND gate, rebuilt one raw AES block at a time."""
    circuit = SpamCircuit.build(8).circuit
    garbling = garble(circuit, seed=b"row-definition")
    zero, offset = garbling.zero_labels, garbling.offset
    ands = [step for step in circuit.plan.steps if step[0] == PLAN_AND]
    assert len(garbling.tables.rows) == 64 * len(ands) > 0
    for ordinal, (_kind, wire_a, wire_b, wire_out, position) in enumerate(ands):
        gate_rows = garbling.tables.rows[64 * ordinal : 64 * ordinal + 64]
        for va in (0, 1):
            for vb in (0, 1):
                label_a, label_b = zero[wire_a] ^ va * offset, zero[wire_b] ^ vb * offset
                key = _row_key(label_a, label_b, position).to_bytes(16, "big")
                pad = xor_bytes(_aes_block(key), key)
                output = (zero[wire_out] ^ (va & vb) * offset).to_bytes(16, "big")
                colour = 2 * (label_a & 1) + (label_b & 1)
                assert gate_rows[16 * colour : 16 * colour + 16] == xor_bytes(pad, output)


@given(
    gates=st.lists(
        st.tuples(
            st.integers(0, 2**128 - 1), st.integers(0, 2**128 - 1), st.integers(0, 2**32 - 1)
        ),
        min_size=1,
        max_size=6,
    ),
    offset=st.integers(0, 2**127 - 1),
)
@settings(max_examples=100, deadline=None)
def test_vectorised_row_keys_equal_the_bitwise_field_reference(gates, offset):
    offset = 2 * offset + 1  # a free-XOR offset has its colour bit set
    a0 = np.frombuffer(b"".join(a.to_bytes(16, "big") for a, _, _ in gates), np.uint8)
    b0 = np.frombuffer(b"".join(b.to_bytes(16, "big") for _, b, _ in gates), np.uint8)
    positions = np.array([position for *_, position in gates], dtype=np.uint32)
    keys = garbled._gate_keys(a0.reshape(-1, 16), b0.reshape(-1, 16), positions, offset)
    assert keys.shape == (len(gates), 4, 16)
    for (a, b, position), gate_keys in zip(gates, keys):
        expected = [
            _row_key(a ^ va * offset, b ^ vb * offset, position) for va in (0, 1) for vb in (0, 1)
        ]
        got = [int.from_bytes(key.tobytes(), "big") for key in gate_keys]
        assert got == expected
        assert len(set(got)) == 4  # the four rows of a gate never share a key


def test_threads_garbling_at_once_reproduce_the_pins():
    """Each thread holds its own cipher context; none of them corrupts another's blocks."""
    builds = {
        "spam32": lambda: SpamCircuit.build(32).circuit,
        "topic32x10x8": lambda: TopicCircuit.build(32, 10, 8).circuit,
    }
    circuits = {name: build() for name, build in builds.items()}
    workers = 4  # more threads than the cores of a small CI box
    start, results, errors = threading.Barrier(workers), [], []

    def work():
        try:
            start.wait(timeout=30)
            for _ in range(3):
                for name, circuit in circuits.items():
                    results.append((name, _garbling_digests(circuit, seed=b"symmetric-floor-pin")))
        except Exception as error:  # surfaced below, in the test's own thread
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the garble/evaluate calls
    try:
        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == workers * 3 * len(circuits)
    for name, digests in results:
        assert digests == GARBLING_PINS[name]


# ---------------------------------------------------------------------------
# IKNP extension
# ---------------------------------------------------------------------------
KAPPA = ot.SECURITY_PARAMETER


def _pinned_pool() -> ot.OtExtensionPool:
    stream = Prg(b"symmetric-floor-pool", domain=b"pin-pool")
    s_bits = stream.read_bits(KAPPA)
    seed_pairs = [(stream.read(16), stream.read(16)) for _ in range(KAPPA)]
    return ot.OtExtensionPool(
        sender_state=ot.OtExtensionSenderState(
            s_bits=s_bits, seed_keys=[pair[bit] for pair, bit in zip(seed_pairs, s_bits)]
        ),
        receiver_state=ot.OtExtensionReceiverState(seed_pairs=seed_pairs),
    )


def _pooled_exchange(pool, count: int, message_bytes: int = 16):
    """One pooled batch: (columns frame, pairs frame, chosen messages, expected)."""
    stream = Prg(b"symmetric-floor-batch" + count.to_bytes(4, "big"), domain=b"pin-batch")
    choices = stream.read_bits(count)
    pairs = [(stream.read(message_bytes), stream.read(message_bytes)) for _ in range(count)]
    receiver = ot.PooledIknpReceiverMachine(None, choices, pool.receiver_state)
    sender = ot.PooledIknpSenderMachine(None, pairs, pool.sender_state)
    (columns_frame,) = receiver.start()
    assert sender.start() == []
    (pairs_frame,) = sender.handle(columns_frame)
    assert receiver.handle(pairs_frame) == []
    expected = [pair[choice] for pair, choice in zip(pairs, choices)]
    return columns_frame, pairs_frame, receiver.result, expected


POOLED_PINS = {
    13: (
        "af8a5a487be0d6c6554d7179aa544c7a3a427c7771004dcf277bfd5e1a25bd3c",
        "3763b66233d4e5769bedd3cca631e6ff61c041805b29daed6b964f9c96d33899",
    ),
    64: (
        "88cc4c0c357eaad8aa916a0ceba72c5a7bf487ddc4cf50b65a5b2ca7ef96e2c9",
        "cdc52e9c789720acebafaa9b67323e2001da7c88127e5d922133956b0387f0fa",
    ),
    320: (
        "f69fd9370d5c1c3010deb14390ffd656f507b067480e96c6af8125bc21465a3e",
        "1a5186598335d098a5d3061b57c02a9ce8bb2bb030c87be4eeffb2c139d6c3fa",
    ),
}


def test_pooled_iknp_frames_are_pinned():
    pool, codec = _pinned_pool(), WireCodec()
    digests = {}
    for count in sorted(POOLED_PINS):  # one pool: start indices 0, 13, 77
        columns_frame, pairs_frame, received, expected = _pooled_exchange(pool, count)
        assert received == expected
        digests[count] = (_digest(codec.encode(columns_frame)), _digest(codec.encode(pairs_frame)))
    assert digests == POOLED_PINS
    assert pool.sender_state.claimed == [(0, 13 + 64 + 320)]


def test_pooled_iknp_handles_messages_longer_than_one_prf_block():
    *_, received, expected = _pooled_exchange(_pinned_pool(), 9, message_bytes=45)
    assert received == expected


# -- the column streams, from their definition --------------------------------
CHUNK = ot.CHUNK_TRANSFERS


@lru_cache(maxsize=None)
def _raw_columns(seeds: tuple[bytes, ...], domain: bytes, chunk: int) -> list[bytes]:
    return [
        hashlib.shake_256(seed + domain + chunk.to_bytes(8, "big")).digest(CHUNK // 8)
        for seed in seeds
    ]


def _definition_row(seeds: tuple[bytes, ...], domain: bytes, index: int) -> bytes:
    """Row *index*: bit ``index`` of every column's raw SHAKE-256 stream, one bit at a time."""
    chunk, position = divmod(index, CHUNK)
    row = bytearray(KAPPA // 8)
    for j, column in enumerate(_raw_columns(seeds, domain, chunk)):
        row[j // 8] |= ((column[position // 8] >> (position % 8)) & 1) << (j % 8)
    return bytes(row)


def _stream_seeds(tag: bytes) -> tuple[bytes, ...]:
    stream = Prg(tag, domain=b"pin-stream")
    return tuple(stream.read(16) for _ in range(KAPPA))


# (start, count): aligned, unaligned, ending on / straddling one chunk boundary, and —
# at 2 500 transfers — two or three of them.
STREAM_REQUESTS = [
    (0, 1), (0, 13), (0, 64), (0, 320), (0, 2500),
    (5, 1), (77, 13), (999, 64), (CHUNK - 1, 1), (CHUNK - 1, 2), (CHUNK - 64, 64),
    (CHUNK - 7, 13), (1000, 320), (3 * CHUNK - 100, 320), (CHUNK + 3, 2500), (4090, 2500),
]


@pytest.mark.parametrize("start,count", STREAM_REQUESTS)
def test_column_stream_rows_equal_the_per_bit_definition(start, count):
    seeds, domain = _stream_seeds(b"definition"), b"some-domain"
    rows = ot.ColumnStream(list(seeds), domain).rows(start, count)
    assert rows.shape == (count, KAPPA // 8) and rows.dtype == np.uint8
    expected = b"".join(_definition_row(seeds, domain, start + i) for i in range(count))
    assert rows.tobytes() == expected


def test_column_stream_is_independent_of_request_order_and_keeps_two_chunks():
    seeds = _stream_seeds(b"order")
    in_order = ot.ColumnStream(list(seeds), b"d")
    expected = {request: in_order.rows(*request).tobytes() for request in STREAM_REQUESTS}
    shuffled = list(STREAM_REQUESTS) * 2
    random.Random(5).shuffle(shuffled)
    stream = ot.ColumnStream(list(seeds), b"d")
    for request in shuffled:
        assert stream.rows(*request).tobytes() == expected[request]
        assert len(stream._chunks) <= ot.RESIDENT_CHUNKS == 2
    # Another domain or another seed list is another matrix.
    assert ot.ColumnStream(list(seeds), b"e").rows(0, 64).tobytes() != expected[(0, 64)]
    assert ot.ColumnStream(list(seeds[::-1]), b"d").rows(0, 64).tobytes() != expected[(0, 64)]


def test_column_streams_never_reach_a_pickle_a_snapshot_or_equality():
    pool, twin = _pinned_pool(), _pinned_pool()
    pickled, snapshot = pickle.dumps(pool), pool.snapshot().to_bytes()
    for stream in (
        pool.sender_state.stream, pool.receiver_state.stream0, pool.receiver_state.stream1
    ):
        stream.rows(CHUNK - 10, 64)
        assert len(stream._chunks) == 2
    assert pickle.dumps(pool) == pickled and pool.snapshot().to_bytes() == snapshot
    assert pool == twin
    # After a real exchange the cursors moved; a twin whose cursors were moved
    # by hand (no stream ever built) still pickles and snapshots to the same bytes.
    _pooled_exchange(pool, 64)
    twin.receiver_state.allocate(64)
    twin.sender_state.claim(0, 64)
    assert pickle.dumps(pool) == pickle.dumps(twin)
    assert pool.snapshot().to_bytes() == twin.snapshot().to_bytes() and pool == twin
    copy = pickle.loads(pickle.dumps(pool))
    assert copy == pool and "stream" not in vars(copy.sender_state)
    assert _pooled_exchange(copy, 13)[0] == _pooled_exchange(pool, 13)[0]


def _sigma(row: bytes) -> bytes:
    """``σ(x_L ‖ x_R) = (x_L ⊕ x_R) ‖ x_L`` on the two 64-bit halves."""
    return xor_bytes(row[:8], row[8:]) + row[:8]


def _definition_pad(row: bytes, domain: bytes, index: int, bit: int, length: int) -> bytes:
    """``H(x, t) = π(σ(x) ⊕ t) ⊕ σ(x)`` per block ``k``, ``t = domain ‖ index ‖ bit ‖ k``.
    """
    blocks = []
    for counter in range(-(-length // 16)):
        tweak = domain + index.to_bytes(8, "big") + bytes([bit]) + counter.to_bytes(4, "big")
        blocks.append(xor_bytes(_aes_block(xor_bytes(_sigma(row), tweak)), _sigma(row)))
    return b"".join(blocks)[:length]


def test_pads_are_one_fixed_key_hash_of_row_and_tweak():
    """Both frames of a pooled batch, rebuilt from the definitions alone."""
    pool, start, count = _pinned_pool(), 1000, 64  # straddles the first chunk boundary
    pool.receiver_state.next_index = start
    seeds0 = tuple(seed0 for seed0, _ in pool.receiver_state.seed_pairs)
    seeds1 = tuple(seed1 for _, seed1 in pool.receiver_state.seed_pairs)
    s_bits = pool.sender_state.s_bits
    columns_frame, pairs_frame, received, expected = _pooled_exchange(pool, count)
    assert received == expected and columns_frame.start_index == start
    stream = Prg(b"symmetric-floor-batch" + count.to_bytes(4, "big"), domain=b"pin-batch")
    choices = stream.read_bits(count)
    pairs = [(stream.read(16), stream.read(16)) for _ in range(count)]
    domain = b"iknp-pool-column"
    s_row = bytes(
        sum(bit << position for position, bit in enumerate(s_bits[at : at + 8]))
        for at in range(0, KAPPA, 8)
    )
    for i in range(count):
        t_row = _definition_row(seeds0, domain, start + i)
        g_row = _definition_row(seeds1, domain, start + i)
        u_row = xor_bytes(xor_bytes(t_row, g_row), bytes([0xFF * choices[i]]) * 16)
        for j in range(KAPPA):  # U is published by column
            assert (columns_frame.columns[j][i // 8] >> (i % 8)) & 1 == (u_row[j // 8] >> (j % 8)) & 1
        # q_i = t_i XOR (r_i * s); message b is padded with H(q_i XOR b * s, (otp, i, b, 0)).
        q_row = xor_bytes(t_row, s_row) if choices[i] else t_row
        pad0 = _definition_pad(q_row, b"otp", start + i, 0, 16)
        pad1 = _definition_pad(xor_bytes(q_row, s_row), b"otp", start + i, 1, 16)
        assert pairs_frame.pairs[i] == (xor_bytes(pad0, pairs[i][0]), xor_bytes(pad1, pairs[i][1]))
        # The receiver unpads its chosen message with t_i, which is q_i XOR r_i * s.
        assert _definition_pad(t_row, b"otp", start + i, choices[i], 16) == (pad0, pad1)[choices[i]]


def test_long_pads_continue_with_counter_blocks():
    stream = Prg(b"long-pads", domain=b"pin-pads")
    rows = np.frombuffer(stream.read(3 * 2 * 16), np.uint8).reshape(3, 2, 16)
    bits = np.array([[0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    for length in (1, 16, 17, 32, 33, 45, 70):
        pads = ot._pads(rows, b"otp", 1000, bits, length)
        assert pads.shape == (3, 2, length)
        for i in range(3):
            for j in range(2):
                expected = _definition_pad(
                    rows[i, j].tobytes(), b"otp", 1000 + i, bits[i, j], length
                )
                assert pads[i, j].tobytes() == expected


def test_receiver_restored_across_a_chunk_boundary_rederives_its_rows():
    pool, start = _pinned_pool(), CHUNK - 20
    pool.receiver_state.next_index = start
    stream = Prg(b"restore-batch", domain=b"pin-batch")
    choices = stream.read_bits(64)
    pairs = [(stream.read(16), stream.read(16)) for _ in range(64)]
    receiver = ot.PooledIknpReceiverMachine(None, choices, pool.receiver_state)
    (columns_frame,) = receiver.start()
    # The process dies here: pool and machine come back from their snapshots,
    # with no stream built yet and nothing re-reserved.
    restored_pool = ot.OtExtensionPool.restore(
        SessionState.from_bytes(pool.snapshot().to_bytes())
    )
    restored = ot.PooledIknpReceiverMachine.restore(
        None, SessionState.from_bytes(receiver.snapshot().to_bytes()), restored_pool.receiver_state
    )
    assert restored_pool.receiver_state.next_index == start + 64
    assert "stream0" not in vars(restored_pool.receiver_state)
    sender = ot.PooledIknpSenderMachine(None, pairs, restored_pool.sender_state)
    sender.start()
    (pairs_frame,) = sender.handle(columns_frame)
    for machine in (receiver, restored):
        assert machine.handle(pairs_frame) == []
        assert machine.result == [pair[choice] for pair, choice in zip(pairs, choices)]
    assert (
        restored_pool.receiver_state.stream0.rows(start, 64).tobytes()
        == pool.receiver_state.stream0.rows(start, 64).tobytes()
    )


def test_a_pool_refuses_to_run_past_the_wire_index_range():
    pool = _pinned_pool()
    ceiling = ot.TRANSFER_INDEX_LIMIT
    assert ceiling == 2**32
    pool.receiver_state.next_index = ceiling - 10
    assert pool.receiver_state.remaining == 10
    receiver = ot.PooledIknpReceiverMachine(None, [1] * 64, pool.receiver_state)
    with pytest.raises(OTError, match="run out"):
        receiver.start()
    assert pool.receiver_state.next_index == ceiling - 10  # nothing was reserved
    with pytest.raises(OTError, match="last transfer index"):
        pool.sender_state.claim(ceiling - 10, 64)
    assert pool.sender_state.claimed == []
    # The last ten indices are still good, and still fit the frame's u32.
    *_, received, expected = _pooled_exchange(pool, 10)
    assert received == expected
    assert pool.receiver_state.remaining == 0 and pool.sender_state.claimed == [(ceiling - 10, 10)]


def _one_shot_exchange(group, stream):
    """A full one-shot IKNP run whose ``secure_bytes`` draws come from *stream*.

    The seed base OTs are randomised (DH exponents) but deliver fixed seeds,
    so the extension frames that follow are a function of the stream alone.
    """
    choices = stream.read_bits(21)
    pairs = [(stream.read(16), stream.read(16)) for _ in range(21)]
    sender = ot.IknpSenderMachine(group, pairs)
    receiver = ot.IknpReceiverMachine(group, choices)
    (publics,) = receiver.start()
    assert sender.start() == []
    (responses,) = sender.handle(publics)
    cipher_pairs, columns_frame = receiver.handle(responses)
    assert sender.handle(cipher_pairs) == []
    (pairs_frame,) = sender.handle(columns_frame)
    receiver.handle(pairs_frame)
    assert receiver.result == [pair[choice] for pair, choice in zip(pairs, choices)]
    codec = WireCodec()
    return _digest(codec.encode(columns_frame)), _digest(codec.encode(pairs_frame))


ONE_SHOT_PINS = (
    "567627cf2a1a243c1445b0fe1bb8dead5b2035594edfe9b0cd3d5fa584565e11",
    "4912fa7e3f91384f4c334dcf9c928ebfad0f06e3cb05552eb2a6e357f0baf699",
)


def test_one_shot_iknp_frames_are_pinned(dh_group, monkeypatch):
    stream = Prg(b"symmetric-floor-one-shot", domain=b"pin-one-shot")
    monkeypatch.setattr(ot, "secure_bytes", stream.read)
    assert _one_shot_exchange(dh_group, stream) == ONE_SHOT_PINS


@given(
    count=st.integers(min_value=1, max_value=300),
    seed=st.binary(min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_transpose_equals_the_per_bit_definition(count, seed):
    column_bytes = (count + 7) // 8
    stream = Prg(seed, domain=b"transpose")
    columns = [stream.read(column_bytes) for _ in range(KAPPA)]
    rows = ot._transpose_columns(b"".join(columns), count)
    assert len(rows) == count * KAPPA // 8
    for i in range(count):
        bits = [(columns[j][i // 8] >> (i % 8)) & 1 for j in range(KAPPA)]
        naive = bytes(
            sum(bit << position for position, bit in enumerate(bits[at : at + 8]))
            for at in range(0, KAPPA, 8)
        )
        assert rows[16 * i : 16 * i + 16] == naive


def test_replayed_columns_frame_is_still_rejected():
    pool = _pinned_pool()
    columns_frame, *_ = _pooled_exchange(pool, 13)
    replay = ot.PooledIknpSenderMachine(None, [(b"a" * 16, b"b" * 16)] * 13, pool.sender_state)
    replay.start()
    with pytest.raises(OTError, match="overlaps"):
        replay.handle(columns_frame)


def test_pooled_sender_refuses_a_short_column():
    pool = _pinned_pool()
    receiver = ot.PooledIknpReceiverMachine(None, [1, 0, 1] * 7, pool.receiver_state)
    (frame,) = receiver.start()
    columns = list(frame.columns)
    columns[40] = columns[40][:-1]
    sender = ot.PooledIknpSenderMachine(None, [(b"a" * 16, b"b" * 16)] * 21, pool.sender_state)
    sender.start()
    with pytest.raises(OTError, match="column length"):
        sender.handle(type(frame)(tuple(columns), start_index=frame.start_index))


def _receiver_awaiting_pairs(kind, group, choices, pairs):
    """A pooled or one-shot receiver one frame from done, and the sender's pairs frame."""
    if kind == "pooled":
        pool = _pinned_pool()
        receiver = ot.PooledIknpReceiverMachine(None, choices, pool.receiver_state)
        sender = ot.PooledIknpSenderMachine(None, pairs, pool.sender_state)
        (columns_frame,) = receiver.start()
        sender.start()
        (pairs_frame,) = sender.handle(columns_frame)
        return receiver, pairs_frame
    sender, receiver = ot.IknpSenderMachine(group, pairs), ot.IknpReceiverMachine(group, choices)
    (publics,) = receiver.start()
    sender.start()
    (responses,) = sender.handle(publics)
    cipher_pairs, columns_frame = receiver.handle(responses)
    sender.handle(cipher_pairs)
    (pairs_frame,) = sender.handle(columns_frame)
    return receiver, pairs_frame


@pytest.mark.parametrize("kind", ["pooled", "one_shot"])
@pytest.mark.parametrize("tamper", ["chosen_short", "other_long", "first_long"])
def test_receivers_refuse_pairs_of_mixed_lengths_before_any_pad(kind, tamper, dh_group, pi_calls):
    """A batch's pads are derived at one length: a crafted frame never reaches them."""
    choices = [1, 0, 1] * 7
    pairs = [(bytes([i]) * 16, bytes([i + 100]) * 16) for i in range(21)]
    receiver, frame = _receiver_awaiting_pairs(kind, dh_group, choices, pairs)
    crafted = [list(pair) for pair in frame.pairs]
    if tamper == "chosen_short":
        crafted[4][choices[4]] = crafted[4][choices[4]][:-1]
    elif tamper == "other_long":
        crafted[5][1 - choices[5]] += b"\x00"  # the message the receiver never opens
    else:
        crafted[0][0] += b"\x00"  # the first message disagrees with every other
    pi_calls.clear()
    with pytest.raises(OTError, match="one length"):
        receiver.handle(ot.OtExtPairsFrame(tuple(tuple(pair) for pair in crafted)))
    assert pi_calls == [] and receiver.result is None and not receiver.finished
    # The frame as sent still decrypts.
    assert receiver.handle(frame) == []
    assert receiver.result == [pair[choice] for pair, choice in zip(pairs, choices)]


# ---------------------------------------------------------------------------
# Refusals at the label/table boundary
# ---------------------------------------------------------------------------
def _small_garbling():
    builder = CircuitBuilder()
    a, b = builder.garbler_input(2), builder.evaluator_input(2)
    circuit = builder.build([builder.and_(a[0], b[0]), builder.xor(a[1], b[1])])
    garbling = garble(circuit, seed=b"refusals")
    return (
        circuit,
        garbling.tables,
        garbling.input_labels(circuit.garbler_inputs, [1, 0]),
        garbling.input_labels(circuit.evaluator_inputs, [1, 1]),
    )


@pytest.mark.parametrize("bad", [b"\x01" * 15, b"\x01" * 17])
@pytest.mark.parametrize("side", [0, 1])
def test_evaluate_refuses_a_mis_sized_input_label(bad, side):
    circuit, tables, garbler_labels, evaluator_labels = _small_garbling()
    labels = [list(garbler_labels), list(evaluator_labels)]
    labels[side][0] = bad
    with pytest.raises(ProtocolAbort):
        evaluate(circuit, tables, *labels)


def test_evaluate_refuses_a_short_table_row_and_a_missing_gate():
    circuit, tables, garbler_labels, evaluator_labels = _small_garbling()
    (position,) = tables.positions
    for rows in (tables.rows[:-1], tables.rows[: 3 * LABEL_BYTES], tables.rows + bytes(16)):
        short = GarbledTables((position,), rows, tables.output_decode)
        with pytest.raises(ProtocolAbort):
            evaluate(circuit, short, garbler_labels, evaluator_labels)
    with pytest.raises(ProtocolAbort):
        evaluate(circuit, GarbledTables((), b"", tables.output_decode), garbler_labels, evaluator_labels)


@pytest.fixture
def sha256_calls(monkeypatch):
    """Every ``hashlib.sha256`` call the symmetric code makes (decode digests, base-OT keys)."""
    calls, real = [], hashlib.sha256

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


@pytest.fixture
def pi_calls(monkeypatch):
    """The block count of every call of the fixed-key permutation, garbler, evaluator and OT."""
    calls, real = [], hashes.fixed_key_permutation

    def counting_permutation():
        update = real()

        def counted(data):
            assert len(data) % 16 == 0  # whole blocks only
            calls.append(len(data) // 16)
            return update(data)

        return counted

    for module in (garbled, ot):
        monkeypatch.setattr(module, "fixed_key_permutation", counting_permutation)
    return calls


@pytest.mark.parametrize(
    "build",
    [lambda: SpamCircuit.build(28), lambda: TopicCircuit.build(27, 10, 8), lambda: TopicCircuit.build(8, 3, 2)],
    ids=["spam28", "topic27x10x8", "topic8x3x2"],
)
def test_hash_budgets_are_exact(build, sha256_calls, pi_calls):
    circuit = build().circuit
    garbling = garble(circuit, seed=b"budget")
    # One permutation call over four row keys per AND; two decode digests per output.
    assert pi_calls == [4 * circuit.and_count]
    assert len(sha256_calls) == 2 * len(circuit.outputs)
    sha256_calls.clear()
    pi_calls.clear()
    labels = evaluate(
        circuit,
        garbling.tables,
        garbling.input_labels(circuit.garbler_inputs, [1] * len(circuit.garbler_inputs)),
        garbling.input_labels(circuit.evaluator_inputs, [0] * len(circuit.evaluator_inputs)),
    )
    assert pi_calls == [1] * circuit.and_count and sha256_calls == []
    pi_calls.clear()
    decode_outputs(circuit, garbling.tables, labels)
    assert pi_calls == [] and len(sha256_calls) == len(circuit.outputs)


@pytest.mark.parametrize("count,message_bytes", [(13, 16), (64, 16), (320, 16), (9, 45), (5, 1)])
def test_pad_budgets_are_exact(count, message_bytes, sha256_calls, pi_calls):
    pool = _pinned_pool()
    stream = Prg(b"pad-budget", domain=b"pin-batch")
    choices = stream.read_bits(count)
    pairs = [(stream.read(message_bytes), stream.read(message_bytes)) for _ in range(count)]
    receiver = ot.PooledIknpReceiverMachine(None, choices, pool.receiver_state)
    sender = ot.PooledIknpSenderMachine(None, pairs, pool.sender_state)
    (columns_frame,) = receiver.start()
    blocks = -(-message_bytes // 16)
    sha256_calls.clear()  # the batch's own draws above run HMAC
    (pairs_frame,) = sender.handle(columns_frame)
    assert pi_calls == [2 * count * blocks]
    pi_calls.clear()
    receiver.handle(pairs_frame)
    assert pi_calls == [count * blocks] and sha256_calls == []
    assert receiver.result == [pair[choice] for pair, choice in zip(pairs, choices)]


def test_evaluate_refuses_foreign_positions_or_a_mis_sized_block_before_any_pad(
    sha256_calls, pi_calls
):
    circuit = SpamCircuit.build(32).circuit
    garbling = garble(circuit, seed=b"refusals")
    tables, positions = garbling.tables, garbling.tables.positions
    foreign = garble(_previous_spam_circuit(32), seed=b"refusals").tables
    # Another circuit's AND positions, cut to this circuit's count and block size.
    foreign = replace(
        foreign, positions=foreign.positions[: len(positions)], rows=foreign.rows[: len(tables.rows)]
    )
    assert foreign.positions != positions
    refused = [
        replace(tables, positions=positions[:-1]),
        replace(tables, positions=positions[:-1] + (positions[-1] + 1,)),
        replace(tables, positions=(positions[0] + 1,) + positions[1:]),
        replace(tables, rows=tables.rows[:-1]),
        replace(tables, rows=tables.rows[: -4 * LABEL_BYTES]),
        replace(tables, rows=tables.rows + bytes(4 * LABEL_BYTES)),
        foreign,
    ]
    garbler_labels = garbling.input_labels(circuit.garbler_inputs, [0] * 32)
    evaluator_labels = garbling.input_labels(circuit.evaluator_inputs, [1] * 32)
    sha256_calls.clear()
    pi_calls.clear()
    for bad in refused:
        with pytest.raises(ProtocolAbort, match="AND gate"):
            evaluate(circuit, bad, garbler_labels, evaluator_labels)
    assert sha256_calls == [] and pi_calls == []
    evaluate(circuit, tables, garbler_labels, evaluator_labels)
    assert pi_calls == [1] * circuit.and_count and sha256_calls == []


# ---------------------------------------------------------------------------
# A peer still on the previous derivations fails closed
#
# There is no negotiation layer: the gadgets, the column streams and the spam
# circuit's shape changed without a wire-format change, so a mixed pair
# exchanges well-formed frames.  What must hold is that it ends in a refusal
# (``ProtocolAbort``, or ``OTError`` when the transfer counts already differ)
# — never in a verdict.  The copies below are earlier builds' derivations,
# kept here only.
# ---------------------------------------------------------------------------
class _TwoAndBuilder(CircuitBuilder):
    """The two-ANDs-per-bit gadgets this build replaced."""

    def subtract_words(self, a, b):
        not_b = [self.not_(bit) for bit in b]
        carry, result = None, []
        for index, (bit_a, bit_nb) in enumerate(zip(a, not_b)):
            axb = self.xor(bit_a, bit_nb)
            if index == 0:
                result.append(self.not_(axb))
                carry = self.or_(self.and_(bit_a, bit_nb), axb)
            else:
                result.append(self.xor(axb, carry))
                carry = self.xor(self.and_(bit_a, bit_nb), self.and_(carry, axb))
        return result

    def greater_than(self, a, b):
        gt = None
        for bit_a, bit_b in zip(a, b):
            a_and_not_b = self.and_(bit_a, self.not_(bit_b))
            if gt is None:
                gt = a_and_not_b
            else:
                equal_here = self.not_(self.xor(bit_a, bit_b))
                gt = self.xor(a_and_not_b, self.and_(equal_here, self.xor(gt, a_and_not_b)))
        return gt


def _parent_spam_circuit(width: int, builder: CircuitBuilder | None = None) -> Circuit:
    """The spam circuit of commit 0c36dc6: unblind two scores, compare them (3w - 2 ANDs)."""
    builder = builder or CircuitBuilder()
    blinded_spam, blinded_ham = builder.garbler_input(width), builder.garbler_input(width)
    noise_spam, noise_ham = builder.evaluator_input(width), builder.evaluator_input(width)
    return builder.build(
        [
            builder.greater_than(
                builder.subtract_words(blinded_spam, noise_spam),
                builder.subtract_words(blinded_ham, noise_ham),
            )
        ]
    )


def _previous_spam_circuit(width: int) -> Circuit:
    """The same shape on the two-AND gadgets before it."""
    return _parent_spam_circuit(width, _TwoAndBuilder())


def _parent_spam_bits(width: int, first: int, second: int) -> list[int]:
    return int_to_bits(first, width) + int_to_bits(second, width)


# (garbler bits, evaluator bits) whose output is [1] on either shape at w = 32.
PARENT_SHAPE_INPUTS = (_parent_spam_bits(32, 1500, 700), _parent_spam_bits(32, 200, 300))
MARGIN_SHAPE_INPUTS = (int_to_bits(1500, 32), int_to_bits(1500 - 2**31, 32))


class _PerBatchHmacStream:
    """The previous column derivation: an HMAC counter stream re-keyed per batch."""

    def __init__(self, seeds):
        self.seeds = seeds

    def rows(self, start, count):
        domain = b"iknp-pool-column" + start.to_bytes(8, "big")
        columns = [Prg(seed, domain=domain).read((count + 7) // 8) for seed in self.seeds]
        return np.frombuffer(
            ot._transpose_columns(b"".join(columns), count), dtype=np.uint8
        ).reshape(count, KAPPA // 8)


def _run_spam_yao(garbler_circuit, evaluator_circuit, pool, garbler_inputs, evaluator_inputs):
    """Pump one pooled spam Yao run by hand; returns the evaluator's output bits."""
    garbler_bits, _ = garbler_inputs
    _, evaluator_bits = evaluator_inputs
    garbler = YaoGarblerSession(
        garbler_circuit, garbler_bits, None, ot_pool=pool, garble_seed=b"m" * 32
    )
    evaluator = YaoEvaluatorSession(evaluator_circuit, evaluator_bits, None, ot_pool=pool)
    to_evaluator, to_garbler = garbler.start(), evaluator.start()
    while to_evaluator or to_garbler:
        replies = [reply for frame in to_garbler for reply in garbler.handle(frame)]
        to_garbler = [reply for frame in to_evaluator for reply in evaluator.handle(frame)]
        to_evaluator = replies
    assert garbler.finished and evaluator.finished
    return evaluator.output_bits


def test_the_previous_gadgets_compute_the_same_function_with_twice_the_gates():
    one_and, previous = _parent_spam_circuit(32), _previous_spam_circuit(32)
    assert (one_and.and_count, previous.and_count) == (94, 191)
    assert (one_and.garbler_inputs, one_and.evaluator_inputs) == (
        previous.garbler_inputs, previous.evaluator_inputs
    )
    inputs = (PARENT_SHAPE_INPUTS, PARENT_SHAPE_INPUTS)
    assert _run_spam_yao(one_and, one_and, _pinned_pool(), *inputs) == [1]
    assert _run_spam_yao(previous, previous, _pinned_pool(), *inputs) == [1]


@pytest.mark.parametrize("new_side", ["garbler", "evaluator"])
def test_a_peer_on_the_previous_gadgets_aborts(new_side):
    one_and, previous = _parent_spam_circuit(32), _previous_spam_circuit(32)
    circuits = (one_and, previous) if new_side == "garbler" else (previous, one_and)
    with pytest.raises(ProtocolAbort):
        _run_spam_yao(*circuits, _pinned_pool(), PARENT_SHAPE_INPUTS, PARENT_SHAPE_INPUTS)


def test_the_margin_shape_runs_through_yao():
    circuit = SpamCircuit.build(32).circuit
    inputs = (MARGIN_SHAPE_INPUTS, MARGIN_SHAPE_INPUTS)
    assert _run_spam_yao(circuit, circuit, _pinned_pool(), *inputs) == [1]


def test_tables_of_the_parent_spam_shape_abort_this_evaluator():
    # dot_product_bits = 27: the parent garbled a two-word 27-bit circuit,
    # this build one 28-bit word.  Let this build's OT finish, then deliver
    # the parent's tables in the garbled-circuit frame.
    current, parent = SpamCircuit.build(28), _parent_spam_circuit(27)
    pool = _pinned_pool()
    garbler = YaoGarblerSession(
        current.circuit, current.garbler_bits(5), None, ot_pool=pool, garble_seed=b"m" * 32
    )
    evaluator = YaoEvaluatorSession(current.circuit, current.evaluator_bits(3), None, ot_pool=pool)
    (columns,) = evaluator.start()
    assert garbler.start() == []
    pairs, tables_frame = garbler.handle(columns)
    assert evaluator.handle(pairs) == []
    parent_tables = garble(parent, seed=b"m" * 32).tables
    with pytest.raises(ProtocolAbort, match="AND gate"):
        evaluator.handle(replace(tables_frame, tables=parent_tables))
    assert not evaluator.finished and evaluator.output_bits is None


@pytest.mark.parametrize("new_side", ["garbler", "evaluator"])
def test_a_peer_on_the_parent_spam_shape_is_refused(new_side):
    # 2 · 27 transfers on one side, 28 on the other: the OT refuses first.
    current, parent = SpamCircuit.build(28).circuit, _parent_spam_circuit(27)
    margin_inputs = (int_to_bits(5, 28), int_to_bits(3, 28))
    parent_inputs = (_parent_spam_bits(27, 5, 6), _parent_spam_bits(27, 1, 2))
    if new_side == "garbler":
        arguments = (current, parent, _pinned_pool(), margin_inputs, parent_inputs)
    else:
        arguments = (parent, current, _pinned_pool(), parent_inputs, margin_inputs)
    with pytest.raises(ProtocolError):
        _run_spam_yao(*arguments)


@pytest.mark.parametrize("new_side", ["sender", "receiver"])
def test_a_peer_on_the_previous_column_derivation_aborts(new_side):
    pool = _pinned_pool()
    if new_side == "sender":
        state = pool.receiver_state
        state.stream0 = _PerBatchHmacStream([seed0 for seed0, _ in state.seed_pairs])
        state.stream1 = _PerBatchHmacStream([seed1 for _, seed1 in state.seed_pairs])
    else:
        pool.sender_state.stream = _PerBatchHmacStream(pool.sender_state.seed_keys)
    circuit = SpamCircuit.build(32).circuit
    # The OT hands the evaluator labels that are neither of a wire's two, so
    # the output label authenticates to nothing.
    with pytest.raises(ProtocolAbort, match="does not decode"):
        _run_spam_yao(circuit, circuit, pool, MARGIN_SHAPE_INPUTS, MARGIN_SHAPE_INPUTS)


# -- the SHA-256 rows and pads of commit 7cb42f0 ------------------------------
def _parent_rows(circuit: Circuit, garbling) -> GarbledTables:
    """This garbling's labels under 7cb42f0's rows, ``sha256(tag ‖ A ‖ B ‖ p)[:16]``."""
    zero, offset, rows = garbling.zero_labels, garbling.offset, []
    for kind, wire_a, wire_b, wire_out, position in circuit.plan.steps:
        if kind != PLAN_AND:
            continue
        gate = [b""] * 4
        for va in (0, 1):
            for vb in (0, 1):
                label_a = (zero[wire_a] ^ va * offset).to_bytes(16, "big")
                label_b = (zero[wire_b] ^ vb * offset).to_bytes(16, "big")
                pad = hashlib.sha256(
                    b"garble-gate" + label_a + label_b + position.to_bytes(4, "big")
                ).digest()[:16]
                output = (zero[wire_out] ^ (va & vb) * offset).to_bytes(16, "big")
                gate[2 * (label_a[-1] & 1) + (label_b[-1] & 1)] = xor_bytes(pad, output)
        rows.append(b"".join(gate))
    return replace(garbling.tables, rows=b"".join(rows))


def _parent_pad(material: bytes, length: int) -> bytes:
    pad = hashlib.sha256(material).digest()
    for counter in range(1, -(-length // 32)):
        pad += hashlib.sha256(material + counter.to_bytes(4, "big")).digest()
    return pad[:length]


def _parent_extend_sender(columns, stream, s_bits, start, message_pairs, length, _domain):
    """7cb42f0's pooled sender step: ``sha256(label_i ‖ row ‖ b)`` pads."""
    count = len(message_pairs)
    s_row = np.frombuffer(bits_to_bytes(s_bits), dtype=np.uint8)
    rows0 = stream.rows(start, count) ^ (ot._row_block(b"".join(columns), count) & s_row)
    encrypted = []
    for i, (m0, m1) in enumerate(message_pairs):
        label = b"iknp-pool-pad" + (start + i).to_bytes(8, "big")
        row0, row1 = rows0[i].tobytes(), (rows0[i] ^ s_row).tobytes()
        encrypted.append(
            (
                xor_bytes(_parent_pad(label + row0 + b"0", length), m0),
                xor_bytes(_parent_pad(label + row1 + b"1", length), m1),
            )
        )
    return tuple(encrypted)


def _parent_decrypt_chosen(t_rows, choices, pairs, _domain, start):
    """7cb42f0's pooled receiver step."""
    plain = []
    for i, (pair, choice) in enumerate(zip(pairs, choices)):
        label = b"iknp-pool-pad" + (start + i).to_bytes(8, "big")
        material = label + t_rows[i].tobytes() + (b"0", b"1")[choice]
        plain.append(xor_bytes(_parent_pad(material, len(pair[choice])), pair[choice]))
    return plain


def test_the_parent_derivations_kept_here_are_that_commits():
    """Fed this build's labels and rows, the copies reproduce 7cb42f0's pins."""
    circuit = SpamCircuit.build(32).circuit
    parent_tables = _parent_rows(circuit, garble(circuit, seed=b"symmetric-floor-pin")).to_bytes()
    assert _digest(parent_tables) == "e3e02ab37ab5704759432dd7fc7d153252429422f829c66b16ac103b4136a921"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ot, "_extend_sender", _parent_extend_sender)
        patch.setattr(ot, "_decrypt_chosen", _parent_decrypt_chosen)
        columns_frame, pairs_frame, received, expected = _pooled_exchange(_pinned_pool(), 13)
    assert received == expected
    assert _digest(WireCodec().encode(pairs_frame)) == (
        "6be440b673c648321048470f78a6aa122d44ed52f8d4a62c4307f6e74ea002ef"
    )


@pytest.mark.parametrize(
    "build", [lambda: SpamCircuit.build(28), lambda: TopicCircuit.build(27, 10, 8)], ids=["spam", "topic"]
)
def test_parent_rows_abort_this_evaluator(build):
    """Well-formed tables of the parent's rows: evaluation yields labels that decode to nothing."""
    circuit = build().circuit
    garbling = garble(circuit, seed=b"mixed-build")
    parent_tables = GarbledTables.from_bytes(_parent_rows(circuit, garbling).to_bytes())
    stream = Prg(b"mixed-build", domain=b"pin-inputs")
    garbler_labels = garbling.input_labels(
        circuit.garbler_inputs, stream.read_bits(len(circuit.garbler_inputs))
    )
    evaluator_labels = garbling.input_labels(
        circuit.evaluator_inputs, stream.read_bits(len(circuit.evaluator_inputs))
    )
    outputs = evaluate(circuit, parent_tables, garbler_labels, evaluator_labels)
    with pytest.raises(ProtocolAbort, match="does not decode"):
        decode_outputs(circuit, parent_tables, outputs)
    # This build's own tables decode the same labels.
    outputs = evaluate(circuit, garbling.tables, garbler_labels, evaluator_labels)
    assert len(decode_outputs(circuit, garbling.tables, outputs)) == len(circuit.outputs)


@pytest.mark.parametrize("parent_side", ["sender", "receiver"])
def test_a_peer_on_the_parent_pads_aborts_a_yao_round(parent_side, monkeypatch):
    if parent_side == "sender":
        monkeypatch.setattr(ot, "_extend_sender", _parent_extend_sender)
    else:
        monkeypatch.setattr(ot, "_decrypt_chosen", _parent_decrypt_chosen)
    circuit = SpamCircuit.build(28).circuit
    inputs = (int_to_bits(1500, 28), int_to_bits(700, 28))
    # The OT hands the evaluator labels that are neither of a wire's two.
    with pytest.raises(ProtocolAbort, match="does not decode"):
        _run_spam_yao(circuit, circuit, _pinned_pool(), inputs, inputs)
    monkeypatch.undo()
    assert _run_spam_yao(circuit, circuit, _pinned_pool(), inputs, inputs) in ([0], [1])


@pytest.mark.parametrize("length", [1, 16, 32, 33, 70])
def test_prf_is_hmac_in_counter_mode(length):
    blocks = [
        hmac.new(b"key", b"tag" + counter.to_bytes(4, "big"), hashlib.sha256).digest()
        for counter in range(3)
    ]
    assert prf(b"key", b"tag", length) == b"".join(blocks)[:length]


def test_xor_bytes_still_refuses_unequal_lengths():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    assert xor_bytes(b"", b"") == b""
    with pytest.raises(ParameterError):
        xor_bytes(b"\x00" * 16, b"\x00" * 15)


def test_a_built_circuit_is_immutable_and_counts_its_gates_once():
    circuit = SpamCircuit.build(8).circuit
    assert isinstance(circuit.gates, tuple)
    assert circuit.plan is circuit.plan
    assert circuit.and_count == sum(1 for gate in circuit.gates if gate.kind.value == "and")
    assert circuit.xor_count == sum(1 for gate in circuit.gates if gate.kind.value == "xor")


# ---------------------------------------------------------------------------
# The stacked combining NTT
# ---------------------------------------------------------------------------
def test_stacked_combining_ntt_matches_the_generic_chain(bv_scheme, bv_keys):
    """A 10-ciphertext leftover stack: batched result vs ``_dot_products_generic``,
    ``c1`` in full and ``c0`` on the output region, the one run it computes."""
    rng = np.random.default_rng(12)
    slots = bv_scheme.num_slots
    columns = 2
    rows = 10 * (slots // columns)  # exactly ten across-row leftover ciphertexts
    matrix = [[int(value) for value in row] for row in rng.integers(0, 1000, size=(rows, columns))]
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    assert model.leftover is not None and len(model.leftover.ciphertexts) == 10
    picked = sorted(rng.choice(rows - 1, size=60, replace=False).tolist())
    features = [(row, int(rng.integers(1, 16))) for row in picked] + [(rows - 1, 1)]

    result = model._dot_products_batched(features)
    batched = result.leftover_result.payload
    generic = model._dot_products_generic(features).leftover_result.payload
    assert batched.run == (slots - columns, columns)
    assert np.array_equal(batched.c1.spectra, generic.c1.spectra)
    assert np.array_equal(batched.c0, generic.c0.residues[:, slots - columns :])
    expected = [
        sum(matrix[row][column] * frequency for row, frequency in features)
        for column in range(columns)
    ]
    assert decrypt_dot_products(bv_scheme, bv_keys, result) == expected
