"""Bit-identity pins, properties and refusals for the symmetric hot path.

The integer-label garbler/evaluator, the bit-matrix IKNP transpose and the
stacked combining NTT must produce *the same bytes* as the per-byte code they
replaced.  The digests below were produced by that code (the commit before the
rewrite) with the recipes in this file, so they pin the rewrite without
keeping a second implementation in ``src/``.
"""

import hashlib
import hmac

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import ot
from repro.crypto.circuits import CircuitBuilder, SpamCircuit, TopicCircuit
from repro.crypto.garbled import GarbledGate, GarbledTables, evaluate, garble
from repro.crypto.packing import PackedLinearModel, decrypt_dot_products
from repro.crypto.prg import Prg, prf, stretch
from repro.exceptions import OTError, ParameterError, ProtocolAbort
from repro.twopc.wire import WireCodec
from repro.utils.bitops import xor_bytes


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
        "tables": "25478c10ba68af9285fd020a09cf8a6badcb33b74a81026ba408399749a0fbff",
        "zero_labels": "1be69c7cff6b989a7ce225ac7a899f30d9e4696ecbdb59efa904f42ef2c29ae6",
        "offset": "61afd41770d3e162fded5f42a1354b9d6e614a3e1e2b0c1f158fe59c971fda00",
        "outputs": "5c16f30e2739bff0feece8fb9c5bd7498989bb159b17e003e16b06b8533917b4",
    },
    "topic32x10x8": {
        "tables": "e6007f5cc74061883638de1ad069482d8d066706ea35025cdb9e417b03f87c32",
        "zero_labels": "9b2c253bca92343bc633e7d911d099b29adf2c5886458e815966aa856145b40d",
        "offset": "61afd41770d3e162fded5f42a1354b9d6e614a3e1e2b0c1f158fe59c971fda00",
        "outputs": "1465313e91b0d3ae730202497b93be62ccf02847fb50d88e905c4bb60144a913",
    },
}


@pytest.mark.parametrize("name", sorted(GARBLING_PINS))
def test_garbling_bytes_match_the_per_byte_garbler(name):
    circuit = {
        "spam32": lambda: SpamCircuit.build(32),
        "topic32x10x8": lambda: TopicCircuit.build(32, 10, 8),
    }[name]().circuit
    assert _garbling_digests(circuit, seed=b"symmetric-floor-pin") == GARBLING_PINS[name]


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
        "bbaaefc1756e35ab4b56cdff99f1486592fa39cffe660bc3a59557954771e120",
        "4e6ede5c341f2d920a2d2d8237a985abadd27c556431cdb40aafa0f201050da6",
    ),
    64: (
        "d19937c679b0a3bad0d886106b9798b11758f49c856d111578778cd60a69d72c",
        "ed2a32212a99127b50feb2f2017419c24fb8434544935bb26aad8ecbfdc19da1",
    ),
    320: (
        "7013c0301a2bae501038c3fd229ba72d15f9aa527297ff941c20d7e2e8f4dd95",
        "920bb645e4604eecbec90491902fc5680c1c70f327d9494ee616fa98a336e689",
    ),
}


def test_pooled_iknp_frames_match_the_per_bit_transpose():
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
    "0ae93a3bb5f1c3eba28a3890162e8105b97878534f0b13a7f9d579f3f73a5f79",
    "1951d1cbac2fd0b6b4b7d9f67b3eb61bcb9dc0db0aa4b9e126266a33cfae1f10",
)


def test_one_shot_iknp_frames_match_the_per_bit_transpose(dh_group, monkeypatch):
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
    (position,) = tables.and_gates
    short = GarbledTables(
        and_gates={position: GarbledGate(position, [row[:-1] for row in tables.and_gates[position].rows])},
        output_decode=tables.output_decode,
    )
    with pytest.raises(ProtocolAbort):
        evaluate(circuit, short, garbler_labels, evaluator_labels)
    three_rows = GarbledTables(
        and_gates={position: GarbledGate(position, tables.and_gates[position].rows[:3])},
        output_decode=tables.output_decode,
    )
    with pytest.raises(ProtocolAbort):
        evaluate(circuit, three_rows, garbler_labels, evaluator_labels)
    with pytest.raises(ProtocolAbort):
        evaluate(circuit, GarbledTables({}, tables.output_decode), garbler_labels, evaluator_labels)


@pytest.mark.parametrize("length", [0, 1, 16, 32, 33, 100])
def test_stretch_is_the_head_of_the_prg_stream(length):
    assert stretch(b"seed", b"domain", length) == Prg(b"seed", domain=b"domain").read(length)
    with pytest.raises(ParameterError):
        stretch(b"", b"domain", length)


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
    """A 10-ciphertext leftover stack: batched result vs ``_dot_products_generic``."""
    rng = np.random.default_rng(12)
    slots = bv_scheme.num_slots
    columns = 2
    rows = 10 * (slots // columns)  # exactly ten across-row leftover ciphertexts
    matrix = [[int(value) for value in row] for row in rng.integers(0, 1000, size=(rows, columns))]
    model = PackedLinearModel.encrypt(bv_scheme, bv_keys.public, matrix, across_rows=True)
    assert model.leftover is not None and len(model.leftover.ciphertexts) == 10
    picked = sorted(rng.choice(rows - 1, size=60, replace=False).tolist())
    features = [(row, int(rng.integers(1, 16))) for row in picked] + [(rows - 1, 1)]

    batched = model._dot_products_batched(features)
    generic = model._dot_products_generic(features)
    assert np.array_equal(
        batched.leftover_result.payload.c0.spectra, generic.leftover_result.payload.c0.spectra
    )
    assert np.array_equal(
        batched.leftover_result.payload.c1.spectra, generic.leftover_result.payload.c1.spectra
    )
    expected = [
        sum(matrix[row][column] * frequency for row, frequency in features)
        for column in range(columns)
    ]
    assert decrypt_dot_products(bv_scheme, bv_keys, batched) == expected
