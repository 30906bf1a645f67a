"""Garbled-circuit construction and evaluation (Yao's protocol core, §3.2).

Classic point-and-permute garbling with the free-XOR optimisation:

* every wire ``w`` has two 16-byte labels; the label for value 1 is always
  ``label0 XOR R`` for a circuit-global offset ``R`` whose lowest bit is 1, so
  the lowest bit of a label doubles as the permute (colour) bit;
* XOR gates are free (output label = XOR of input labels);
* NOT gates are free (the output's 0-label is the input's 1-label);
* AND gates carry a four-row garbled table; each row encrypts the correct
  output label under the pad of its input labels, and rows are ordered by
  the inputs' colour bits, so the evaluator decrypts exactly one row without
  learning anything about the plaintext values.  Every AND output takes a
  fresh label.

*The gate hash* is the fixed-key-blockcipher construction of
Bellare–Hoang–Keelveedhi–Rogaway ("Efficient garbling from a fixed-key
blockcipher", S&P 2013) in the tweakable form of Guo–Katz–Wang–Yu
("Efficient and secure multiparty computation from fixed-key block ciphers",
S&P 2020).  The row of input labels ``A``, ``B`` at the gate in position
``p`` has the key ``K = 2·A ⊕ 4·B ⊕ T`` and the pad ``π(K) ⊕ K``, where

* ``π`` is AES-128 under a public, fixed key
  (:func:`repro.crypto.hashes.fixed_key_permutation`);
* doubling is multiplication by ``x`` in GF(2¹²⁸) modulo
  ``x¹²⁸ + x⁷ + x² + x + 1``, a label's big-endian value read as the
  polynomial (bit ``i`` is the coefficient of ``xⁱ``);
* ``T`` is the tweak ``"garble-gate" ‖ 0x00 ‖ p`` (``p`` a big-endian u32):
  it binds the row to its gate, the way an IKNP pad's tweak binds the pad to
  its transfer (:mod:`repro.crypto.ot`).

Its security is argued with ``π`` an ideal (random) permutation whose key
everyone knows; a fixed key must never be mistaken for a secret one.
Free-XOR needs more of the hash than correlation robustness: the pad of a
row is XORed with labels that are themselves offset by ``R``, so the hash
must be *circular* correlation robust, which ``π(K) ⊕ K`` on keys of this
linear form is, in that model.  Guo et al. also point out that the bound is
multi-instance: an adversary facing many garblings under the one public key
gains with the total number of ``π`` calls across all of them (and with its
own offline ``π`` queries), so a large deployment should budget for every
email of every user at once — or draw the key per session.

A seeded garbling draws every fresh label — the offset ``R``, one 0-label per
input wire, one per AND output, in that order — from one sequential read of
``SHAKE-256("garble-labels" || seed)``: a single XOF call per email, and the
seed alone reproduces every label and table bit-identically, which is what a
garbler session snapshots.

:func:`garble` works in three passes over the circuit's cached
:class:`~repro.crypto.circuits.GatePlan`, none of them per-gate objects:

1. *Labels.*  Every AND output takes a fresh label, so one Python pass over
   the XOR and NOT gates assigns every other 0-label, in a list indexed by
   wire.  Nothing is hashed here.
2. *One π sweep.*  With free-XOR the four keys of a gate are
   ``K₀₀ ⊕ {0, 4R, 2R, 6R}``, so every gate's ``K₀₀`` is a few numpy ops on
   its input 0-labels, and the ``4·ANDs`` pads are one ``update`` call of
   the permutation.
3. *One block.*  The pads encrypt the output labels and the rows are put in
   colour order with array ops: the garbled circuit is one ``bytes`` of 64
   bytes per AND gate, in gate order.

The evaluator computes one key per AND — the two doublings as shifts plus a
four-entry reduction table on the bits shifted out — and one ``π`` block.

:class:`GarbledTables` is that block plus the AND positions and the output
decode digests, and its wire form is unchanged: a ``>u4`` count, then per
AND gate its ``>u4`` position and four rows, then the decode digests.  The
codec is one structured-dtype copy each way, and the decoder refuses
positions that are not strictly increasing, so decode and encode are inverse
bijections.  :func:`evaluate` reads row ``64·ordinal + 16·colour`` straight
from the block, and refuses — before it computes any pad — tables whose
positions are not the circuit's AND positions or whose block is not four
rows per AND.  :func:`decode_outputs` refuses a decode table that does not
have one digest pair per output; the decode digests stay SHA-256.

The paper's prototype uses Obliv-C with an actively-secure variant [71, 77];
here we implement the standard passively-secure construction plus the
correctness checks a malicious evaluator/garbler would be caught by at the
protocol layer (output-label authentication), which is the level of fidelity
the cost model needs.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from repro.crypto.circuits import PLAN_AND, PLAN_XOR, Circuit
from repro.crypto.hashes import fixed_key_permutation, sha256
from repro.exceptions import CircuitError, ParameterError, ProtocolAbort, WireFormatError
from repro.utils.rand import secure_bytes
from repro.utils.serialization import ByteReader

LABEL_BYTES = 16
GATE_ROWS_BYTES = 4 * LABEL_BYTES  # one AND gate's four rows in the block

# The gate tweak T = "garble-gate" ‖ 0x00 ‖ position, positions being u32.
_GATE_TWEAK = int.from_bytes(b"garble-gate\x00", "big") << 32
_MASK = (1 << 128) - 1
_POLY = 0x87  # x^128 = x^7 + x^2 + x + 1
# 2·A ⊕ 4·B as one shifted value: bit 128 (A's top bit ⊕ B's second) reduces
# to 0x87, bit 129 (B's top bit) to 0x87 · x = 0x10E.
_REDUCE = (0, _POLY, _POLY << 1, _POLY ^ (_POLY << 1))
# The garbler's vectorised form of the same: uint64 (high, low) words.
_LOW_MASK = (1 << 64) - 1
_REDUCE_WORDS = np.array(_REDUCE, dtype=np.uint64)
_TWEAK_HIGH, _TWEAK_LOW = np.uint64(_GATE_TWEAK >> 64), np.uint64(_GATE_TWEAK & _LOW_MASK)
_RECORD = np.dtype([("position", ">u4"), ("rows", f"V{GATE_ROWS_BYTES}")])
_U32 = struct.Struct(">I")
_U32_LIMIT = 1 << 32


def _strictly_increasing(positions: np.ndarray) -> bool:
    return bool((positions[1:] > positions[:-1]).all())


@dataclass
class GarbledTables:
    """Everything the evaluator needs apart from input labels.

    ``rows`` holds four rows (64 bytes) per AND gate, in the order of
    ``positions``, the gates' positions in ``circuit.gates``.
    """

    positions: tuple[int, ...]
    rows: bytes
    output_decode: list[tuple[bytes, bytes]]  # per output wire: (hash of 0-label, hash of 1-label)

    def size_bytes(self) -> int:
        return len(self.rows) + 2 * LABEL_BYTES * len(self.output_decode)

    # -- wire codec (the garbled-tables message of Yao's protocol) ------------
    def to_bytes(self) -> bytes:
        """Exact wire encoding: gate positions + rows, then the decode digests."""
        count = len(self.positions)
        if len(self.rows) != GATE_ROWS_BYTES * count:
            raise CircuitError("garbled row block must carry four label-sized rows per AND gate")
        if count and not 0 <= min(self.positions) <= max(self.positions) < _U32_LIMIT:
            raise CircuitError("garbled gate positions must fit an unsigned 32-bit field")
        records = np.empty(count, _RECORD)
        records["position"] = self.positions
        if not _strictly_increasing(records["position"]):
            raise CircuitError("garbled gate positions must be strictly increasing")
        records["rows"] = np.frombuffer(self.rows, _RECORD["rows"])
        if any(len(digest) != LABEL_BYTES for pair in self.output_decode for digest in pair):
            raise CircuitError("output decode digests must be label-sized")
        return b"".join(
            [
                _U32.pack(count),
                records.tobytes(),
                _U32.pack(len(self.output_decode)),
                *(digest for pair in self.output_decode for digest in pair),
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "GarbledTables":
        reader = ByteReader(data)
        count = reader.u32()
        records = np.frombuffer(reader.raw(_RECORD.itemsize * count), _RECORD)
        if not _strictly_increasing(records["position"]):
            raise WireFormatError("garbled gate positions are not strictly increasing")
        digests = reader.records(2 * reader.u32(), LABEL_BYTES)
        reader.expect_end()
        return cls(
            positions=tuple(records["position"].tolist()),
            rows=records["rows"].tobytes(),
            output_decode=list(zip(digests[::2], digests[1::2])),
        )


@dataclass
class GarblingResult:
    """Garbler-side result: tables to send plus the secret label assignments.

    Labels live as 128-bit integers (the big-endian value of the 16 wire
    bytes, so the colour bit is ``& 1``), one per wire in wire order; the
    accessors below are the only place they turn back into bytes.
    """

    tables: GarbledTables
    zero_labels: list[int]  # wire -> its 0-label
    offset: int  # the free-XOR offset R (lowest bit set)

    def labels_for(self, wire: int, value: int) -> bytes:
        zero = self.zero_labels[wire]
        return (zero if value == 0 else zero ^ self.offset).to_bytes(LABEL_BYTES, "big")

    def input_labels(self, wires: list[int], bits: list[int]) -> list[bytes]:
        if len(wires) != len(bits):
            raise CircuitError("wire/bit count mismatch when selecting input labels")
        return [self.labels_for(wire, bit) for wire, bit in zip(wires, bits)]

    def label_pairs(self, wires: list[int]) -> list[tuple[bytes, bytes]]:
        """(0-label, 1-label) pairs for the given wires — the OT sender inputs."""
        return [(self.labels_for(wire, 0), self.labels_for(wire, 1)) for wire in wires]


def _output_digest(label: bytes, wire: int) -> bytes:
    return sha256(b"garble-output", label, wire.to_bytes(4, "big"))[:LABEL_BYTES]


def _times_two(value: int) -> int:
    """``2·value`` in GF(2¹²⁸)."""
    value <<= 1
    return (value & _MASK) ^ _REDUCE[value >> 128]


def _gate_keys(a0: np.ndarray, b0: np.ndarray, positions: np.ndarray, offset: int) -> np.ndarray:
    """The four row keys ``K = 2·A ⊕ 4·B ⊕ T`` of every AND gate, ``(ANDs, 4, 16)`` bytes.

    *a0* and *b0* are the gates' input 0-labels as ``(ANDs, 16)`` big-endian
    bytes, *positions* their gate positions.  ``K₀₀`` is the evaluator's
    shifted value on ``(high, low)`` uint64 words; key ``k = 2·va + vb`` is
    that of labels ``a0 ⊕ va·R`` and ``b0 ⊕ vb·R``: ``K₀₀ ⊕ (0, 4R, 2R, 6R)[k]``.
    """
    a, b = a0.view(">u8").astype(np.uint64), b0.view(">u8").astype(np.uint64)
    one, two, top = np.uint64(1), np.uint64(2), np.uint64(63)
    shifted_out = (b[:, 0] >> np.uint64(62)) ^ (a[:, 0] >> top)  # bits 129, 128 of the sum
    high = (a[:, 0] << one) ^ (a[:, 1] >> top) ^ (b[:, 0] << two) ^ (b[:, 1] >> np.uint64(62))
    low = (a[:, 1] << one) ^ (b[:, 1] << two) ^ _REDUCE_WORDS[shifted_out]
    low ^= positions.astype(np.uint64) | _TWEAK_LOW
    twice = _times_two(offset)
    four = _times_two(twice)
    shifts = [0, four, twice, twice ^ four]
    keys = np.empty((len(a), 4, 2), ">u8")
    keys[:, :, 0] = (high ^ _TWEAK_HIGH)[:, None] ^ np.array([k >> 64 for k in shifts], np.uint64)
    keys[:, :, 1] = low[:, None] ^ np.array([k & _LOW_MASK for k in shifts], np.uint64)
    return keys.view(np.uint8).reshape(len(a), 4, LABEL_BYTES)


def garble(circuit: Circuit, seed: bytes | None = None) -> GarblingResult:
    """Garble *circuit*; deterministic given *seed*.

    A garbler session draws one secret PRG seed and garbles from it, so its
    snapshot needs only the seed to reproduce every label and table
    bit-identically on restore; ``None`` draws fresh system randomness.
    """
    plan = circuit.plan
    inputs = circuit.garbler_inputs + circuit.evaluator_inputs
    ands = plan.and_count
    # One label each for the offset, every input wire and every AND output,
    # consumed in that order from one sequential read.
    length = LABEL_BYTES * (1 + len(inputs) + ands)
    if seed is None:
        stream = secure_bytes(length)
    elif not seed:
        raise ParameterError("garbling seed must be non-empty")
    else:
        stream = hashlib.shake_256(b"garble-labels" + seed).digest(length)
    as_int, size = int.from_bytes, LABEL_BYTES
    fresh = [as_int(stream[at : at + size], "big") for at in range(0, length, size)]
    offset = fresh[0] | 1  # ensure the colour bits of a 0/1 label pair differ

    # 1. Labels: inputs and AND outputs are fresh; XOR and NOT follow from
    # them in gate order (a NOT reads the constant wire holding R).
    zero = [0] * (circuit.num_wires + 1)
    zero[-1] = offset
    for wire, label in zip(inputs + list(plan.and_outputs), fresh[1:]):
        zero[wire] = label
    for wire_a, wire_b, wire_out in plan.free_steps:
        zero[wire_out] = zero[wire_a] ^ zero[wire_b]
    zero.pop()

    # 2. One π sweep over every row key.  Input value pair (va, vb) is key
    # k = 2·va + vb of its gate: label_a = a0 ^ va·R.
    labels = b"".join([zero[wire].to_bytes(size, "big") for wire in plan.and_inputs])
    a0, b0 = np.frombuffer(labels, np.uint8).reshape(2, ands, size)
    keys = _gate_keys(a0, b0, plan.and_index_block.view(">u4")[:, 0], offset)
    pads = np.frombuffer(fixed_key_permutation()(keys.tobytes()), np.uint8).reshape(keys.shape)

    # 3. One block: row k encrypts the output's 0-label, except k = 3 (1 AND 1)
    # the 1-label, under pad π(K) ⊕ K.  Flipping an input value flips its
    # colour, so key k lands on row ``first ^ k`` and the four rows of a gate
    # never collide.
    r = np.frombuffer(offset.to_bytes(size, "big"), np.uint8)
    out0 = np.frombuffer(stream, np.uint8, offset=size * (1 + len(inputs))).reshape(ands, size)
    encrypted = pads ^ keys ^ out0[:, None]
    encrypted[:, 3] ^= r
    first = ((a0[:, -1] & 1) << 1) | (b0[:, -1] & 1)
    rows = encrypted[np.arange(ands)[:, None], first[:, None] ^ np.arange(4)]

    output_decode = [
        (
            _output_digest(zero[wire].to_bytes(size, "big"), wire),
            _output_digest((zero[wire] ^ offset).to_bytes(size, "big"), wire),
        )
        for wire in circuit.outputs
    ]
    tables = GarbledTables(
        positions=plan.and_positions, rows=rows.tobytes(), output_decode=output_decode
    )
    return GarblingResult(tables=tables, zero_labels=zero, offset=offset)


def evaluate(
    circuit: Circuit,
    tables: GarbledTables,
    garbler_input_labels: list[bytes],
    evaluator_input_labels: list[bytes],
) -> list[bytes]:
    """Evaluate a garbled circuit; returns the active labels of the output wires."""
    if len(garbler_input_labels) != len(circuit.garbler_inputs):
        raise ProtocolAbort("wrong number of garbler input labels")
    if len(evaluator_input_labels) != len(circuit.evaluator_inputs):
        raise ProtocolAbort("wrong number of evaluator input labels")
    plan, rows = circuit.plan, tables.rows
    if tuple(tables.positions) != plan.and_positions:
        raise ProtocolAbort("garbled tables are not keyed by this circuit's AND gates")
    if len(rows) != GATE_ROWS_BYTES * plan.and_count:
        raise ProtocolAbort("garbled row block is not four rows per AND gate")
    as_int, size = int.from_bytes, LABEL_BYTES
    permute, tweak, mask, reduce = fixed_key_permutation(), _GATE_TWEAK, _MASK, _REDUCE
    active = [0] * circuit.num_wires
    for wire, label in zip(
        circuit.garbler_inputs + circuit.evaluator_inputs,
        list(garbler_input_labels) + list(evaluator_input_labels),
    ):
        if len(label) != LABEL_BYTES:
            raise ProtocolAbort(f"input label for wire {wire} is not {LABEL_BYTES} bytes")
        active[wire] = as_int(label, "big")
    gate_at = 0
    for kind, wire_a, wire_b, wire_out, position in plan.steps:
        if kind == PLAN_XOR:
            active[wire_out] = active[wire_a] ^ active[wire_b]
        elif kind != PLAN_AND:
            active[wire_out] = active[wire_a]
        else:
            label_a, label_b = active[wire_a], active[wire_b]
            # K = 2·label_a ⊕ 4·label_b ⊕ T, reduced from one shifted value.
            shifted = (label_a << 1) ^ (label_b << 2)
            key = (shifted & mask) ^ reduce[shifted >> 128] ^ tweak ^ position
            pad = as_int(permute(key.to_bytes(size, "big")), "big") ^ key
            at = gate_at + (((label_a & 1) << 5) | ((label_b & 1) << 4))
            active[wire_out] = pad ^ as_int(rows[at : at + size], "big")
            gate_at += GATE_ROWS_BYTES
    return [active[wire].to_bytes(LABEL_BYTES, "big") for wire in circuit.outputs]


def decode_outputs(circuit: Circuit, tables: GarbledTables, output_labels: list[bytes]) -> list[int]:
    """Map output labels to cleartext bits using the decode table.

    Raises :class:`ProtocolAbort` if the decode table does not hold one digest
    pair per output, or if a label matches neither digest — which is what
    happens if the evaluator tampered with the evaluation or the garbler sent
    inconsistent tables.
    """
    if len(output_labels) != len(circuit.outputs):
        raise ProtocolAbort("wrong number of output labels to decode")
    if len(tables.output_decode) != len(circuit.outputs):
        raise ProtocolAbort("output decode table does not cover the circuit's outputs")
    bits = []
    for wire, label, (digest0, digest1) in zip(circuit.outputs, output_labels, tables.output_decode):
        digest = _output_digest(label, wire)
        if digest == digest0:
            bits.append(0)
        elif digest == digest1:
            bits.append(1)
        else:
            raise ProtocolAbort("output label does not decode to either truth value")
    return bits
