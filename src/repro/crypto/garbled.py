"""Garbled-circuit construction and evaluation (Yao's protocol core, §3.2).

Classic point-and-permute garbling with the free-XOR optimisation:

* every wire ``w`` has two 16-byte labels; the label for value 1 is always
  ``label0 XOR R`` for a circuit-global offset ``R`` whose lowest bit is 1, so
  the lowest bit of a label doubles as the permute (colour) bit;
* XOR gates are free (output label = XOR of input labels);
* NOT gates are free (the output's 0-label is the input's 1-label);
* AND gates carry a four-row garbled table; each row encrypts the correct
  output label under ``H(label_a, label_b, gate_index)`` and rows are ordered
  by the inputs' colour bits, so the evaluator decrypts exactly one row
  without learning anything about the plaintext values.

A seeded garbling draws every fresh label — the offset ``R``, one 0-label per
input wire, one per AND output, in that order — from one sequential read of
``SHAKE-256("garble-labels" || seed)``: a single XOF call per email, and the
seed alone reproduces every label and table bit-identically, which is what a
garbler session snapshots.

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

from repro.crypto.circuits import PLAN_AND, PLAN_XOR, Circuit
from repro.crypto.hashes import sha256
from repro.exceptions import CircuitError, ParameterError, ProtocolAbort, WireFormatError
from repro.utils.rand import secure_bytes
from repro.utils.serialization import ByteReader

LABEL_BYTES = 16

_GATE_TAG = b"garble-gate"
_GATE_RECORD = struct.Struct(">I16s16s16s16s")  # gate position + the four rows
_U32 = struct.Struct(">I")
_FOUR_LABELS = [LABEL_BYTES] * 4


@dataclass
class GarbledGate:
    """Four-row encrypted truth table for an AND gate (rows indexed by colours)."""

    gate_index: int
    rows: list[bytes]  # 4 entries of LABEL_BYTES bytes


@dataclass
class GarbledTables:
    """Everything the evaluator needs apart from input labels."""

    and_gates: dict[int, GarbledGate]  # keyed by position in circuit.gates
    output_decode: list[tuple[bytes, bytes]]  # per output wire: (hash of 0-label, hash of 1-label)

    def size_bytes(self) -> int:
        return (4 * len(self.and_gates) + 2 * len(self.output_decode)) * LABEL_BYTES

    # -- wire codec (the garbled-tables message of Yao's protocol) ------------
    def to_bytes(self) -> bytes:
        """Exact wire encoding: gate positions + rows, then the decode digests."""
        parts = [_U32.pack(len(self.and_gates))]
        for position in sorted(self.and_gates):
            rows = self.and_gates[position].rows
            # struct would silently pad or cut a mis-sized row: check first.
            if [len(row) for row in rows] != _FOUR_LABELS:
                raise CircuitError("garbled AND gate must carry four label-sized rows")
            parts.append(_GATE_RECORD.pack(position, *rows))
        parts.append(_U32.pack(len(self.output_decode)))
        for digest0, digest1 in self.output_decode:
            if len(digest0) != LABEL_BYTES or len(digest1) != LABEL_BYTES:
                raise CircuitError("output decode digests must be label-sized")
            parts += (digest0, digest1)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "GarbledTables":
        reader = ByteReader(data)
        and_gates: dict[int, GarbledGate] = {}
        records = reader.raw(_GATE_RECORD.size * reader.u32())
        for position, *rows in _GATE_RECORD.iter_unpack(records):
            if position in and_gates:
                raise WireFormatError(f"duplicate garbled gate at position {position}")
            and_gates[position] = GarbledGate(gate_index=position, rows=rows)
        digests = reader.records(2 * reader.u32(), LABEL_BYTES)
        reader.expect_end()
        return cls(and_gates=and_gates, output_decode=list(zip(digests[::2], digests[1::2])))


@dataclass
class GarblingResult:
    """Garbler-side result: tables to send plus the secret label assignments.

    Labels live as 128-bit integers (the big-endian value of the 16 wire
    bytes, so the colour bit is ``& 1``); the accessors below are the only
    place they turn back into bytes.
    """

    tables: GarbledTables
    zero_labels: dict[int, int]  # wire -> its 0-label
    offset: int  # the free-XOR offset R (lowest bit set)

    @property
    def wire_zero_labels(self) -> dict[int, bytes]:
        return {
            wire: label.to_bytes(LABEL_BYTES, "big") for wire, label in self.zero_labels.items()
        }

    @property
    def free_xor_offset(self) -> bytes:
        return self.offset.to_bytes(LABEL_BYTES, "big")

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


def garble(circuit: Circuit, seed: bytes | None = None) -> GarblingResult:
    """Garble *circuit*; deterministic given *seed*.

    A garbler session draws one secret PRG seed and garbles from it, so its
    snapshot needs only the seed to reproduce every label and table
    bit-identically on restore; ``None`` draws fresh system randomness.
    """
    plan = circuit.plan
    inputs = circuit.garbler_inputs + circuit.evaluator_inputs
    # One label each for the offset, every input wire and every AND output,
    # consumed in that order from one sequential read.
    length = LABEL_BYTES * (1 + len(inputs) + plan.and_count)
    if seed is None:
        stream = secure_bytes(length)
    elif not seed:
        raise ParameterError("garbling seed must be non-empty")
    else:
        stream = hashlib.shake_256(b"garble-labels" + seed).digest(length)
    as_int, sha, tag, size = int.from_bytes, hashlib.sha256, _GATE_TAG, LABEL_BYTES
    fresh = iter([as_int(stream[at : at + size], "big") for at in range(0, length, size)])
    offset = next(fresh) | 1  # ensure the colour bits of a 0/1 label pair differ
    zero = {wire: next(fresh) for wire in inputs}

    def row(left: bytes, right: bytes, out_label: int) -> bytes:
        """Encrypt *out_label* under the pad H(left || right), the digest's top half."""
        pad = as_int(sha(left + right).digest(), "big") >> 128
        return (pad ^ out_label).to_bytes(size, "big")

    and_gates: dict[int, GarbledGate] = {}
    for position, (kind, wire_a, wire_b, wire_out, index) in enumerate(plan.steps):
        if kind == PLAN_XOR:
            zero[wire_out] = zero[wire_a] ^ zero[wire_b]
        elif kind != PLAN_AND:
            # NOT: the output 0-label is the input 1-label; evaluation passes
            # the active label through unchanged.
            zero[wire_out] = zero[wire_a] ^ offset
        else:
            a0, b0 = zero[wire_a], zero[wire_b]
            out0 = zero[wire_out] = next(fresh)
            # The two halves of a gate-hash input: tag + label_a, label_b + index.
            left0 = tag + a0.to_bytes(size, "big")
            left1 = tag + (a0 ^ offset).to_bytes(size, "big")
            right0 = b0.to_bytes(size, "big") + index
            right1 = (b0 ^ offset).to_bytes(size, "big") + index
            # Rows are ordered by the inputs' colour bits; flipping an input
            # value flips its colour, so value pair (va, vb) lands on row
            # ``first ^ (2·va + vb)`` and the four rows never collide.
            first = ((a0 & 1) << 1) | (b0 & 1)
            rows = [b""] * 4
            rows[first] = row(left0, right0, out0)
            rows[first ^ 1] = row(left0, right1, out0)
            rows[first ^ 2] = row(left1, right0, out0)
            rows[first ^ 3] = row(left1, right1, out0 ^ offset)
            and_gates[position] = GarbledGate(gate_index=position, rows=rows)

    output_decode = []
    for wire in circuit.outputs:
        label = zero[wire]
        output_decode.append(
            (
                _output_digest(label.to_bytes(LABEL_BYTES, "big"), wire),
                _output_digest((label ^ offset).to_bytes(LABEL_BYTES, "big"), wire),
            )
        )
    tables = GarbledTables(and_gates=and_gates, output_decode=output_decode)
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
    as_int, sha, tag, size = int.from_bytes, hashlib.sha256, _GATE_TAG, LABEL_BYTES
    active: dict[int, int] = {}
    for wire, label in zip(
        circuit.garbler_inputs + circuit.evaluator_inputs,
        list(garbler_input_labels) + list(evaluator_input_labels),
    ):
        if len(label) != LABEL_BYTES:
            raise ProtocolAbort(f"input label for wire {wire} is not {LABEL_BYTES} bytes")
        active[wire] = as_int(label, "big")
    and_gates = tables.and_gates
    for position, (kind, wire_a, wire_b, wire_out, index) in enumerate(circuit.plan.steps):
        if kind == PLAN_XOR:
            active[wire_out] = active[wire_a] ^ active[wire_b]
        elif kind != PLAN_AND:
            active[wire_out] = active[wire_a]
        else:
            garbled = and_gates.get(position)
            if garbled is None:
                raise ProtocolAbort(f"missing garbled table for AND gate at position {position}")
            label_a, label_b = active[wire_a], active[wire_b]
            rows = garbled.rows
            if len(rows) != 4 or len(row := rows[((label_a & 1) << 1) | (label_b & 1)]) != size:
                raise ProtocolAbort(f"malformed garbled table for AND gate at position {position}")
            pad = sha(tag + label_a.to_bytes(size, "big") + label_b.to_bytes(size, "big") + index)
            active[wire_out] = (as_int(pad.digest(), "big") >> 128) ^ as_int(row, "big")
    return [active[wire].to_bytes(LABEL_BYTES, "big") for wire in circuit.outputs]


def decode_outputs(circuit: Circuit, tables: GarbledTables, output_labels: list[bytes]) -> list[int]:
    """Map output labels to cleartext bits using the decode table.

    Raises :class:`ProtocolAbort` if a label matches neither digest — which is
    what happens if the evaluator tampered with the evaluation or the garbler
    sent inconsistent tables.
    """
    if len(output_labels) != len(circuit.outputs):
        raise ProtocolAbort("wrong number of output labels to decode")
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
