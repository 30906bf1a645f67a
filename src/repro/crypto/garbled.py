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

:func:`garble` works in three passes over the circuit's cached
:class:`~repro.crypto.circuits.GatePlan`, none of them per-gate objects:

1. *Labels.*  Every AND output takes a fresh label, so one Python pass over
   the XOR and NOT gates assigns every other 0-label, in a list indexed by
   wire.  Nothing is hashed here.
2. *One hash sweep.*  All ``4·ANDs`` gate-hash inputs ``tag ‖ A ‖ B ‖ index``
   are written into one numpy block and hashed in a single ``sha256`` loop
   over a memoryview of it.
3. *One block.*  The pads encrypt the output labels and the rows are put in
   colour order with array ops: the garbled circuit is one ``bytes`` of 64
   bytes per AND gate, in gate order.

:class:`GarbledTables` is that block plus the AND positions and the output
decode digests, and its wire form is unchanged: a ``>u4`` count, then per
AND gate its ``>u4`` position and four rows, then the decode digests.  The
codec is one structured-dtype copy each way, and the decoder refuses
positions that are not strictly increasing, so decode and encode are inverse
bijections.  :func:`evaluate` reads row ``64·ordinal + 16·colour`` straight
from the block, and refuses — before it hashes anything — tables whose
positions are not the circuit's AND positions or whose block is not four
rows per AND.  :func:`decode_outputs` refuses a decode table that does not
have one digest pair per output.

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
from repro.crypto.hashes import sha256
from repro.exceptions import CircuitError, ParameterError, ProtocolAbort, WireFormatError
from repro.utils.rand import secure_bytes
from repro.utils.serialization import ByteReader

LABEL_BYTES = 16
GATE_ROWS_BYTES = 4 * LABEL_BYTES  # one AND gate's four rows in the block

_GATE_TAG = b"garble-gate"
_HASH_INPUT = len(_GATE_TAG) + 2 * LABEL_BYTES + 4  # tag ‖ label_a ‖ label_b ‖ index
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

    @property
    def wire_zero_labels(self) -> dict[int, bytes]:
        return {
            wire: label.to_bytes(LABEL_BYTES, "big") for wire, label in enumerate(self.zero_labels)
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

    # 2. One hash sweep over every gate-hash input.  Input value pair
    # (va, vb) is hash k = 2·va + vb of its gate: label_a = a0 ^ va·R.
    labels = b"".join([zero[wire].to_bytes(size, "big") for wire in plan.and_inputs])
    a0, b0 = np.frombuffer(labels, np.uint8).reshape(2, ands, size)
    r = np.frombuffer(offset.to_bytes(size, "big"), np.uint8)
    block = np.empty((ands, 4, _HASH_INPUT), np.uint8)
    block[:, :, : len(_GATE_TAG)] = np.frombuffer(_GATE_TAG, np.uint8)
    a_field = block[:, :, len(_GATE_TAG) : len(_GATE_TAG) + size]
    b_field = block[:, :, len(_GATE_TAG) + size : -4]
    a_field[:, :2], a_field[:, 2:] = a0[:, None], (a0 ^ r)[:, None]
    b_field[:, 0::2], b_field[:, 1::2] = b0[:, None], (b0 ^ r)[:, None]
    block[:, :, -4:] = plan.and_index_block[:, None]
    view, sha = memoryview(block.reshape(-1)), hashlib.sha256
    digests = b"".join(
        [sha(view[at : at + _HASH_INPUT]).digest() for at in range(0, len(view), _HASH_INPUT)]
    )

    # 3. One block: row k encrypts the output's 0-label, except k = 3 (1 AND 1)
    # the 1-label, under the top half of its digest.  Flipping an input value
    # flips its colour, so hash k lands on row ``first ^ k`` and the four rows
    # of a gate never collide.
    out0 = np.frombuffer(stream, np.uint8, offset=size * (1 + len(inputs))).reshape(ands, size)
    encrypted = np.frombuffer(digests, np.uint8).reshape(ands, 4, 32)[:, :, :size] ^ out0[:, None]
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
    as_int, sha, tag, size = int.from_bytes, hashlib.sha256, _GATE_TAG, LABEL_BYTES
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
            # tag ‖ label_a ‖ label_b ‖ position as one 36-byte integer.
            pad = sha(tag + ((label_a << 160) | (label_b << 32) | position).to_bytes(36, "big"))
            at = gate_at + (((label_a & 1) << 5) | ((label_b & 1) << 4))
            active[wire_out] = as_int(pad.digest()[:size], "big") ^ as_int(rows[at : at + size], "big")
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
