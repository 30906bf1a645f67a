"""Boolean circuits for the functions Pretzel evaluates inside Yao's 2PC.

Pretzel uses Yao's protocol "very selectively — just to compute several
comparisons of 32-bit numbers" (§3.2): after the secure dot products, the two
parties must (a) remove the client's blinding noise and (b) apply the final
non-linear step, which is a threshold comparison for spam filtering and an
argmax (returning the original topic index) for topic extraction (Fig. 2
step 4, Fig. 5 step 5).

This module provides a small circuit IR (XOR / AND / NOT gates over wires)
and a :class:`CircuitBuilder` with the arithmetic gadgets those two functions
need.  XOR and NOT gates are free under the free-XOR garbling optimisation, so
the AND-gate count is what a garbled email pays for (four table rows and
four fixed-key AES blocks per AND), and every gadget is the textbook one-AND-per-bit form
(Kolesnikov–Schneider; what the paper's Obliv-C back end emits):

* ``subtract_words`` is a ripple ``diff_i = a_i ^ b_i ^ c_i`` with
  ``c_0 = 0`` and the borrow ``c_{i+1} = majority(~a_i, b_i, c_i)``, where
  ``majority(a, b, c) = c ^ ((a ^ c) & (b ^ c))`` is a full adder's carry.
  It works modulo ``2^w`` and never computes the borrow out of the top bit,
  which nobody reads: ``w - 1`` ANDs.
* ``greater_than`` scans from the least significant bit with
  ``gt <- a_i ^ ((a_i ^ gt) & (b_i ^ gt))`` — ``gt`` survives an equal bit
  pair and is overwritten by ``a_i`` on an unequal one: ``w`` ANDs.
* ``mux_bit`` is ``zero ^ (select & (zero ^ one))``: one AND per bit.

AND budgets, as formulas the tests pin: :class:`SpamCircuit` of width ``w``
is one subtractor whose top bit is the output, ``w - 1`` (27 at the
protocol's ``w = b + 1 = 28``); :class:`TopicCircuit` over ``B'`` candidates
with ``k`` index bits is ``B'`` subtractors and ``B' - 1`` compare-and-select
steps of ``w + k``, all but the last also carrying the winning value forward
(``w``): ``B'(w - 1) + (B' - 1)(w + k) + (B' - 2)w`` for ``B' >= 2`` (791 at
``w = 27, B' = 10, k = 8``).

Both parties must build the *same* gate list: the garbled tables are keyed by
gate position, so a peer on different gadgets fails closed (tables whose AND
positions are not this circuit's, or an output label that decodes to neither
value, raise ``ProtocolAbort``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from repro.exceptions import CircuitError
from repro.utils.bitops import bits_to_int, int_to_bits


class GateKind(Enum):
    XOR = "xor"
    AND = "and"
    NOT = "not"


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    input_a: int
    input_b: int  # ignored for NOT gates
    output: int


# Gate kinds of a compiled plan step (small ints compare faster than enums).
PLAN_XOR, PLAN_NOT, PLAN_AND = 0, 1, 2
_PLAN_KIND = {GateKind.XOR: PLAN_XOR, GateKind.NOT: PLAN_NOT, GateKind.AND: PLAN_AND}


@dataclass(frozen=True, eq=False)
class GatePlan:
    """A circuit's gate list flattened for the garbling/evaluation loops.

    * ``steps``: one ``(kind, input_a, input_b, output, position)`` tuple per
      gate, in gate order — what the evaluator walks.
    * ``free_steps``: the XOR and NOT gates alone, as ``(input_a, input_b,
      output)``, for the garbler's label pass.  A NOT reads wire
      ``num_wires`` as its second input: a constant whose 0-label is the
      free-XOR offset, so the output's 0-label is the input's 1-label.
    * ``and_positions``: the AND gates' positions, ascending — the garbled
      table's record keys; ``and_index_block`` is the same positions as a
      read-only ``(ANDs, 4)`` block of big-endian bytes, the part of each
      gate's tweak that names it.  ``and_inputs`` is every AND's first input
      wire, then every AND's second; ``and_outputs`` their output wires.

    All of it is computed once per circuit shape, so nothing rescans the gate
    list per email.
    """

    steps: tuple[tuple[int, int, int, int, int], ...]
    free_steps: tuple[tuple[int, int, int], ...]
    and_positions: tuple[int, ...]
    and_index_block: np.ndarray
    and_inputs: tuple[int, ...]
    and_outputs: tuple[int, ...]
    xor_count: int

    @property
    def and_count(self) -> int:
        return len(self.and_positions)


@dataclass
class Circuit:
    """A gate list with designated garbler/evaluator input wires and output wires.

    A circuit is built once and never mutated afterwards (the builder hands
    over an immutable gate tuple), so the compiled :attr:`plan` and the gate
    counts are computed once and cached for the circuit's lifetime.
    """

    num_wires: int
    gates: tuple[Gate, ...]
    garbler_inputs: list[int]
    evaluator_inputs: list[int]
    outputs: list[int]

    @cached_property
    def plan(self) -> GatePlan:
        steps = tuple(
            (_PLAN_KIND[gate.kind], gate.input_a, gate.input_b, gate.output, position)
            for position, gate in enumerate(self.gates)
        )
        ands = [step for step in steps if step[0] == PLAN_AND]
        free = [
            (wire_a, wire_b if kind == PLAN_XOR else self.num_wires, wire_out)
            for kind, wire_a, wire_b, wire_out, _ in steps
            if kind != PLAN_AND
        ]
        index_block = np.array([step[4] for step in ands], dtype=">u4").view(np.uint8)
        index_block = index_block.reshape(len(ands), 4)
        index_block.setflags(write=False)
        return GatePlan(
            steps=steps,
            free_steps=tuple(free),
            and_positions=tuple(step[4] for step in ands),
            and_index_block=index_block,
            and_inputs=tuple(step[1] for step in ands) + tuple(step[2] for step in ands),
            and_outputs=tuple(step[3] for step in ands),
            xor_count=sum(1 for step in steps if step[0] == PLAN_XOR),
        )

    @property
    def and_count(self) -> int:
        return self.plan.and_count


class CircuitBuilder:
    """Incrementally builds a :class:`Circuit`.

    Inputs must be declared before any gate references them; the builder
    enforces single assignment per wire.
    """

    def __init__(self) -> None:
        self._num_wires = 0
        self._gates: list[Gate] = []
        self._garbler_inputs: list[int] = []
        self._evaluator_inputs: list[int] = []
        self._assigned: set[int] = set()

    # -- wire/input management ---------------------------------------------
    def _new_wire(self) -> int:
        wire = self._num_wires
        self._num_wires += 1
        return wire

    def garbler_input(self, width: int = 1) -> list[int]:
        """Declare *width* fresh input wires owned by the garbler."""
        wires = [self._new_wire() for _ in range(width)]
        self._garbler_inputs.extend(wires)
        self._assigned.update(wires)
        return wires

    def evaluator_input(self, width: int = 1) -> list[int]:
        """Declare *width* fresh input wires owned by the evaluator."""
        wires = [self._new_wire() for _ in range(width)]
        self._evaluator_inputs.extend(wires)
        self._assigned.update(wires)
        return wires

    # -- gates ---------------------------------------------------------------
    def _emit(self, kind: GateKind, a: int, b: int) -> int:
        for wire in (a, b):
            if wire not in self._assigned:
                raise CircuitError(f"gate reads unassigned wire {wire}")
        out = self._new_wire()
        self._gates.append(Gate(kind, a, b, out))
        self._assigned.add(out)
        return out

    def xor(self, a: int, b: int) -> int:
        return self._emit(GateKind.XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        return self._emit(GateKind.AND, a, b)

    def not_(self, a: int) -> int:
        if a not in self._assigned:
            raise CircuitError(f"gate reads unassigned wire {a}")
        out = self._new_wire()
        self._gates.append(Gate(GateKind.NOT, a, a, out))
        self._assigned.add(out)
        return out

    def mux_bit(self, select: int, when_zero: int, when_one: int) -> int:
        """Return ``when_one`` if *select* else ``when_zero`` (one AND gate)."""
        difference = self.xor(when_zero, when_one)
        gated = self.and_(select, difference)
        return self.xor(when_zero, gated)

    # -- word-level gadgets -----------------------------------------------------
    def mux_word(self, select: int, when_zero: list[int], when_one: list[int]) -> list[int]:
        if len(when_zero) != len(when_one):
            raise CircuitError("mux operands must have equal width")
        return [self.mux_bit(select, z, o) for z, o in zip(when_zero, when_one)]

    def _majority(self, a: int, b: int, c: int) -> int:
        """``c ^ ((a ^ c) & (b ^ c))``: a full adder's carry in one AND gate."""
        return self.xor(c, self.and_(self.xor(a, c), self.xor(b, c)))

    def subtract_words(self, a: list[int], b: list[int]) -> list[int]:
        """``a - b`` modulo 2^width, ``width - 1`` ANDs.

        Bit ``i`` of the result is ``a_i ^ b_i ^ c_i``; the borrow into the
        next bit is ``majority(~a_i, b_i, c_i)``, and ``c_0 = 0`` makes the
        first one a plain AND.  The borrow out of the top bit is never computed.
        """
        if len(a) != len(b):
            raise CircuitError("subtractor operands must have equal width")
        borrow: int | None = None
        result = []
        for position, (bit_a, bit_b) in enumerate(zip(a, b)):
            total = self.xor(bit_a, bit_b)
            result.append(total if borrow is None else self.xor(total, borrow))
            if position == len(a) - 1:
                break
            left = self.not_(bit_a)
            borrow = (
                self.and_(left, bit_b) if borrow is None else self._majority(left, bit_b, borrow)
            )
        return result

    def greater_than(self, a: list[int], b: list[int]) -> int:
        """Unsigned ``a > b`` (single output bit), one AND gate per bit."""
        if len(a) != len(b):
            raise CircuitError("comparator operands must have equal width")
        # Least to most significant: an equal bit pair keeps gt, an unequal
        # one replaces it with a_i — gt <- a_i ^ ((a_i ^ gt) & (b_i ^ gt)).
        gt: int | None = None
        for bit_a, bit_b in zip(a, b):
            if gt is None:
                gt = self.and_(bit_a, self.not_(bit_b))
            else:
                gt = self.xor(bit_a, self.and_(self.xor(bit_a, gt), self.xor(bit_b, gt)))
        assert gt is not None
        return gt

    def argmax(self, values: list[list[int]], payloads: list[list[int]]) -> list[int]:
        """Return the payload associated with the maximum value.

        *values* are unsigned words of equal width; *payloads* are arbitrary
        words of equal width carried alongside (the topic protocol carries the
        original topic index ``S'[j]``, Fig. 5 step 5).  Ties resolve to the
        earliest entry, matching ``numpy.argmax`` semantics used by the
        plaintext classifiers.
        """
        if not values or len(values) != len(payloads):
            raise CircuitError("argmax needs matching non-empty value/payload lists")
        best_value = values[0]
        best_payload = payloads[0]
        last = len(values) - 1
        for position in range(1, len(values)):
            is_greater = self.greater_than(values[position], best_value)
            if position < last:  # the last winner's value is never read
                best_value = self.mux_word(is_greater, best_value, values[position])
            best_payload = self.mux_word(is_greater, best_payload, payloads[position])
        return best_payload

    # -- finalisation -------------------------------------------------------------
    def build(self, outputs: list[int]) -> Circuit:
        for wire in outputs:
            if wire not in self._assigned:
                raise CircuitError(f"output wire {wire} is unassigned")
        circuit = Circuit(
            num_wires=self._num_wires,
            gates=tuple(self._gates),
            garbler_inputs=list(self._garbler_inputs),
            evaluator_inputs=list(self._evaluator_inputs),
            outputs=list(outputs),
        )
        # The plan and gate counts are cached for good, which is only sound
        # because nothing can append to or replace a gate of a built circuit.
        assert isinstance(circuit.gates, tuple) and len(circuit.plan.steps) == len(circuit.gates)
        return circuit


# A built circuit is immutable and a function of its shape alone, so every
# protocol instance, pair and session of a process shares one copy (and one
# compiled plan) per shape.  Bounded: a topic circuit at B' = 2048 is ~10^5 gates.
_shared_build = lru_cache(maxsize=32)


@dataclass
class SpamCircuit:
    """Unblind one value and output its top bit (Fig. 2 step 4, spam case).

    Garbler (provider) input: the blinded margin.  Evaluator (client) input:
    its unblinding word ``ν``.  Output (1 bit, learned by the client): the
    top bit of ``(blinded − ν) mod 2^width`` —
    :mod:`repro.twopc.spam` chooses ``ν`` so that this bit is the verdict.
    """

    circuit: Circuit
    width: int

    @classmethod
    @_shared_build
    def build(cls, width: int) -> "SpamCircuit":
        builder = CircuitBuilder()
        blinded = builder.garbler_input(width)
        unblind = builder.evaluator_input(width)
        top = builder.subtract_words(blinded, unblind)[-1]
        return cls(circuit=builder.build([top]), width=width)

    def garbler_bits(self, blinded: int) -> list[int]:
        return int_to_bits(blinded, self.width)

    def evaluator_bits(self, unblind: int) -> list[int]:
        return int_to_bits(unblind, self.width)

    @staticmethod
    def decode_output(bits: list[int]) -> bool:
        return bool(bits[0])


@dataclass
class TopicCircuit:
    """Unblind B' candidate scores, take the argmax, and reveal the topic index.

    Garbler (client) inputs: noises and the candidate topic indices ``S'[j]``
    (both are the client's private inputs per Fig. 5 step 5).
    Evaluator (provider) inputs: the blinded candidate scores it decrypted.
    Output (index_bits, learned by the provider): ``S'[argmax_j d_j]``.
    """

    circuit: Circuit
    width: int
    candidates: int
    index_bits: int

    @classmethod
    @_shared_build
    def build(cls, width: int, candidates: int, index_bits: int) -> "TopicCircuit":
        if candidates < 1:
            raise CircuitError("need at least one candidate topic")
        builder = CircuitBuilder()
        noise_words = [builder.garbler_input(width) for _ in range(candidates)]
        index_words = [builder.garbler_input(index_bits) for _ in range(candidates)]
        blinded_words = [builder.evaluator_input(width) for _ in range(candidates)]
        scores = [
            builder.subtract_words(blinded, noise)
            for blinded, noise in zip(blinded_words, noise_words)
        ]
        winner_index = builder.argmax(scores, index_words)
        return cls(
            circuit=builder.build(winner_index),
            width=width,
            candidates=candidates,
            index_bits=index_bits,
        )

    def garbler_bits(self, noises: list[int], topic_indices: list[int]) -> list[int]:
        if len(noises) != self.candidates or len(topic_indices) != self.candidates:
            raise CircuitError("wrong number of noises or candidate indices")
        bits: list[int] = []
        for noise in noises:
            bits.extend(int_to_bits(noise, self.width))
        for index in topic_indices:
            bits.extend(int_to_bits(index, self.index_bits))
        return bits

    def evaluator_bits(self, blinded_scores: list[int]) -> list[int]:
        if len(blinded_scores) != self.candidates:
            raise CircuitError("wrong number of blinded scores")
        bits: list[int] = []
        for value in blinded_scores:
            bits.extend(int_to_bits(value, self.width))
        return bits

    @staticmethod
    def decode_output(bits: list[int]) -> int:
        return bits_to_int(bits)
