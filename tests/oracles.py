"""Reference implementations the tests compare the product paths against.

Each is the plain, obviously-correct form of something ``src/repro`` does a
faster or more involved way; nothing in the product calls them, so they live
here rather than as twins beside the code they check:

* :func:`chacha20_block` — one RFC 8439 block, scalar; the vectorised
  keystream of :mod:`repro.crypto.chacha` must equal it block for block;
* :func:`secure_uniform_ints` — the list form of
  :func:`repro.utils.rand.secure_uniform_array`, value for value;
* :func:`evaluate_plain` — a circuit in the clear, the garbled evaluation's
  reference;
* :func:`run_yao` and :class:`ObliviousTransfer` — the two halves of Yao
  and of an OT batch pumped in-process over a framed channel;
* :func:`decrypt_dot_products` — a packed dot product decrypted per column;
* :func:`metrics_projection` — the partition-invariant slice of a metrics
  snapshot the shard-driver equivalence suites compare;
* :func:`find_ntt_prime` — an NTT-friendly prime search.

:func:`pending_frames` is an instrument rather than a reference: how many
frames a channel or transport holds undelivered.
"""

from __future__ import annotations

import secrets
import struct
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.crypto.circuits import Circuit, GateKind
from repro.crypto.numtheory import is_probable_prime
from repro.crypto.ot import make_ot_receiver, make_ot_sender
from repro.crypto.yao import YaoEvaluatorSession, YaoGarblerSession, _check_output_to
from repro.exceptions import CircuitError, OTError, ParameterError
from repro.twopc.session import run_session_pair
from repro.twopc.transport import FramedChannel, LoopbackTransport, TcpTransport

# -- ChaCha20, one block at a time (RFC 8439 §2.3) ------------------------------
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    """Produce one 64-byte ChaCha20 keystream block."""
    if len(key) != 32:
        raise ParameterError("ChaCha20 key must be 32 bytes")
    if len(nonce) != 12:
        raise ParameterError("ChaCha20 nonce must be 12 bytes")
    if not 0 <= counter < 2**32:
        raise ParameterError("ChaCha20 block counter out of range")
    state = list(_CONSTANTS)
    state += list(struct.unpack("<8L", key))
    state.append(counter)
    state += list(struct.unpack("<3L", nonce))
    working = list(state)
    for _ in range(10):
        # Column rounds.
        _quarter_round(working, 0, 4, 8, 12)
        _quarter_round(working, 1, 5, 9, 13)
        _quarter_round(working, 2, 6, 10, 14)
        _quarter_round(working, 3, 7, 11, 15)
        # Diagonal rounds.
        _quarter_round(working, 0, 5, 10, 15)
        _quarter_round(working, 1, 6, 11, 12)
        _quarter_round(working, 2, 7, 8, 13)
        _quarter_round(working, 3, 4, 9, 14)
    output = [(working[i] + state[i]) & _MASK32 for i in range(16)]
    return struct.pack("<16L", *output)


# -- uniform draws as a list ------------------------------------------------------
def secure_uniform_ints(upper: int, count: int, prg=None) -> list[int]:
    """*count* independent uniform integers in ``[0, upper)`` (cryptographic source).

    Power-of-two bounds up to 2^64 are drawn as the top bits of one byte-stream
    read (exactly uniform, no rejection), the interpretation
    :func:`repro.utils.rand.secure_uniform_array` uses; other bounds fall back
    to :func:`secrets.randbelow`.  *prg* (anything with ``read(num_bytes)``)
    replaces :mod:`secrets` as the byte source and is only defined for
    power-of-two bounds.
    """
    if upper <= 0:
        raise ParameterError("upper bound must be positive")
    if count < 0:
        raise ParameterError("count must be non-negative")
    if count == 0:
        return []
    bits = upper.bit_length() - 1
    if upper == 1 << bits and 0 < bits <= 64:
        raw_bytes = secrets.token_bytes(8 * count) if prg is None else prg.read(8 * count)
        raw = np.frombuffer(raw_bytes, dtype="<u8")
        return (raw >> np.uint64(64 - bits)).tolist()
    if upper == 1:
        return [0] * count
    if prg is not None:
        raise ParameterError("deterministic uniform draws require a power-of-two upper bound")
    return [secrets.randbelow(upper) for _ in range(count)]


# -- circuits in the clear ------------------------------------------------------------
def evaluate_plain(circuit: Circuit, garbler_bits: list[int], evaluator_bits: list[int]) -> list[int]:
    """Evaluate *circuit* in the clear, gate by gate."""
    if len(garbler_bits) != len(circuit.garbler_inputs):
        raise CircuitError("wrong number of garbler input bits")
    if len(evaluator_bits) != len(circuit.evaluator_inputs):
        raise CircuitError("wrong number of evaluator input bits")
    values: dict[int, int] = {}
    for wire, bit in zip(circuit.garbler_inputs, garbler_bits):
        values[wire] = bit & 1
    for wire, bit in zip(circuit.evaluator_inputs, evaluator_bits):
        values[wire] = bit & 1
    for gate in circuit.gates:
        a = values[gate.input_a]
        if gate.kind is GateKind.NOT:
            values[gate.output] = 1 - a
        else:
            b = values[gate.input_b]
            values[gate.output] = (a ^ b) if gate.kind is GateKind.XOR else (a & b)
    try:
        return [values[wire] for wire in circuit.outputs]
    except KeyError as missing:
        raise CircuitError(f"output wire {missing} was never assigned") from missing


# -- Yao and OT, both halves in one process -----------------------------------------
@dataclass
class YaoRunResult:
    output_bits: list[int]
    garbler_seconds: float
    evaluator_seconds: float
    network_bytes: int
    and_gates: int


def run_yao(
    channel: FramedChannel | None,
    circuit: Circuit,
    garbler_bits: list[int],
    evaluator_bits: list[int],
    group,
    output_to: str = "evaluator",
    garbler_name: str = "garbler",
    evaluator_name: str = "evaluator",
    ot_mode: str = "iknp",
) -> YaoRunResult:
    """Execute Yao's protocol once in-process and return the decoded output bits.

    ``output_to`` selects which party learns the cleartext result.  The
    *channel*'s two parties must be *garbler_name* and *evaluator_name* (a
    loopback channel is created when ``channel`` is ``None``); every message
    crosses it serialized, so its byte count is the networked cost.
    """
    _check_output_to(output_to)
    channel = channel or FramedChannel.loopback("yao", parties=(garbler_name, evaluator_name))
    bytes_before = channel.total_bytes()
    garbler = YaoGarblerSession(circuit, garbler_bits, group, output_to, ot_mode)
    evaluator = YaoEvaluatorSession(circuit, evaluator_bits, group, output_to, ot_mode)
    run_session_pair(channel, {garbler_name: garbler, evaluator_name: evaluator})
    output_bits = garbler.output_bits if output_to == "garbler" else evaluator.output_bits
    assert output_bits is not None
    return YaoRunResult(
        output_bits=output_bits,
        garbler_seconds=garbler.seconds,
        evaluator_seconds=evaluator.seconds,
        network_bytes=channel.total_bytes() - bytes_before,
        and_gates=circuit.and_count,
    )


class ObliviousTransfer:
    """Batch 1-out-of-2 OT of fixed-length messages, both machines in-process.

    ``mode="base"`` runs one DH-based OT per transfer; ``mode="iknp"`` runs
    the base OTs and extends.  :meth:`run` drives a sender and a receiver
    machine over a framed *channel*, so every byte is serialized and counted.
    """

    def __init__(self, group, mode: str = "iknp") -> None:
        if mode not in ("base", "iknp"):
            raise OTError(f"unknown OT mode {mode!r}")
        self.group = group
        self.mode = mode

    def run(
        self,
        channel: FramedChannel | None,
        sender_pairs: list[tuple[bytes, bytes]],
        receiver_choices: list[int],
        sender_name: str = "sender",
        receiver_name: str = "receiver",
    ) -> list[bytes]:
        if len(sender_pairs) != len(receiver_choices):
            raise OTError("sender and receiver disagree on the number of transfers")
        if not sender_pairs:
            return []
        channel = channel or FramedChannel.loopback("ot", parties=(sender_name, receiver_name))
        sender = make_ot_sender(self.group, sender_pairs, self.mode)
        receiver = make_ot_receiver(self.group, receiver_choices, self.mode)
        run_session_pair(channel, {sender_name: sender, receiver_name: receiver})
        assert receiver.result is not None
        return receiver.result


# -- packed dot products, decrypted ---------------------------------------------------
def decrypt_dot_products(scheme, keypair, result) -> list[int]:
    """Decrypt a dot-product result into the per-column values.

    The protocols never decrypt unblinded results at the provider (the client
    blinds first, Fig. 2 step 2); this checks that packing preserves the
    plaintext dot products exactly.  Each result decrypts to its run
    (:meth:`~repro.crypto.ahe.AHEScheme.ciphertext_run`).
    """
    layout = result.layout
    ciphertexts = result.all_ciphertexts()
    decrypted = scheme.decrypt_slots_many(keypair, ciphertexts)
    starts = [scheme.ciphertext_run(ciphertext)[0] for ciphertext in ciphertexts]
    values = []
    p = layout.slots_per_ciphertext
    for column in range(layout.num_columns):
        kind, where = layout.column_location(column)
        at, slot = (column // p, column % p) if kind == "segment" else (layout.full_segments, where)
        values.append(decrypted[at][slot - starts[at]])
    return values


# -- the partition-invariant slice of serving metrics ----------------------------------
#
# Serving metrics split into pure *work accounting* (emails, decrypt batches,
# protocol frames: identical however the stream is partitioned) and *timing*
# (decrypt ages, latencies: wall-clock noise).  Byte counters are excluded too,
# because big-integer wire encodings vary by a byte when a random group element
# happens to have leading zeros.
DETERMINISTIC_COUNTERS = frozenset(
    {
        "emails_served_total",
        "decrypt_batches_total",
        "transport_frames_total",
        "transport_rounds_total",
    }
)
DETERMINISTIC_HISTOGRAMS = frozenset(
    {
        "decrypt_batch_ciphertexts",
        "window_flush_ciphertexts",
        "window_flush_sessions",
    }
)


def metrics_projection(snapshot: Mapping[str, Any]) -> dict:
    """The slice of a metrics snapshot two runs over the same emails must agree on.

    Whatever mix of forked and TCP agents did the serving, and however
    many migrations happened in between.
    """
    counters: dict[tuple, float] = {}
    for entry in snapshot.get("counters", []):
        if entry["name"] in DETERMINISTIC_COUNTERS:
            key = (entry["name"], tuple(sorted(entry["labels"].items())))
            counters[key] = counters.get(key, 0) + entry["value"]
    histograms: dict[tuple, dict] = {}
    for entry in snapshot.get("histograms", []):
        if entry["name"] not in DETERMINISTIC_HISTOGRAMS:
            continue
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        slot = histograms.setdefault(key, {"count": 0, "sum": 0, "counts": [0] * len(entry["counts"])})
        slot["count"] += entry["count"]
        slot["sum"] += entry["sum"]
        for index, bucket in enumerate(entry["counts"]):
            slot["counts"][index] += bucket
    return {
        "counters": counters,
        "histograms": {
            key: dict(value, counts=tuple(value["counts"])) for key, value in histograms.items()
        },
    }


# -- NTT-friendly primes ------------------------------------------------------------------
def find_ntt_prime(bits: int, order: int) -> int:
    """Find a prime ``q`` with ``q ≡ 1 (mod order)`` of roughly *bits* bits.

    Such primes admit a primitive *order*-th root of unity, which the
    negacyclic NTT (``order = 2n``) requires.
    """
    if order <= 0 or order & (order - 1):
        raise ParameterError("order must be a positive power of two")
    candidate = ((1 << bits) // order) * order + 1
    while candidate.bit_length() <= bits + 1:
        if candidate.bit_length() >= bits - 1 and is_probable_prime(candidate):
            return candidate
        candidate += order
    # Walk downward if the upward walk crossed the size budget.
    candidate = ((1 << bits) // order) * order + 1 - order
    while candidate > order:
        if is_probable_prime(candidate):
            return candidate
        candidate -= order
    raise ParameterError(f"no NTT-friendly prime of ~{bits} bits with order {order}")


# -- transport instruments ------------------------------------------------------------
def pending_frames(endpoint) -> int:
    """Frames accepted but not yet received (0 once a protocol run is complete).

    *endpoint* is a :class:`~repro.twopc.transport.FramedChannel`, a loopback
    or TCP transport, or a test-local transport with its own ``pending()``.
    """
    transport = getattr(endpoint, "transport", endpoint)
    if isinstance(transport, LoopbackTransport):
        return sum(len(queue) for queue in transport._queues.values())
    if isinstance(transport, TcpTransport):
        return len(transport._inbound)
    return transport.pending()
