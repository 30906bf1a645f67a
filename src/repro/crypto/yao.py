"""Yao's two-party protocol as a pair of frame-driven sessions (§3.2).

This stitches together the pieces of §3.2: the garbler builds the garbled
tables for an agreed-upon circuit, obtains the evaluator's input labels via
oblivious transfer, and sends the tables together with the labels of its own
inputs; the evaluator evaluates.  Depending on the arrangement the cleartext
output is learned by the evaluator (spam filtering: the client) or sent back
— as output *labels*, so the evaluator learns nothing extra — and decoded by
the garbler (topic extraction: the provider, Fig. 5 step 5).

Each party is a reentrant :class:`~repro.twopc.session.ProtocolSession`
(:class:`YaoGarblerSession`, :class:`YaoEvaluatorSession`) that owns its OT
machine and reacts to typed wire frames, so the protocol halves embed
directly into the spam/topics sessions and the multi-user serving loop.
Every message crosses a framed channel serialized, so the byte counts match
a networked deployment exactly (Yao network cost per input value is Fig. 6's
``sz_per-in``).  The tests pump a bare garbler/evaluator pair with a driver
in ``tests/oracles.py``.
"""

from __future__ import annotations

from repro.crypto.circuits import Circuit
from repro.crypto.dh import DHGroup
from repro.crypto.garbled import GarblingResult, decode_outputs, evaluate, garble
from repro.crypto.ot import (
    OtExtensionPool,
    PooledIknpReceiverMachine,
    PooledIknpSenderMachine,
    make_ot_receiver,
    make_ot_sender,
)
from repro.exceptions import ProtocolAbort, SnapshotError
from repro.twopc.session import (
    ProtocolSession,
    _restore_base_fields,
    decode_state_payload,
    encode_state_payload,
)
from repro.twopc.wire import (
    Frame,
    GarbledCircuitFrame,
    OutputLabelsFrame,
    SessionState,
    SessionStateKind,
)
from repro.utils.bitops import bits_to_bytes, bytes_to_bits
from repro.utils.rand import secure_bytes

GARBLE_SEED_BYTES = 32
# 2: the garbler's seed expands through SHAKE-256 and the circuits use the
# one-AND gadgets (version 1: an HMAC stream, two-AND gadgets) — same payload
# layout, other labels, so an older snapshot is refused rather than resumed;
# 3: rows and OT pads are fixed-key AES hashes (2: SHA-256) — same labels,
# other tables and pads.
YAO_STATE_VERSION = 3


def _require_pool(ot_pool: OtExtensionPool | None) -> OtExtensionPool:
    if ot_pool is None or not ot_pool.ready:
        raise SnapshotError(
            "restoring a Yao session mid-round needs the restored per-pair OT pool"
        )
    return ot_pool


def _check_output_to(output_to: str) -> None:
    if output_to not in ("garbler", "evaluator"):
        raise ProtocolAbort("output_to must be 'garbler' or 'evaluator'")


class YaoGarblerSession(ProtocolSession):
    """The garbler half: garble, serve the OT, ship tables, maybe decode."""

    def __init__(
        self,
        circuit: Circuit,
        garbler_bits: list[int],
        group: DHGroup,
        output_to: str = "evaluator",
        ot_mode: str = "iknp",
        ot_pool: OtExtensionPool | None = None,
        garble_seed: bytes | None = None,
    ) -> None:
        super().__init__()
        _check_output_to(output_to)
        self.circuit = circuit
        self.garbler_bits = list(garbler_bits)
        self.group = group
        self.output_to = output_to
        self.ot_mode = ot_mode
        self.ot_pool = ot_pool
        # The whole garbling is derived from one PRG seed, so a snapshot of
        # the seed pins every label and table bit-identically on restore —
        # the "Yao round position" is the seed plus the round flags below.
        self._garble_seed = garble_seed if garble_seed is not None else secure_bytes(
            GARBLE_SEED_BYTES
        )
        self.output_bits: list[int] | None = None
        self._garbling: GarblingResult | None = None
        self._ot = None
        self._sent_tables = False

    def _start(self) -> list[Frame]:
        self._garbling = garble(self.circuit, seed=self._garble_seed)
        label_pairs = self._garbling.label_pairs(self.circuit.evaluator_inputs)
        self._ot = make_ot_sender(self.group, label_pairs, self.ot_mode, pool=self.ot_pool)
        frames = self._ot.start()
        return frames + self._tables_if_ot_done()

    def _handle(self, frame: Frame) -> list[Frame]:
        if isinstance(frame, OutputLabelsFrame):
            if self.output_to != "garbler" or not self._sent_tables:
                return self._unexpected(frame)
            assert self._garbling is not None
            self.output_bits = decode_outputs(
                self.circuit, self._garbling.tables, list(frame.labels)
            )
            self.finished = True
            return []
        frames = self._ot.handle(frame)
        return frames + self._tables_if_ot_done()

    def _tables_if_ot_done(self) -> list[Frame]:
        """Once the OT completes, the tables + own input labels follow immediately."""
        if self._sent_tables or not self._ot.finished:
            return []
        assert self._garbling is not None
        self._sent_tables = True
        decode_at_evaluator = self.output_to == "evaluator"
        if decode_at_evaluator:
            self.finished = True
        garbler_labels = self._garbling.input_labels(
            self.circuit.garbler_inputs, self.garbler_bits
        )
        return [
            GarbledCircuitFrame(
                tables=self._garbling.tables,
                garbler_labels=tuple(garbler_labels),
                decode_at_evaluator=decode_at_evaluator,
            )
        ]

    # -- session persistence --------------------------------------------------
    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.YAO_GARBLER,
            version=YAO_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                seed=self._garble_seed,
                garbler_count=len(self.garbler_bits),
                garbler_bits=bits_to_bytes(self.garbler_bits) if self.garbler_bits else b"",
                output_to=self.output_to,
                ot_mode=self.ot_mode,
                sent_tables=self._sent_tables,
                output_bits=self.output_bits,
                ot=None if self._ot is None else self._ot.snapshot().to_bytes(),
            ),
        )

    @classmethod
    def restore(
        cls,
        state: SessionState,
        circuit: Circuit,
        group: DHGroup,
        ot_pool: OtExtensionPool | None = None,
    ) -> "YaoGarblerSession":
        payload = decode_state_payload(state, SessionStateKind.YAO_GARBLER, YAO_STATE_VERSION)
        count = payload["garbler_count"]
        if count != len(circuit.garbler_inputs):
            raise SnapshotError(
                f"Yao garbler snapshot holds {count} input bits, "
                f"the circuit takes {len(circuit.garbler_inputs)}"
            )
        bits = bytes_to_bits(payload["garbler_bits"], count) if count else []
        session = cls(
            circuit,
            bits,
            group,
            output_to=payload["output_to"],
            ot_mode=payload["ot_mode"],
            ot_pool=ot_pool,
            garble_seed=payload["seed"],
        )
        _restore_base_fields(session, payload)
        session._sent_tables = bool(payload["sent_tables"])
        if payload["output_bits"] is not None:
            session.output_bits = list(payload["output_bits"])
        if session.started:
            session._garbling = garble(circuit, seed=session._garble_seed)
        if payload["ot"] is not None:
            ot_state = SessionState.from_bytes(payload["ot"])
            session._ot = PooledIknpSenderMachine.restore(
                group, ot_state, _require_pool(ot_pool).sender_state
            )
        return session


class YaoEvaluatorSession(ProtocolSession):
    """The evaluator half: run the OT for its input labels, evaluate, output."""

    def __init__(
        self,
        circuit: Circuit,
        evaluator_bits: list[int],
        group: DHGroup,
        output_to: str = "evaluator",
        ot_mode: str = "iknp",
        ot_pool: OtExtensionPool | None = None,
    ) -> None:
        super().__init__()
        _check_output_to(output_to)
        self.circuit = circuit
        self.group = group
        self.output_to = output_to
        self.output_bits: list[int] | None = None
        self._ot = make_ot_receiver(group, list(evaluator_bits), ot_mode, pool=ot_pool)

    def _start(self) -> list[Frame]:
        return self._ot.start()

    def _handle(self, frame: Frame) -> list[Frame]:
        if isinstance(frame, GarbledCircuitFrame):
            if not self._ot.finished:
                raise ProtocolAbort("garbled tables arrived before the OT completed")
            if frame.decode_at_evaluator != (self.output_to == "evaluator"):
                raise ProtocolAbort("the parties disagree on who learns the Yao output")
            output_labels = evaluate(
                self.circuit,
                frame.tables,
                list(frame.garbler_labels),
                self._ot.result or [],
            )
            self.finished = True
            if frame.decode_at_evaluator:
                self.output_bits = decode_outputs(self.circuit, frame.tables, output_labels)
                return []
            return [OutputLabelsFrame(tuple(output_labels))]
        return self._ot.handle(frame)

    # -- session persistence --------------------------------------------------
    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.YAO_EVALUATOR,
            version=YAO_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                output_to=self.output_to,
                output_bits=self.output_bits,
                ot=self._ot.snapshot().to_bytes(),
            ),
        )

    @classmethod
    def restore(
        cls,
        state: SessionState,
        circuit: Circuit,
        group: DHGroup,
        ot_pool: OtExtensionPool | None = None,
    ) -> "YaoEvaluatorSession":
        payload = decode_state_payload(
            state, SessionStateKind.YAO_EVALUATOR, YAO_STATE_VERSION
        )
        receiver = PooledIknpReceiverMachine.restore(
            group,
            SessionState.from_bytes(payload["ot"]),
            _require_pool(ot_pool).receiver_state,
        )
        if len(receiver.choices) != len(circuit.evaluator_inputs):
            raise SnapshotError(
                f"Yao evaluator snapshot holds {len(receiver.choices)} choices, "
                f"the circuit takes {len(circuit.evaluator_inputs)}"
            )
        session = cls(
            circuit,
            receiver.choices,
            group,
            output_to=payload["output_to"],
            ot_mode="iknp",
            ot_pool=ot_pool,
        )
        session._ot = receiver
        _restore_base_fields(session, payload)
        if payload["output_bits"] is not None:
            session.output_bits = list(payload["output_bits"])
        return session


