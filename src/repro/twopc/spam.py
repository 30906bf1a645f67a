"""The spam-filtering function module's two-party protocol (§3.3, §4.1–§4.2).

Parties and phases follow Fig. 2 with the spam specialisation of §6.1:

*Setup phase* (once, amortised over many emails): the provider generates the
AHE key pair from its own randomness (§3.3 footnote 3 would have the client
contribute too; :mod:`repro.crypto.dh` names the gap) and encrypts its
quantized two-category model as **one margin column**,
``e_i = m[i, spam] + (2^bin − 1) − m[i, ham]`` (bias row included), which
the client stores (the "client storage" cost of Fig. 8: one column, where
the paper charges B = 2).  Each entry is non-negative and below
``2^(bin+1)``, so the column packs like any other.

*Per email*: the client computes the one encrypted dot product
``D = Σ f_i·e_i + e_bias = d_spam − d_ham + τ`` over the decrypted email's
features, where ``τ = (2^bin − 1)(F + 1)`` and ``F`` is the sum of the
email's clipped frequencies — ``τ`` bounds ``d_ham``, so ``D`` is
non-negative and below ``2^(b+1)``.  It blinds ``D`` and sends one
:class:`~repro.twopc.wire.BlindedScoresFrame`.  The provider decrypts.  The
verdict ``d_spam > d_ham`` is the sign of the margin: the two parties run a
``b + 1``-bit Yao subtraction of the client's
``ν = noise + τ + 1 − 2^b`` from the blinded value, whose top bit is
``[d_spam − d_ham ≥ 1]`` (ties are not spam) — learned by the client only
(guarantee 2 of §4.4).

Both halves are reentrant :class:`~repro.twopc.session.ProtocolSession` state
machines.  :class:`SpamProviderSession` is purely reactive — it responds to
frames keyed by type, and its decrypt step is separable so the multi-user
serving loop (:mod:`repro.core.runtime`) can batch decrypts across many
concurrent email sessions.  :class:`SpamFilterProtocol` keeps the one-email
in-process driver interface: it pumps a client/provider session pair over a
framed loopback channel and reports exact byte, message and round counts.

The same classes implement the paper's Baseline (Paillier + legacy packing)
and Pretzel (XPIR-BV + across-row packing) arms; the benchmark harness just
instantiates them with different schemes.

Under XPIR-BV the blinded margin travels as one *score sample* opened at one
slot (:mod:`repro.twopc.blinding`); Paillier sends its one result ciphertext
whole.  The Yao circuit is sized to the margin (``dot_product_bits + 1``),
not to the slot: the subtraction needs only the low ``b + 1`` bits of each
input.  This module only orchestrates frames — no crypto loops live here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.classify.model import QuantizedLinearModel
from repro.crypto.ahe import AHEKeyPair, AHEScheme
from repro.crypto.circuits import SpamCircuit
from repro.crypto.dh import DHGroup
from repro.crypto.ot import OtExtensionPool, initialize_ot_pool
from repro.crypto.packing import PackedLinearModel
from repro.crypto.yao import YaoEvaluatorSession, YaoGarblerSession
from repro.exceptions import ProtocolError
from repro.twopc.blinding import (
    blind_dot_products,
    check_score_runs,
    open_columns,
    score_runs,
)
from repro.twopc.session import (
    BufferedProviderSession,
    DecryptionRequest,
    ProtocolSession,
    SessionJob,
    _restore_base_fields,
    decode_state_payload,
    encode_state_payload,
    run_session_pair,
)
from repro.twopc.transport import FramedChannel
from repro.twopc.wire import (
    BlindedScoresFrame,
    Frame,
    SessionState,
    SessionStateKind,
    WireCodec,
)

# 2: the Yao circuit is dot_product_bits wide, not slot_bits; 3: one margin
# column and a dot_product_bits + 1 wide circuit that unblinds one value;
# 4: the Yao rows and OT pads it resumes are fixed-key AES hashes.
SESSION_STATE_VERSION = 4

SparseVector = Mapping[int, int]

# The plaintext model's columns the margin is built from.
SPAM_COLUMN = 0
HAM_COLUMN = 1
# The encrypted model's one column.
MARGIN_COLUMN = 0


def _circuit(setup: "SpamSetup") -> SpamCircuit:
    # A setup of any other shape (a spam/ham pair from a build before the
    # margin) would have its spam column unblinded as the margin: a wrong
    # verdict and no error.  Every session path builds its circuit here.
    if setup.encrypted_model.layout.num_columns != 1:
        raise ProtocolError(
            f"a spam setup packs one margin column, not "
            f"{setup.encrypted_model.layout.num_columns}"
        )
    return SpamCircuit.build(setup.quantized_model.dot_product_bits + 1)


@dataclass
class SpamSetup:
    """State produced by the setup phase."""

    keypair: AHEKeyPair                 # held by the provider
    encrypted_model: PackedLinearModel  # held by the client
    quantized_model: QuantizedLinearModel
    setup_network_bytes: int
    provider_setup_seconds: float

    def client_storage_bytes(self) -> int:
        """Client-side storage for the encrypted model (Fig. 8)."""
        return self.encrypted_model.storage_bytes()


@dataclass
class SpamProtocolResult:
    """Outcome and per-email costs of one protocol run."""

    is_spam: bool
    provider_seconds: float
    client_seconds: float
    network_bytes: int
    yao_and_gates: int
    network_messages: int = 0
    network_rounds: int = 0


class SpamClientSession(ProtocolSession):
    """The client half: the margin's dot product + blinding, then the Yao evaluator role."""

    def __init__(
        self,
        protocol: "SpamFilterProtocol",
        setup: SpamSetup,
        features: SparseVector,
        ot_pool: OtExtensionPool | None = None,
    ) -> None:
        super().__init__()
        self.protocol = protocol
        self.setup = setup
        self.features = features
        self.ot_pool = ot_pool
        self.is_spam: bool | None = None
        self.yao_and_gates = 0
        self._yao: YaoEvaluatorSession | None = None

    def _start(self) -> list[Frame]:
        setup = self.setup
        protocol = self.protocol
        model = setup.quantized_model
        sparse = model.sparse_features(self.features)
        dot_result = setup.encrypted_model.dot_products(sparse)
        circuit = _circuit(setup)
        blinded = blind_dot_products(
            protocol.scheme,
            setup.keypair.public,
            setup.encrypted_model,
            dot_result,
            output_columns=[MARGIN_COLUMN],
            dot_bits=circuit.width,
        )
        _, _, noise = blinded.output_noise[MARGIN_COLUMN]
        # blinded − ν = d_spam − d_ham − 1 + 2^b (mod 2^(b+1)): its top bit is the verdict.
        tau = ((1 << model.value_bits) - 1) * (sum(count for _, count in sparse) + 1)
        self.yao_and_gates = circuit.circuit.and_count
        self._yao = YaoEvaluatorSession(
            circuit.circuit,
            circuit.evaluator_bits(noise + tau + 1 - (1 << model.dot_product_bits)),
            protocol.group,
            output_to="evaluator",
            ot_mode=protocol.ot_mode,
            ot_pool=self.ot_pool,
        )
        return [BlindedScoresFrame(tuple(blinded.ciphertexts))] + self._yao.start()

    def _handle(self, frame: Frame) -> list[Frame]:
        assert self._yao is not None
        frames = self._yao.handle(frame)
        if self._yao.finished:
            assert self._yao.output_bits is not None
            self.is_spam = SpamCircuit.decode_output(self._yao.output_bits)
            self.finished = True
        return frames

    # -- session persistence --------------------------------------------------
    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.SPAM_CLIENT,
            version=SESSION_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                features=[
                    [int(index), int(count)] for index, count in sorted(self.features.items())
                ],
                is_spam=self.is_spam,
                yao_and_gates=self.yao_and_gates,
                yao=None if self._yao is None else self._yao.snapshot().to_bytes(),
            ),
        )

    @classmethod
    def restore(
        cls,
        protocol: "SpamFilterProtocol",
        setup: SpamSetup,
        state: SessionState,
        ot_pool: OtExtensionPool | None = None,
    ) -> "SpamClientSession":
        payload = decode_state_payload(
            state, SessionStateKind.SPAM_CLIENT, SESSION_STATE_VERSION
        )
        session = cls(
            protocol,
            setup,
            {int(index): int(count) for index, count in payload["features"]},
            ot_pool=ot_pool,
        )
        _restore_base_fields(session, payload)
        session.is_spam = payload["is_spam"]
        session.yao_and_gates = int(payload["yao_and_gates"])
        if payload["yao"] is not None:
            session._yao = YaoEvaluatorSession.restore(
                SessionState.from_bytes(payload["yao"]),
                _circuit(setup).circuit,
                protocol.group,
                ot_pool=ot_pool,
            )
        return session


class SpamProviderSession(BufferedProviderSession):
    """The provider half: a reactive, reentrant request/response handler.

    State machine: AWAIT_SCORES --(BlindedScoresFrame)--> DECRYPTING
    --(supplied slots)--> YAO (garbler) --> finished.  The park/buffer/replay
    mechanics live in :class:`BufferedProviderSession`.
    """

    def __init__(
        self,
        protocol: "SpamFilterProtocol",
        setup: SpamSetup,
        ot_pool: OtExtensionPool | None = None,
    ) -> None:
        super().__init__()
        self.protocol = protocol
        self.setup = setup
        self.ot_pool = ot_pool

    def _is_request(self, frame: Frame) -> bool:
        return isinstance(frame, BlindedScoresFrame)

    def _handle_request(self, frame: BlindedScoresFrame) -> list[Frame]:
        scheme = self.protocol.scheme
        check_score_runs(
            scheme, frame.ciphertexts, score_runs(scheme, self.setup.encrypted_model)
        )
        self._decryption_request = DecryptionRequest(
            scheme=scheme,
            keypair=self.setup.keypair,
            ciphertexts=list(frame.ciphertexts),
        )
        return []

    def _build_inner_session(self, slot_lists: list[list[int]]) -> YaoGarblerSession:
        setup = self.setup
        protocol = self.protocol
        circuit = _circuit(setup)
        (blinded,) = open_columns(
            protocol.scheme, setup.encrypted_model, slot_lists, [MARGIN_COLUMN]
        )
        return YaoGarblerSession(
            circuit.circuit,
            circuit.garbler_bits(blinded),
            protocol.group,
            output_to="evaluator",
            ot_mode=protocol.ot_mode,
            ot_pool=self.ot_pool,
        )

    # -- session persistence (hooks for the shared provider snapshot) ---------
    _state_kind = SessionStateKind.SPAM_PROVIDER

    def _state_codec(self) -> WireCodec:
        return WireCodec(self.protocol.scheme, self.setup.keypair.public)

    def _pending_scheme(self):
        return self.protocol.scheme

    def _pending_keypair(self):
        return self.setup.keypair

    def _restore_inner(self, state: SessionState) -> YaoGarblerSession:
        return YaoGarblerSession.restore(
            state, _circuit(self.setup).circuit, self.protocol.group, ot_pool=self.ot_pool
        )

    @classmethod
    def restore(
        cls,
        protocol: "SpamFilterProtocol",
        setup: SpamSetup,
        state: SessionState,
        ot_pool: OtExtensionPool | None = None,
    ) -> "SpamProviderSession":
        session = cls(protocol, setup, ot_pool=ot_pool)
        session._restore_common(state)
        return session


class SpamFilterProtocol:
    """Builds and drives the spam-filtering 2PC between a provider and a client.

    Also a :class:`repro.core.runtime.ProviderFunction`: an email's request
    is ``(features,)``.
    """

    #: Names the function in registrations, worker commands and checkpoint records.
    kind = "spam"

    def __init__(
        self,
        scheme: AHEScheme,
        group: DHGroup,
        across_row_packing: bool = True,
        ot_mode: str = "iknp",
    ) -> None:
        self.scheme = scheme
        self.group = group
        self.across_row_packing = across_row_packing
        self.ot_mode = ot_mode

    # -- setup phase -----------------------------------------------------------
    def setup(
        self,
        quantized_model: QuantizedLinearModel,
    ) -> SpamSetup:
        """Provider-side setup: key generation and encryption of the margin column."""
        if quantized_model.num_categories != 2:
            raise ProtocolError("the spam protocol needs a two-category model")
        # Whole-ciphertext blinding (no slot shift) keeps one more guard bit.
        guard_bits = 0 if self.scheme.supports_slot_shift else 1
        if quantized_model.dot_product_bits + 1 + guard_bits >= self.scheme.slot_bits:
            raise ProtocolError(
                "the spam margin would overflow a slot; reduce bin/fin or raise slot_bits"
            )
        start = time.perf_counter()
        rows = np.asarray(quantized_model.matrix_rows())
        top = (1 << quantized_model.value_bits) - 1
        if not np.issubdtype(rows.dtype, np.integer) or rows.min() < 0 or rows.max() > top:
            raise ProtocolError(
                f"spam model entries must be integers in [0, 2^{quantized_model.value_bits})"
            )
        # int64 before subtracting: an unsigned matrix would wrap.
        rows = rows.astype(np.int64)
        margin = rows[:, SPAM_COLUMN] + top - rows[:, HAM_COLUMN]
        keypair = self.scheme.generate_keypair()
        encrypted_model = PackedLinearModel.encrypt(
            self.scheme,
            keypair.public,
            margin.reshape(-1, 1),
            across_rows=self.across_row_packing,
        )
        provider_seconds = time.perf_counter() - start
        setup_bytes = encrypted_model.storage_bytes() + keypair.public.size_bytes
        return SpamSetup(
            keypair=keypair,
            encrypted_model=encrypted_model,
            quantized_model=quantized_model,
            setup_network_bytes=setup_bytes,
            provider_setup_seconds=provider_seconds,
        )

    # -- session construction -----------------------------------------------------
    def make_channel(self, setup: SpamSetup, name: str = "spam") -> FramedChannel:
        """A loopback channel whose codec can carry this setup's ciphertexts."""
        return FramedChannel.loopback(
            name, scheme=self.scheme, public_key=setup.keypair.public
        )

    def make_ot_pool(
        self, setup: SpamSetup, channel: FramedChannel | None = None
    ) -> OtExtensionPool:
        """Run the one-time per-pair OT-extension handshake (base OTs).

        In the spam arrangement the provider garbles, so the provider is the
        extension sender.  The pool is pair-level state like the encrypted
        model: pay the base OTs once, then every email's Yao step needs only
        symmetric work (the amortisation IKNP exists for).
        """
        channel = channel or self.make_channel(setup, name="spam-ot-setup")
        return initialize_ot_pool(
            self.group, channel, sender_name="provider", receiver_name="client"
        )

    def client_session(
        self,
        setup: SpamSetup,
        features: SparseVector,
        ot_pool: OtExtensionPool | None = None,
    ) -> SpamClientSession:
        return SpamClientSession(self, setup, features, ot_pool=ot_pool)

    def provider_session(
        self, setup: SpamSetup, ot_pool: OtExtensionPool | None = None
    ) -> SpamProviderSession:
        return SpamProviderSession(self, setup, ot_pool=ot_pool)

    def restore_client(
        self, setup: SpamSetup, state: SessionState, ot_pool: OtExtensionPool | None = None
    ) -> SpamClientSession:
        return SpamClientSession.restore(self, setup, state, ot_pool=ot_pool)

    def restore_provider(
        self, setup: SpamSetup, state: SessionState, ot_pool: OtExtensionPool | None = None
    ) -> SpamProviderSession:
        return SpamProviderSession.restore(self, setup, state, ot_pool=ot_pool)

    def result_of(self, job: SessionJob) -> SpamProtocolResult:
        """The verdict and costs of one finished serving-loop job."""
        client = job.client
        assert client.is_spam is not None
        return SpamProtocolResult(
            is_spam=client.is_spam,
            provider_seconds=job.provider.seconds,
            client_seconds=client.seconds,
            network_bytes=job.channel.total_bytes(),
            yao_and_gates=client.yao_and_gates,
            network_messages=job.channel.total_messages(),
            network_rounds=job.channel.rounds(),
        )

    # -- per-email computation phase ------------------------------------------------
    def classify_email(
        self,
        setup: SpamSetup,
        features: SparseVector,
        channel: FramedChannel | None = None,
        ot_pool: OtExtensionPool | None = None,
    ) -> SpamProtocolResult:
        """Run the full per-email protocol in-process; returns the client's verdict.

        The *channel*'s parties must be ``("client", "provider")`` and its
        codec must know the protocol's scheme (see :meth:`make_channel`).
        Without an *ot_pool* every email pays fresh base OTs (the one-shot
        baseline); a pool from :meth:`make_ot_pool` amortises them away.
        """
        channel = channel or self.make_channel(setup)
        bytes_before = channel.total_bytes()
        messages_before = channel.total_messages()
        rounds_before = channel.rounds()
        client = self.client_session(setup, features, ot_pool=ot_pool)
        provider = self.provider_session(setup, ot_pool=ot_pool)
        run_session_pair(channel, {"client": client, "provider": provider})
        assert client.is_spam is not None
        return SpamProtocolResult(
            is_spam=client.is_spam,
            provider_seconds=provider.seconds,
            client_seconds=client.seconds,
            network_bytes=channel.total_bytes() - bytes_before,
            yao_and_gates=client.yao_and_gates,
            network_messages=channel.total_messages() - messages_before,
            network_rounds=channel.rounds() - rounds_before,
        )
