"""The spam-filtering function module's two-party protocol (§3.3, §4.1–§4.2).

Parties and phases follow Fig. 2 with the spam specialisation of §6.1:

*Setup phase* (once, amortised over many emails): the provider generates the
AHE key pair — optionally from a jointly derived seed (§3.3 footnote 3) —
quantizes and encrypts its two-column spam model, and ships the encrypted
model to the client, who stores it (the "client storage" cost of Fig. 8).

*Per email*: the client computes the two encrypted dot products (spam and
ham scores) over the decrypted email's features, blinds them, and sends one
:class:`~repro.twopc.wire.BlindedScoresFrame`.  The provider decrypts.  The
two parties then run a Yao comparison that removes the blinding and outputs a
single bit — learned by the client only (guarantee 2 of §4.4): is this email
spam?

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

Under XPIR-BV the blinded scores travel as one *score sample* opened at the
two adjacent spam/ham slots (:mod:`repro.twopc.blinding`), and the Yao
comparison is sized to the dot product (``dot_product_bits``), not to the
slot: ``(blinded - noise) mod 2^b`` needs only the low ``b`` bits of each
input.  This module only orchestrates frames — no crypto loops live here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

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

SESSION_STATE_VERSION = 2  # 2: the Yao circuit is dot_product_bits wide, not slot_bits

SparseVector = Mapping[int, int]

SPAM_COLUMN = 0
HAM_COLUMN = 1


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
    """The client half: dot products + blinding, then the Yao evaluator role."""

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
        blinded = blind_dot_products(
            protocol.scheme,
            setup.keypair.public,
            setup.encrypted_model,
            dot_result,
            output_columns=[SPAM_COLUMN, HAM_COLUMN],
            dot_bits=model.dot_product_bits,
        )
        _, _, spam_noise = blinded.output_noise[SPAM_COLUMN]
        _, _, ham_noise = blinded.output_noise[HAM_COLUMN]
        circuit = SpamCircuit.build(setup.quantized_model.dot_product_bits)
        self.yao_and_gates = circuit.circuit.and_count
        self._yao = YaoEvaluatorSession(
            circuit.circuit,
            circuit.evaluator_bits(spam_noise, ham_noise),
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
            circuit = SpamCircuit.build(setup.quantized_model.dot_product_bits)
            session._yao = YaoEvaluatorSession.restore(
                SessionState.from_bytes(payload["yao"]),
                circuit.circuit,
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
        blinded_spam, blinded_ham = open_columns(
            protocol.scheme, setup.encrypted_model, slot_lists, [SPAM_COLUMN, HAM_COLUMN]
        )
        circuit = SpamCircuit.build(setup.quantized_model.dot_product_bits)
        return YaoGarblerSession(
            circuit.circuit,
            circuit.garbler_bits(blinded_spam, blinded_ham),
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
        circuit = SpamCircuit.build(self.setup.quantized_model.dot_product_bits)
        return YaoGarblerSession.restore(
            state, circuit.circuit, self.protocol.group, ot_pool=self.ot_pool
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
        joint_seed: bytes | None = None,
    ) -> SpamSetup:
        """Provider-side setup: key generation and model encryption."""
        if quantized_model.num_categories != 2:
            raise ProtocolError("the spam protocol needs a two-category model")
        if quantized_model.dot_product_bits >= self.scheme.slot_bits:
            raise ProtocolError(
                "dot products would overflow a slot; reduce bin/fin or raise slot_bits"
            )
        start = time.perf_counter()
        keypair = self.scheme.generate_keypair(seed=joint_seed)
        encrypted_model = PackedLinearModel.encrypt(
            self.scheme,
            keypair.public,
            quantized_model.matrix_rows(),
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
