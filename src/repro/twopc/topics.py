"""The topic-extraction function module's two-party protocol (§4.3, Fig. 5).

Topic extraction inverts the spam arrangement: the *provider* learns the
output (one topic index out of B, e.g. for ad targeting), and the client's
email is what needs protecting.  Costs are dominated by B, which can be in
the thousands, so Pretzel decomposes the classification:

1. The client locally maps the email to B' candidate topics using a public,
   non-proprietary classifier (step (i) of §4.3; implemented by
   :mod:`repro.core.topic_module`).  This protocol takes the resulting
   candidate list ``S'`` as an input.
2. The client computes the encrypted dot products against the provider's full
   proprietary model, *extracts* the B' candidate scores by homomorphically
   shifting each one to a fixed slot, blinds them, and sends one
   :class:`~repro.twopc.wire.ExtractedCandidatesFrame` of B' ciphertexts.
3. The provider decrypts the B' blinded scores; a Yao argmax removes the
   blinding and hands the provider only ``S'[argmax_j d_j]`` — it never learns
   which candidates were considered nor any other score (Fig. 5 step 5).

Setting ``candidate_topics = None`` (i.e. B' = B) disables decomposition and
yields the paper's Baseline / "Pretzel (B'=B)" arms of Figs. 10 and 11; the
scores then travel in a :class:`~repro.twopc.wire.BlindedScoresFrame` and the
provider reads every column via the packing layout.

Both halves are reentrant state machines; the provider half
(:class:`TopicProviderSession`) is a request/response handler keyed by frame
type whose decrypt step is separable for cross-session batching, mirroring
:mod:`repro.twopc.spam`.  The provider learns how many candidates there are
from the frame itself (one ciphertext per candidate), never *which* ones.

Step 2 is the client hot path: each candidate travels as a *score sample*
opened at the extraction slot alone (:mod:`repro.twopc.blinding` — half a
ciphertext on the wire, one forward transform over 2B' polynomials to blind
them all), and the provider refuses a frame whose samples open anything else,
or more of them than the model has categories, before it parks a decrypt.
The Yao argmax is sized to the dot product (``dot_product_bits``), not to the
slot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.classify.model import QuantizedLinearModel
from repro.crypto.ahe import AHEKeyPair, AHEScheme
from repro.crypto.circuits import TopicCircuit
from repro.crypto.dh import DHGroup
from repro.crypto.ot import OtExtensionPool, initialize_ot_pool
from repro.crypto.packing import PackedLinearModel
from repro.crypto.yao import YaoEvaluatorSession, YaoGarblerSession
from repro.exceptions import ProtocolError, SnapshotError
from repro.twopc.blinding import (
    blind_dot_products,
    blind_extracted_candidates,
    candidate_run,
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
    ExtractedCandidatesFrame,
    Frame,
    SessionState,
    SessionStateKind,
    WireCodec,
)

# 2: the Yao circuit is dot_product_bits wide, not slot_bits; 3: the argmax
# drops its last value mux (other gate positions); 4: the Yao rows and OT pads
# it resumes are fixed-key AES hashes.
SESSION_STATE_VERSION = 4

SparseVector = Mapping[int, int]


@dataclass
class TopicSetup:
    """State produced by the setup phase (provider keys + encrypted model at client)."""

    keypair: AHEKeyPair
    encrypted_model: PackedLinearModel
    quantized_model: QuantizedLinearModel
    setup_network_bytes: int
    provider_setup_seconds: float

    def client_storage_bytes(self) -> int:
        """Client-side storage for the encrypted model (Fig. 12)."""
        return self.encrypted_model.storage_bytes()


@dataclass
class TopicProtocolResult:
    """Outcome and per-email costs of one topic-extraction run."""

    extracted_topic: int          # column index in the provider's model
    provider_seconds: float
    client_seconds: float
    network_bytes: int
    yao_and_gates: int
    candidates_used: int
    network_messages: int = 0
    network_rounds: int = 0


def _topic_index_bits(num_topics: int) -> int:
    return max(1, math.ceil(math.log2(max(2, num_topics))))


class TopicClientSession(ProtocolSession):
    """The client half: dot products, candidate extraction + blinding, Yao garbler."""

    def __init__(
        self,
        protocol: "TopicExtractionProtocol",
        setup: TopicSetup,
        features: SparseVector,
        candidates: list[int],
        decomposed: bool,
        ot_pool: OtExtensionPool | None = None,
    ) -> None:
        super().__init__()
        self.protocol = protocol
        self.setup = setup
        self.features = features
        self.candidates = candidates
        self.decomposed = decomposed
        self.ot_pool = ot_pool
        self.yao_and_gates = 0
        self._yao: YaoGarblerSession | None = None

    def _start(self) -> list[Frame]:
        setup = self.setup
        protocol = self.protocol
        model = setup.quantized_model
        dot_bits = model.dot_product_bits
        sparse = model.sparse_features(self.features)
        dot_result = setup.encrypted_model.dot_products(sparse)
        if self.decomposed:
            blinded = blind_extracted_candidates(
                protocol.scheme,
                setup.keypair.public,
                setup.encrypted_model,
                dot_result,
                candidate_columns=self.candidates,
                dot_bits=dot_bits,
            )
            scores_frame: Frame = ExtractedCandidatesFrame(tuple(blinded.ciphertexts))
        else:
            blinded = blind_dot_products(
                protocol.scheme,
                setup.keypair.public,
                setup.encrypted_model,
                dot_result,
                output_columns=self.candidates,
                dot_bits=dot_bits,
            )
            scores_frame = BlindedScoresFrame(tuple(blinded.ciphertexts))
        noises = [blinded.output_noise[column][2] for column in self.candidates]
        circuit = TopicCircuit.build(
            dot_bits, len(self.candidates), _topic_index_bits(model.num_categories)
        )
        self.yao_and_gates = circuit.circuit.and_count
        self._yao = YaoGarblerSession(
            circuit.circuit,
            circuit.garbler_bits(noises, self.candidates),
            protocol.group,
            output_to="evaluator",   # the evaluator here is the *provider*
            ot_mode=protocol.ot_mode,
            ot_pool=self.ot_pool,
        )
        return [scores_frame] + self._yao.start()

    def _handle(self, frame: Frame) -> list[Frame]:
        assert self._yao is not None
        frames = self._yao.handle(frame)
        if self._yao.finished:
            self.finished = True
        return frames

    # -- session persistence --------------------------------------------------
    def snapshot(self) -> SessionState:
        return SessionState(
            kind=SessionStateKind.TOPIC_CLIENT,
            version=SESSION_STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                features=[
                    [int(index), int(count)] for index, count in sorted(self.features.items())
                ],
                candidates=[int(candidate) for candidate in self.candidates],
                decomposed=self.decomposed,
                yao_and_gates=self.yao_and_gates,
                yao=None if self._yao is None else self._yao.snapshot().to_bytes(),
            ),
        )

    @classmethod
    def restore(
        cls,
        protocol: "TopicExtractionProtocol",
        setup: TopicSetup,
        state: SessionState,
        ot_pool: OtExtensionPool | None = None,
    ) -> "TopicClientSession":
        payload = decode_state_payload(
            state, SessionStateKind.TOPIC_CLIENT, SESSION_STATE_VERSION
        )
        candidates = [int(candidate) for candidate in payload["candidates"]]
        session = cls(
            protocol,
            setup,
            {int(index): int(count) for index, count in payload["features"]},
            candidates,
            bool(payload["decomposed"]),
            ot_pool=ot_pool,
        )
        _restore_base_fields(session, payload)
        session.yao_and_gates = int(payload["yao_and_gates"])
        if payload["yao"] is not None:
            circuit = TopicCircuit.build(
                setup.quantized_model.dot_product_bits,
                len(candidates),
                _topic_index_bits(setup.quantized_model.num_categories),
            )
            session._yao = YaoGarblerSession.restore(
                SessionState.from_bytes(payload["yao"]),
                circuit.circuit,
                protocol.group,
                ot_pool=ot_pool,
            )
        return session


class TopicProviderSession(BufferedProviderSession):
    """The provider half: reactive handler, separable decrypt, Yao evaluator.

    State machine: AWAIT_SCORES --(Blinded/Extracted frame)--> DECRYPTING
    --(supplied slots)--> YAO (evaluator, learns the argmax) --> finished;
    the park/buffer/replay mechanics live in :class:`BufferedProviderSession`.
    The number of candidates B' is read off the frame (one ciphertext per
    candidate when decomposed); which columns they correspond to stays with
    the client, as §4.4 guarantee 3 requires.
    """

    def __init__(
        self,
        protocol: "TopicExtractionProtocol",
        setup: TopicSetup,
        ot_pool: OtExtensionPool | None = None,
    ) -> None:
        super().__init__()
        self.protocol = protocol
        self.setup = setup
        self.ot_pool = ot_pool
        self.extracted_topic: int | None = None
        self._decomposed = False
        self._inner_candidates: int | None = None

    def _is_request(self, frame: Frame) -> bool:
        return isinstance(frame, (BlindedScoresFrame, ExtractedCandidatesFrame))

    def _handle_request(self, frame: Frame) -> list[Frame]:
        scheme = self.protocol.scheme
        decomposed = isinstance(frame, ExtractedCandidatesFrame)
        if decomposed:
            if not scheme.supports_slot_shift:
                raise ProtocolError(
                    "decomposed candidate extraction needs a slot-shifting scheme (XPIR-BV)"
                )
            # B' is the client's claim (a u16 on the wire) and sizes both the
            # decrypt and the circuit this session builds: bound it first.
            num_topics = self.setup.quantized_model.num_categories
            if not 1 <= len(frame.ciphertexts) <= num_topics:
                raise ProtocolError(
                    f"candidate extraction frame carries {len(frame.ciphertexts)} "
                    f"ciphertexts; the model has {num_topics} topics"
                )
            runs = [candidate_run(scheme)] * len(frame.ciphertexts)
        else:
            runs = score_runs(scheme, self.setup.encrypted_model)
        check_score_runs(scheme, frame.ciphertexts, runs)
        self._decomposed = decomposed
        self._decryption_request = DecryptionRequest(
            scheme=scheme,
            keypair=self.setup.keypair,
            ciphertexts=list(frame.ciphertexts),
        )
        return []

    def _build_inner_session(self, slot_lists: list[list[int]]) -> YaoEvaluatorSession:
        protocol = self.protocol
        num_topics = self.setup.quantized_model.num_categories
        if self._decomposed:
            # One sample per candidate, opened at the extraction slot alone,
            # so B' = the frame's length.
            blinded_scores = [slots[0] for slots in slot_lists]
        else:
            # B' = B: scores for all columns, located via the packing layout.
            blinded_scores = open_columns(
                protocol.scheme, self.setup.encrypted_model, slot_lists, range(num_topics)
            )
        circuit = TopicCircuit.build(
            self.setup.quantized_model.dot_product_bits,
            len(blinded_scores),
            _topic_index_bits(num_topics),
        )
        self._inner_candidates = len(blinded_scores)
        return YaoEvaluatorSession(
            circuit.circuit,
            circuit.evaluator_bits(blinded_scores),
            protocol.group,
            output_to="evaluator",
            ot_mode=protocol.ot_mode,
            ot_pool=self.ot_pool,
        )

    def _inner_finished(self, inner: ProtocolSession) -> None:
        assert inner.output_bits is not None
        self.extracted_topic = TopicCircuit.decode_output(inner.output_bits)

    # -- session persistence (hooks for the shared provider snapshot) ---------
    _state_kind = SessionStateKind.TOPIC_PROVIDER

    def _state_codec(self) -> WireCodec:
        return WireCodec(self.protocol.scheme, self.setup.keypair.public)

    def _pending_scheme(self):
        return self.protocol.scheme

    def _pending_keypair(self):
        return self.setup.keypair

    def _snapshot_extra(self) -> dict:
        return {
            "decomposed": self._decomposed,
            "extracted_topic": self.extracted_topic,
            "inner_candidates": self._inner_candidates,
        }

    def _apply_extra(self, extra: dict) -> None:
        self._decomposed = bool(extra["decomposed"])
        self.extracted_topic = extra["extracted_topic"]
        self._inner_candidates = extra["inner_candidates"]

    def _restore_inner(self, state: SessionState) -> YaoEvaluatorSession:
        if self._inner_candidates is None:
            raise SnapshotError("topic provider snapshot carries an inner session but no candidate count")
        circuit = TopicCircuit.build(
            self.setup.quantized_model.dot_product_bits,
            self._inner_candidates,
            _topic_index_bits(self.setup.quantized_model.num_categories),
        )
        return YaoEvaluatorSession.restore(
            state, circuit.circuit, self.protocol.group, ot_pool=self.ot_pool
        )

    @classmethod
    def restore(
        cls,
        protocol: "TopicExtractionProtocol",
        setup: TopicSetup,
        state: SessionState,
        ot_pool: OtExtensionPool | None = None,
    ) -> "TopicProviderSession":
        session = cls(protocol, setup, ot_pool=ot_pool)
        session._restore_common(state)
        return session


class TopicExtractionProtocol:
    """Builds and drives the topic-extraction 2PC between a provider and a client.

    Also a :class:`repro.core.runtime.ProviderFunction`: an email's request
    is ``(features, candidate_topics)``.
    """

    #: Names the function in registrations, worker commands and checkpoint records.
    kind = "topics"

    def __init__(self, scheme: AHEScheme, group: DHGroup, ot_mode: str = "iknp") -> None:
        self.scheme = scheme
        self.group = group
        self.ot_mode = ot_mode

    # -- setup phase ----------------------------------------------------------------
    def setup(
        self,
        quantized_model: QuantizedLinearModel,
        across_row_packing: bool = True,
    ) -> TopicSetup:
        """Provider-side setup: key generation and encryption of the topic model."""
        if quantized_model.num_categories < 2:
            raise ProtocolError("the topic model needs at least two categories")
        if quantized_model.dot_product_bits >= self.scheme.slot_bits:
            raise ProtocolError(
                "dot products would overflow a slot; reduce bin/fin or raise slot_bits"
            )
        start = time.perf_counter()
        keypair = self.scheme.generate_keypair()
        encrypted_model = PackedLinearModel.encrypt(
            self.scheme,
            keypair.public,
            quantized_model.matrix_rows(),
            across_rows=across_row_packing,
        )
        provider_seconds = time.perf_counter() - start
        setup_bytes = encrypted_model.storage_bytes() + keypair.public.size_bytes
        return TopicSetup(
            keypair=keypair,
            encrypted_model=encrypted_model,
            quantized_model=quantized_model,
            setup_network_bytes=setup_bytes,
            provider_setup_seconds=provider_seconds,
        )

    # -- session construction -----------------------------------------------------
    def make_channel(self, setup: TopicSetup, name: str = "topics") -> FramedChannel:
        """A loopback channel whose codec can carry this setup's ciphertexts."""
        return FramedChannel.loopback(
            name, scheme=self.scheme, public_key=setup.keypair.public
        )

    def resolve_candidates(
        self, setup: TopicSetup, candidate_topics: Sequence[int] | None
    ) -> tuple[list[int], bool]:
        """Validate and normalise the client's candidate set ``S'``.

        Returns ``(candidates, decomposed)``; ``None`` means "no
        decomposition" (every topic is a candidate, the B' = B arms).
        """
        num_topics = setup.quantized_model.num_categories
        if candidate_topics is None:
            return list(range(num_topics)), False
        candidates = list(dict.fromkeys(int(c) for c in candidate_topics))
        if not candidates:
            raise ProtocolError("candidate topic list is empty")
        for candidate in candidates:
            if not 0 <= candidate < num_topics:
                raise ProtocolError(f"candidate topic {candidate} out of range")
        if not self.scheme.supports_slot_shift:
            raise ProtocolError(
                "decomposed candidate extraction needs a slot-shifting scheme (XPIR-BV)"
            )
        return candidates, True

    def make_ot_pool(
        self, setup: TopicSetup, channel: FramedChannel | None = None
    ) -> OtExtensionPool:
        """Run the one-time per-pair OT-extension handshake (base OTs).

        In the topic arrangement the *client* garbles (the provider evaluates
        and learns the argmax), so the client is the extension sender.
        """
        channel = channel or self.make_channel(setup, name="topics-ot-setup")
        return initialize_ot_pool(
            self.group, channel, sender_name="client", receiver_name="provider"
        )

    def client_session(
        self,
        setup: TopicSetup,
        features: SparseVector,
        candidate_topics: Sequence[int] | None = None,
        ot_pool: OtExtensionPool | None = None,
    ) -> TopicClientSession:
        candidates, decomposed = self.resolve_candidates(setup, candidate_topics)
        return TopicClientSession(self, setup, features, candidates, decomposed, ot_pool=ot_pool)

    def provider_session(
        self, setup: TopicSetup, ot_pool: OtExtensionPool | None = None
    ) -> TopicProviderSession:
        return TopicProviderSession(self, setup, ot_pool=ot_pool)

    def restore_client(
        self, setup: TopicSetup, state: SessionState, ot_pool: OtExtensionPool | None = None
    ) -> TopicClientSession:
        return TopicClientSession.restore(self, setup, state, ot_pool=ot_pool)

    def restore_provider(
        self, setup: TopicSetup, state: SessionState, ot_pool: OtExtensionPool | None = None
    ) -> TopicProviderSession:
        return TopicProviderSession.restore(self, setup, state, ot_pool=ot_pool)

    def result_of(self, job: SessionJob) -> TopicProtocolResult:
        """The extracted topic and costs of one finished serving-loop job."""
        provider = job.provider
        assert provider.extracted_topic is not None
        return TopicProtocolResult(
            extracted_topic=provider.extracted_topic,
            provider_seconds=provider.seconds,
            client_seconds=job.client.seconds,
            network_bytes=job.channel.total_bytes(),
            yao_and_gates=job.client.yao_and_gates,
            candidates_used=len(job.client.candidates),
            network_messages=job.channel.total_messages(),
            network_rounds=job.channel.rounds(),
        )

    # -- per-email computation phase ----------------------------------------------------
    def extract_topic(
        self,
        setup: TopicSetup,
        features: SparseVector,
        candidate_topics: Sequence[int] | None = None,
        channel: FramedChannel | None = None,
        ot_pool: OtExtensionPool | None = None,
    ) -> TopicProtocolResult:
        """Run the per-email protocol in-process; the provider learns the winning topic.

        *candidate_topics* is the client's candidate set ``S'`` (step (i) of
        §4.3).  ``None`` means "no decomposition": every one of the B topics
        is a candidate, which reproduces the Baseline / B' = B arms.  Without
        an *ot_pool* every email pays fresh base OTs; a pool from
        :meth:`make_ot_pool` amortises them away.
        """
        channel = channel or self.make_channel(setup)
        bytes_before = channel.total_bytes()
        messages_before = channel.total_messages()
        rounds_before = channel.rounds()
        client = self.client_session(setup, features, candidate_topics, ot_pool=ot_pool)
        provider = self.provider_session(setup, ot_pool=ot_pool)
        run_session_pair(channel, {"client": client, "provider": provider})
        assert provider.extracted_topic is not None
        return TopicProtocolResult(
            extracted_topic=provider.extracted_topic,
            provider_seconds=provider.seconds,
            client_seconds=client.seconds,
            network_bytes=channel.total_bytes() - bytes_before,
            yao_and_gates=client.yao_and_gates,
            candidates_used=len(client.candidates),
            network_messages=channel.total_messages() - messages_before,
            network_rounds=channel.rounds() - rounds_before,
        )
