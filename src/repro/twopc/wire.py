"""Typed, versioned wire frames for every message that crosses parties.

The paper's evaluation treats the wire as the system boundary: network
transfers (Figs. 3, 6, 11 and the absolute costs of §6.3) are counted in
serialized bytes, and a deployed provider speaks to millions of clients whose
messages arrive as frames, not Python objects.  This module defines that
boundary once:

* each protocol message — blinded AHE scores, candidate extractions, the four
  OT message kinds, garbled tables, output labels, and the NoPriv plaintext
  exchange — is a small frozen dataclass (*frame*);
* session persistence rides the same boundary: a snapshotted party machine is
  a :class:`SessionState` record (kind + version + canonical payload) carried
  by a :class:`SessionStateFrame`, so checkpoints, shard handoffs and wire
  transfers of live sessions all share one golden-pinned format;
* :class:`WireCodec` turns frames into bytes and back.  Every frame starts
  with a fixed header (magic, version, type); ciphertext-bearing frames
  delegate to the scheme codecs (:meth:`AHEScheme.serialize_ciphertext`),
  garbled tables to :meth:`GarbledTables.to_bytes`.

Byte accounting is therefore exact by construction: the transport charges
``len(codec.encode(frame))`` — there is no estimator on any protocol path.
Decoding validates magic, version, type, and ciphertext parameters, and
raises :class:`~repro.exceptions.WireFormatError` on anything malformed
(frames cross a trust boundary; decoding never executes arbitrary code).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ahe import AHECiphertext, AHEPublicKey, AHEScheme
from repro.crypto.garbled import LABEL_BYTES, GarbledTables
from repro.exceptions import WireFormatError
from repro.utils.serialization import ByteReader, ByteWriter

WIRE_MAGIC = 0x5A  # 'Z' — "pretZel"
WIRE_VERSION = 1
HEADER_BYTES = 3  # magic (u8) + version (u8) + frame type (u8)


# ---------------------------------------------------------------------------
# Frame types
# ---------------------------------------------------------------------------
class FrameType:
    """Wire identifiers; the third header byte of every frame."""

    BLINDED_SCORES = 0x01        # client -> provider: blinded dot products (Fig. 2 step 2)
    EXTRACTED_CANDIDATES = 0x02  # client -> provider: B' extracted scores (Fig. 5 step 3)
    OT_PUBLICS = 0x03            # base OT: sender's DH shares
    OT_RESPONSES = 0x04          # base OT: receiver's blinded responses
    OT_CIPHERPAIRS = 0x05        # base OT: the two encrypted messages per transfer
    OT_EXT_COLUMNS = 0x06        # IKNP: the receiver's U-matrix columns
    OT_EXT_PAIRS = 0x07          # IKNP: the sender's encrypted message pairs
    GARBLED_CIRCUIT = 0x08       # garbler -> evaluator: tables + garbler input labels
    OUTPUT_LABELS = 0x09         # evaluator -> garbler: output labels for decoding
    FEATURES = 0x0A              # NoPriv: the plaintext feature vector (the email)
    CLASSIFY_RESULT = 0x0B       # NoPriv: the provider's category verdict
    SESSION_STATE = 0x0C         # a snapshotted party state (session persistence)
    CONTROL = 0x0D               # fabric control plane: verb + version + body


@dataclass(frozen=True, eq=False)
class BlindedScoresFrame:
    """All blinded dot-product ciphertexts, in result-layout order."""

    ciphertexts: tuple[AHECiphertext, ...]

    frame_type = FrameType.BLINDED_SCORES


@dataclass(frozen=True, eq=False)
class ExtractedCandidatesFrame:
    """One extracted-and-blinded ciphertext per candidate topic (§4.3)."""

    ciphertexts: tuple[AHECiphertext, ...]

    frame_type = FrameType.EXTRACTED_CANDIDATES


@dataclass(frozen=True)
class OtPublicsFrame:
    """Base-OT sender DH share(s); the Chou–Orlandi sender publishes one per batch."""

    elements: tuple[int, ...]

    frame_type = FrameType.OT_PUBLICS


@dataclass(frozen=True)
class OtResponsesFrame:
    """Base-OT receiver responses (one group element per transfer)."""

    elements: tuple[int, ...]

    frame_type = FrameType.OT_RESPONSES


@dataclass(frozen=True)
class OtCipherPairsFrame:
    """Base-OT encrypted message pairs."""

    pairs: tuple[tuple[bytes, bytes], ...]

    frame_type = FrameType.OT_CIPHERPAIRS


@dataclass(frozen=True)
class OtExtColumnsFrame:
    """IKNP extension: the receiver's U-matrix columns.

    ``start_index`` is the batch's first global transfer index when the
    extension runs against persistent per-pair state (the amortised usage of
    IKNP: base OTs once per pair, every later batch extends).  One-shot
    extensions leave it at 0.
    """

    columns: tuple[bytes, ...]
    start_index: int = 0

    frame_type = FrameType.OT_EXT_COLUMNS


@dataclass(frozen=True)
class OtExtPairsFrame:
    """IKNP extension: the sender's encrypted message pairs."""

    pairs: tuple[tuple[bytes, bytes], ...]

    frame_type = FrameType.OT_EXT_PAIRS


@dataclass(frozen=True)
class GarbledCircuitFrame:
    """Garbled tables, the garbler's own input labels, and the output arrangement."""

    tables: GarbledTables
    garbler_labels: tuple[bytes, ...]
    decode_at_evaluator: bool

    frame_type = FrameType.GARBLED_CIRCUIT


@dataclass(frozen=True)
class OutputLabelsFrame:
    """The evaluator's output labels, returned when the garbler learns the output."""

    labels: tuple[bytes, ...]

    frame_type = FrameType.OUTPUT_LABELS


@dataclass(frozen=True)
class FeaturesFrame:
    """NoPriv: the plaintext sparse feature vector the provider classifies."""

    features: tuple[tuple[int, int], ...]

    frame_type = FrameType.FEATURES


@dataclass(frozen=True)
class ClassifyResultFrame:
    """NoPriv: the provider's predicted category index."""

    category: int

    frame_type = FrameType.CLASSIFY_RESULT


# ---------------------------------------------------------------------------
# Session-state snapshots (the persistence format of resumable sessions)
# ---------------------------------------------------------------------------
class SessionStateKind:
    """Kind byte of a :class:`SessionState`: which party machine it captures."""

    OT_POOL = 0x01             # persistent per-pair IKNP extension state
    POOLED_OT_SENDER = 0x02    # a PooledIknpSenderMachine mid-batch
    POOLED_OT_RECEIVER = 0x03  # a PooledIknpReceiverMachine mid-batch
    YAO_GARBLER = 0x10         # a YaoGarblerSession (seed + round position)
    YAO_EVALUATOR = 0x11       # a YaoEvaluatorSession (OT position + output)
    SPAM_CLIENT = 0x20
    SPAM_PROVIDER = 0x21
    TOPIC_CLIENT = 0x22
    TOPIC_PROVIDER = 0x23
    NOPRV_CLIENT = 0x24
    NOPRV_PROVIDER = 0x25


KNOWN_SESSION_STATE_KINDS = frozenset(
    value
    for name, value in vars(SessionStateKind).items()
    if not name.startswith("_")
)


@dataclass(frozen=True)
class SessionState:
    """A typed, versioned, byte-serializable snapshot of one party machine.

    This is the session-persistence contract: everything a killed worker
    needs to *resume* a parked session — buffered frames, parked decryption
    requests, OT-pool pad cursors, Yao round position — travels as one of
    these records, never as a pickled object graph.  ``kind`` names the
    party machine, ``version`` the kind-specific payload format (bumped on
    any payload change, together with the pinned golden bytes), and
    ``payload`` is the kind's canonically-encoded body.  Key material that
    both ends of a restore already share (setups, circuits, schemes) is
    *context*, supplied to ``restore(...)``, and never serialized.
    """

    kind: int
    version: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_SESSION_STATE_KINDS:
            raise WireFormatError(f"unknown session-state kind 0x{self.kind:02x}")
        if not 0 <= self.version < 256:
            raise WireFormatError(f"session-state version {self.version} out of range")

    def to_bytes(self) -> bytes:
        """Standalone encoding (kind, version, payload) without the frame header."""
        return ByteWriter().u8(self.kind).u8(self.version).blob(self.payload).getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "SessionState":
        reader = ByteReader(data)
        state = cls._read(reader)
        reader.expect_end()
        return state

    @classmethod
    def _read(cls, reader: ByteReader) -> "SessionState":
        kind = reader.u8()
        if kind not in KNOWN_SESSION_STATE_KINDS:
            raise WireFormatError(f"unknown session-state kind 0x{kind:02x}")
        version = reader.u8()
        return cls(kind=kind, version=version, payload=reader.blob())


@dataclass(frozen=True)
class SessionStateFrame:
    """A :class:`SessionState` on the wire — snapshots are just frames.

    Shipping state as a frame is what makes the persistence layer compose
    with everything else: a checkpoint file, a shard handoff to another host,
    and a wire transfer all use the same golden-pinned bytes.
    """

    state: SessionState

    frame_type = FrameType.SESSION_STATE


# ---------------------------------------------------------------------------
# Control-plane frames (the fabric's parent <-> agent channel)
# ---------------------------------------------------------------------------
#: Version byte stamped on every control frame an endpoint emits.  Both ends
#: check it before trusting a body, so a mixed pair is refused at HELLO (a
#: *frame* with a foreign version still decodes — the compatibility check is
#: a control-plane policy, not a codec failure).
#: 2: one ``register`` command for every provider function, and ``burst``
#: entries carry ``(job_id, kind, address, request)``.
#: 3: verb 0x05 (the agent's unsolicited snapshot push) is gone; the
#: ``stats`` reply carries stashed results beside the snapshot that counts
#: them, like every other snapshot-bearing reply.
CONTROL_VERSION = 3


class ControlVerb:
    """Verb byte of a :class:`ControlFrame`: what the sender is doing."""

    HELLO = 0x01      # agent -> parent: shard index, incarnation, version
    COMMAND = 0x02    # parent -> agent: one shard command (burst, drain, ...)
    REPLY = 0x03      # agent -> parent: the command's single reply
    HEARTBEAT = 0x04  # either side: liveness beacon on silence (health/eviction)
    # 0x05 stays unassigned, so a v2 peer's snapshot push fails to decode.
    BYE = 0x06        # either side: orderly teardown announcement


KNOWN_CONTROL_VERBS = frozenset(
    value for name, value in vars(ControlVerb).items() if not name.startswith("_")
)


@dataclass(frozen=True)
class ControlFrame:
    """One fabric control-plane message: verb, version, opaque body.

    The codec treats the body as bytes on purpose: control payloads are
    rich Python structures (registrations carry protocol/setup objects)
    serialized by the *control plane* for its trusted parent<->agent link,
    and the wire layer must stay total — any byte string decodes or raises
    :class:`~repro.exceptions.WireFormatError`, never executes content.
    Versioning rides in the frame so both ends can refuse (or down-convert)
    a peer's format without having to parse its body first.
    """

    verb: int
    version: int
    payload: bytes

    frame_type = FrameType.CONTROL

    def __post_init__(self) -> None:
        if self.verb not in KNOWN_CONTROL_VERBS:
            raise WireFormatError(f"unknown control verb 0x{self.verb:02x}")
        if not 0 <= self.version < 256:
            raise WireFormatError(f"control version {self.version} out of range")


Frame = (
    BlindedScoresFrame
    | ExtractedCandidatesFrame
    | OtPublicsFrame
    | OtResponsesFrame
    | OtCipherPairsFrame
    | OtExtColumnsFrame
    | OtExtPairsFrame
    | GarbledCircuitFrame
    | OutputLabelsFrame
    | FeaturesFrame
    | ClassifyResultFrame
    | SessionStateFrame
    | ControlFrame
)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
class WireCodec:
    """Encode/decode protocol frames.

    Ciphertext-bearing frames need *scheme* (and, for Paillier, *public_key*)
    to delegate to the scheme codec; a codec built without them can still
    handle every other frame type, which is what standalone OT/Yao runs use.
    """

    def __init__(
        self,
        scheme: AHEScheme | None = None,
        public_key: AHEPublicKey | None = None,
    ) -> None:
        self.scheme = scheme
        self.public_key = public_key

    # -- encoding ----------------------------------------------------------
    def encode(self, frame: Frame) -> bytes:
        frame_type = getattr(frame, "frame_type", None)
        if frame_type is None:
            raise WireFormatError(f"not a protocol frame: {type(frame)!r}")
        writer = ByteWriter()
        writer.u8(WIRE_MAGIC).u8(WIRE_VERSION).u8(frame_type)
        if isinstance(frame, (BlindedScoresFrame, ExtractedCandidatesFrame)):
            self._encode_ciphertexts(writer, frame.ciphertexts)
        elif isinstance(frame, (OtPublicsFrame, OtResponsesFrame)):
            writer.u32(len(frame.elements))
            for element in frame.elements:
                writer.big_uint(element)
        elif isinstance(frame, (OtCipherPairsFrame, OtExtPairsFrame)):
            writer.u32(len(frame.pairs))
            writer.blobs(message for first, second in frame.pairs for message in (first, second))
        elif isinstance(frame, OtExtColumnsFrame):
            writer.u32(frame.start_index)
            writer.u32(len(frame.columns))
            writer.blobs(frame.columns)
        elif isinstance(frame, GarbledCircuitFrame):
            writer.blob(frame.tables.to_bytes())
            self._encode_labels(writer, frame.garbler_labels)
            writer.u8(1 if frame.decode_at_evaluator else 0)
        elif isinstance(frame, OutputLabelsFrame):
            self._encode_labels(writer, frame.labels)
        elif isinstance(frame, FeaturesFrame):
            writer.u32(len(frame.features))
            for index, frequency in frame.features:
                writer.u32(index)
                writer.u32(frequency)
        elif isinstance(frame, ClassifyResultFrame):
            writer.u32(frame.category)
        elif isinstance(frame, SessionStateFrame):
            writer.raw(frame.state.to_bytes())
        elif isinstance(frame, ControlFrame):
            writer.u8(frame.verb).u8(frame.version).blob(frame.payload)
        else:
            raise WireFormatError(f"no encoder for frame type {type(frame)!r}")
        return writer.getvalue()

    def _encode_ciphertexts(
        self, writer: ByteWriter, ciphertexts: tuple[AHECiphertext, ...]
    ) -> None:
        if self.scheme is None:
            raise WireFormatError("a scheme-less codec cannot encode ciphertext frames")
        writer.u16(len(ciphertexts))
        for ciphertext in ciphertexts:
            writer.blob(self.scheme.serialize_ciphertext(ciphertext))

    @staticmethod
    def _encode_labels(writer: ByteWriter, labels: tuple[bytes, ...]) -> None:
        writer.u32(len(labels))
        if any(len(label) != LABEL_BYTES for label in labels):
            raise WireFormatError("wire labels must be exactly LABEL_BYTES long")
        writer.raw(b"".join(labels))

    # -- decoding ----------------------------------------------------------
    def decode(self, data: bytes) -> Frame:
        reader = ByteReader(data)
        magic = reader.u8()
        if magic != WIRE_MAGIC:
            raise WireFormatError(f"bad frame magic 0x{magic:02x}")
        version = reader.u8()
        if version != WIRE_VERSION:
            raise WireFormatError(f"unsupported wire version {version}")
        frame_type = reader.u8()
        frame = self._decode_body(frame_type, reader)
        reader.expect_end()
        return frame

    def _decode_body(self, frame_type: int, reader: ByteReader) -> Frame:
        if frame_type in (FrameType.BLINDED_SCORES, FrameType.EXTRACTED_CANDIDATES):
            ciphertexts = self._decode_ciphertexts(reader)
            if frame_type == FrameType.BLINDED_SCORES:
                return BlindedScoresFrame(ciphertexts)
            return ExtractedCandidatesFrame(ciphertexts)
        if frame_type in (FrameType.OT_PUBLICS, FrameType.OT_RESPONSES):
            elements = tuple(reader.big_uint() for _ in range(reader.u32()))
            if frame_type == FrameType.OT_PUBLICS:
                return OtPublicsFrame(elements)
            return OtResponsesFrame(elements)
        if frame_type in (FrameType.OT_CIPHERPAIRS, FrameType.OT_EXT_PAIRS):
            messages = reader.blobs(2 * reader.u32())
            pairs = tuple(zip(messages[::2], messages[1::2]))
            if frame_type == FrameType.OT_CIPHERPAIRS:
                return OtCipherPairsFrame(pairs)
            return OtExtPairsFrame(pairs)
        if frame_type == FrameType.OT_EXT_COLUMNS:
            start_index = reader.u32()
            columns = tuple(reader.blobs(reader.u32()))
            return OtExtColumnsFrame(columns, start_index)
        if frame_type == FrameType.GARBLED_CIRCUIT:
            tables = GarbledTables.from_bytes(reader.blob())
            labels = self._decode_labels(reader)
            decode_at_evaluator = reader.u8() != 0
            return GarbledCircuitFrame(tables, labels, decode_at_evaluator)
        if frame_type == FrameType.OUTPUT_LABELS:
            return OutputLabelsFrame(self._decode_labels(reader))
        if frame_type == FrameType.FEATURES:
            return FeaturesFrame(
                tuple((reader.u32(), reader.u32()) for _ in range(reader.u32()))
            )
        if frame_type == FrameType.CLASSIFY_RESULT:
            return ClassifyResultFrame(reader.u32())
        if frame_type == FrameType.SESSION_STATE:
            return SessionStateFrame(SessionState._read(reader))
        if frame_type == FrameType.CONTROL:
            verb = reader.u8()
            if verb not in KNOWN_CONTROL_VERBS:
                raise WireFormatError(f"unknown control verb 0x{verb:02x}")
            return ControlFrame(verb=verb, version=reader.u8(), payload=reader.blob())
        raise WireFormatError(f"unknown frame type 0x{frame_type:02x}")

    def _decode_ciphertexts(self, reader: ByteReader) -> tuple[AHECiphertext, ...]:
        if self.scheme is None:
            raise WireFormatError("a scheme-less codec cannot decode ciphertext frames")
        return tuple(
            self.scheme.deserialize_ciphertext(reader.blob(), public_key=self.public_key)
            for _ in range(reader.u16())
        )

    @staticmethod
    def _decode_labels(reader: ByteReader) -> tuple[bytes, ...]:
        return tuple(reader.records(reader.u32(), LABEL_BYTES))
