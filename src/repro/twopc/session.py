"""Protocol sessions: reentrant, message-driven party state machines.

Every party of every two-party protocol in this repository is a
:class:`ProtocolSession`: it emits zero or more frames when the session
starts, and thereafter reacts to each incoming frame with zero or more
response frames.  Nothing inside a session blocks — all waiting lives in
whatever drives the session — so a provider can interleave thousands of
sessions (one per in-flight email) over one process, which is what the
multi-user serving loop of :mod:`repro.core.runtime` does.

Provider halves that decrypt AHE ciphertexts additionally split the decrypt
step out of :meth:`ProtocolSession.handle` (see :class:`DecryptingSession`):
the session *requests* a decryption and is later *supplied* with the slot
values, so the loop can fold requests across sessions into one
``decrypt_slots_many`` call, and can hold a parked session (to checkpoint,
migrate or reconnect it) without blocking anything.

:class:`SessionLoop` is the single frame pump every in-process driver shares;
a one-email run (:func:`run_session_pair`) and the multi-user serving loop
(:class:`repro.core.runtime.ProviderRuntime`) are the same loop over one job
or many.  Cross-process serving runs the same loop inside each shard worker
(:mod:`repro.core.runtime`); only control frames cross TCP.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.crypto.ahe import AHECiphertext, AHEKeyPair, AHEScheme
from repro.exceptions import ProtocolError, SnapshotError
from repro.obs import get_registry
from repro.obs.metrics import RECENT_SAMPLE_CAP
from repro.twopc.transport import FramedChannel
from repro.twopc.wire import Frame, SessionState, WireCodec
from repro.utils.serialization import canonical_dumps, canonical_loads


class ProtocolSession(ABC):
    """One party of a message-driven protocol.

    Subclasses implement :meth:`_start` and :meth:`_handle`; the public
    wrappers accumulate the party's CPU time in :attr:`seconds` (the paper's
    per-party CPU columns) and enforce that finished sessions go quiet.
    """

    def __init__(self) -> None:
        self.finished = False
        self.started = False
        self.seconds = 0.0

    # -- driver-facing API --------------------------------------------------
    def start(self) -> list[Frame]:
        """Frames this party sends before having received anything.

        Runs at most once: a session restored from a snapshot comes back with
        ``started`` already set, and every driver gates on it, so restoring
        never re-executes the (possibly expensive) opening step.
        """
        if self.started:
            raise ProtocolError(f"{type(self).__name__} was started twice")
        self.started = True
        begin = time.perf_counter()
        frames = self._start()
        self.seconds += time.perf_counter() - begin
        return frames

    def handle(self, frame: Frame) -> list[Frame]:
        """React to one incoming frame with zero or more response frames."""
        if self.finished:
            raise ProtocolError(f"{type(self).__name__} received a frame after finishing")
        begin = time.perf_counter()
        frames = self._handle(frame)
        self.seconds += time.perf_counter() - begin
        return frames

    # -- protocol logic (subclasses) ----------------------------------------
    def _start(self) -> list[Frame]:
        return []

    @abstractmethod
    def _handle(self, frame: Frame) -> list[Frame]:
        """Protocol logic; runs inside the timing wrapper."""

    def _unexpected(self, frame: Frame) -> list[Frame]:
        raise ProtocolError(
            f"{type(self).__name__} cannot handle a {type(frame).__name__} in its current state"
        )

    # -- session persistence (the SessionState contract) ---------------------
    def snapshot(self) -> SessionState:
        """Capture this party's resumable state as a :class:`SessionState`.

        Subclasses that support persistence override this (and provide a
        ``restore(...)`` classmethod taking the state plus the shared context
        — protocol, setup, circuit, pool — that is never serialized).  The
        default refuses: a session that cannot be snapshotted is recovered by
        re-running it from its inputs, never by silently dropping state.
        """
        raise SnapshotError(f"{type(self).__name__} does not support snapshots")


def encode_state_payload(**fields: Any) -> bytes:
    """Canonically encode a session-state payload (sorted keys, stable bytes)."""
    return canonical_dumps(dict(fields))


def decode_state_payload(state: SessionState, kind: int, version: int) -> dict:
    """Validate *state*'s kind/version and decode its canonical payload."""
    if state.kind != kind:
        raise SnapshotError(
            f"session state of kind 0x{state.kind:02x} given to a 0x{kind:02x} restore"
        )
    if state.version != version:
        raise SnapshotError(
            f"unsupported session-state version {state.version} "
            f"(this build reads version {version})"
        )
    try:
        payload = canonical_loads(state.payload)
    except Exception as error:
        raise SnapshotError(f"malformed session-state payload: {error}") from error
    if not isinstance(payload, dict):
        raise SnapshotError("session-state payload must decode to a mapping")
    return payload


def _restore_base_fields(session: ProtocolSession, payload: dict) -> None:
    """Apply the progress fields every session payload carries."""
    session.started = bool(payload["started"])
    session.finished = bool(payload["finished"])
    session.seconds = float(payload["seconds"])


@dataclass
class DecryptionRequest:
    """A provider session's parked decryption work, ready for batching."""

    scheme: AHEScheme
    keypair: AHEKeyPair
    ciphertexts: list[AHECiphertext]


class DecryptingSession(ProtocolSession):
    """A session whose decrypt step is separable for cross-session batching.

    After a :meth:`handle` call, the driver checks :meth:`decryption_request`;
    if non-``None`` the session is parked until :meth:`supply_decrypted` is
    called with one slot list per requested ciphertext, which resumes the
    protocol and returns the next outgoing frames.  The time spent inside the
    batch decrypt itself is attributed by the driver (see
    :meth:`add_seconds`), since the session does not run it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._decryption_request: DecryptionRequest | None = None

    def decryption_request(self) -> DecryptionRequest | None:
        """The pending request, or ``None``; the driver takes ownership of it."""
        request = self._decryption_request
        self._decryption_request = None
        return request

    def supply_decrypted(self, slot_lists: list[list[int]]) -> list[Frame]:
        """Resume the protocol with the decrypted slots of the requested ciphertexts."""
        begin = time.perf_counter()
        frames = self._resume_with_decryption(slot_lists)
        self.seconds += time.perf_counter() - begin
        return frames

    def add_seconds(self, seconds: float) -> None:
        """Attribute externally measured work (this session's share of a batch decrypt)."""
        self.seconds += seconds

    @abstractmethod
    def _resume_with_decryption(self, slot_lists: list[list[int]]) -> list[Frame]:
        """Protocol logic continuing after the decrypt; runs inside the timing wrapper."""


class BufferedProviderSession(DecryptingSession):
    """A provider half of shape *request → decrypt → inner session*.

    Both the spam and topic providers follow the same skeleton: the first
    frame is the protocol request (blinded scores), whose handling parks a
    decryption; the decrypted slots then build an inner (Yao) session that
    every later frame is delegated to.  Because the peer's OT opener can
    outrun the decrypt, frames that arrive before the inner session exists
    are buffered and replayed in order — that logic lives here exactly once.

    Subclasses implement :meth:`_handle_request` (validate the request frame
    and set ``self._decryption_request``), :meth:`_build_inner_session`
    (construct the inner session from the decrypted slots), and optionally
    :meth:`_inner_finished` (harvest the inner session's output).
    """

    def __init__(self) -> None:
        super().__init__()
        self._inner: ProtocolSession | None = None
        self._awaiting_request = True
        self._buffered: list[Frame] = []

    def _handle(self, frame: Frame) -> list[Frame]:
        if self._is_request(frame):
            if not self._awaiting_request:
                return self._unexpected(frame)
            # A refused request raises here and leaves the session as it was.
            frames = self._handle_request(frame)
            self._awaiting_request = False
            return frames
        if self._inner is None:
            self._buffered.append(frame)
            return []
        return self._delegate(frame)

    def _resume_with_decryption(self, slot_lists: list[list[int]]) -> list[Frame]:
        self._inner = self._build_inner_session(slot_lists)
        frames = self._inner.start()
        while self._buffered:
            frames += self._delegate(self._buffered.pop(0))
        return frames

    def _delegate(self, frame: Frame) -> list[Frame]:
        assert self._inner is not None
        frames = self._inner.handle(frame)
        if self._inner.finished:
            self._inner_finished(self._inner)
            self.finished = True
        return frames

    # -- subclass hooks ------------------------------------------------------
    @abstractmethod
    def _is_request(self, frame: Frame) -> bool:
        """Whether *frame* is this protocol's opening request."""

    @abstractmethod
    def _handle_request(self, frame: Frame) -> list[Frame]:
        """Validate the request and park the decryption (set ``_decryption_request``)."""

    @abstractmethod
    def _build_inner_session(self, slot_lists: list[list[int]]) -> ProtocolSession:
        """Build the post-decrypt inner session (the provider's Yao half)."""

    def _inner_finished(self, inner: ProtocolSession) -> None:
        """Harvest the inner session's output (default: nothing to harvest)."""

    # -- session persistence --------------------------------------------------
    # The whole park/buffer/replay skeleton snapshots here exactly once;
    # subclasses contribute their kind byte, the ciphertext-capable codec,
    # protocol-specific extras, and the inner-session rebuild.
    # 2: pending BV blobs are score samples, the inner circuit narrower;
    # 3: spam parks one margin slot and both inner circuits changed shape;
    # 4: the inner Yao rows and OT pads are fixed-key AES hashes.
    STATE_VERSION = 4

    _state_kind: int | None = None  # subclasses set a SessionStateKind value

    def snapshot(self, pending: DecryptionRequest | None = None) -> SessionState:
        """Snapshot the provider half, optionally folding back *pending*.

        A parked session's :class:`DecryptionRequest` is owned by the driver
        (the scheduler window), not the session — the checkpointing driver
        passes it back in so the snapshot captures the complete cross-party
        state.
        """
        if self._state_kind is None:
            return super().snapshot()
        codec = self._state_codec()
        if pending is None:
            pending = self._decryption_request
        scheme = self._pending_scheme()
        return SessionState(
            kind=self._state_kind,
            version=self.STATE_VERSION,
            payload=encode_state_payload(
                started=self.started,
                finished=self.finished,
                seconds=self.seconds,
                awaiting_request=self._awaiting_request,
                buffered=[codec.encode(frame) for frame in self._buffered],
                pending=(
                    None
                    if pending is None
                    else [
                        scheme.serialize_ciphertext(ciphertext)
                        for ciphertext in pending.ciphertexts
                    ]
                ),
                inner=None if self._inner is None else self._inner.snapshot().to_bytes(),
                extra=self._snapshot_extra(),
            ),
        )

    def _restore_common(self, state: SessionState) -> None:
        """Apply a snapshot produced by :meth:`snapshot` to this fresh session."""
        payload = decode_state_payload(state, self._state_kind, self.STATE_VERSION)
        _restore_base_fields(self, payload)
        self._awaiting_request = bool(payload["awaiting_request"])
        codec = self._state_codec()
        self._buffered = [codec.decode(encoded) for encoded in payload["buffered"]]
        if payload["pending"] is not None:
            scheme = self._pending_scheme()
            self._decryption_request = DecryptionRequest(
                scheme=scheme,
                keypair=self._pending_keypair(),
                ciphertexts=[
                    scheme.deserialize_ciphertext(
                        encoded, public_key=self._pending_keypair().public
                    )
                    for encoded in payload["pending"]
                ],
            )
        # Extras first: rebuilding the inner session may depend on them
        # (e.g. the topic provider's candidate count selects the circuit).
        self._apply_extra(payload["extra"])
        if payload["inner"] is not None:
            self._inner = self._restore_inner(SessionState.from_bytes(payload["inner"]))

    def _snapshot_extra(self) -> dict:
        """Protocol-specific extra payload fields (default: none)."""
        return {}

    def _apply_extra(self, extra: dict) -> None:
        """Restore counterpart of :meth:`_snapshot_extra`."""

    def _state_codec(self) -> WireCodec:
        """The codec that can carry this protocol's buffered frames."""
        raise SnapshotError(f"{type(self).__name__} does not support snapshots")

    def _pending_scheme(self):
        """The AHE scheme of this provider's parked ciphertexts."""
        raise SnapshotError(f"{type(self).__name__} does not support snapshots")

    def _pending_keypair(self):
        """The key pair of this provider's parked ciphertexts."""
        raise SnapshotError(f"{type(self).__name__} does not support snapshots")

    def _restore_inner(self, state: SessionState) -> ProtocolSession:
        """Rebuild the inner (Yao) session from its nested snapshot."""
        raise SnapshotError(f"{type(self).__name__} does not support snapshots")


# ---------------------------------------------------------------------------
# The session loop: the one frame pump every driver uses
# ---------------------------------------------------------------------------
@dataclass
class SessionJob:
    """One in-flight protocol run: two state machines over one channel."""

    channel: FramedChannel
    client: ProtocolSession
    provider: ProtocolSession
    label: Any = None
    client_name: str = "client"
    provider_name: str = "provider"
    #: In-process correlation id for span tracing (never serialized; the wire
    #: format and golden frame bytes are untouched).  Minted by the runtime at
    #: admission; None for jobs driven outside the serving loop.
    trace_id: str | None = None
    _inbound: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._inbound = {self.client_name: 0, self.provider_name: 0}

    @property
    def finished(self) -> bool:
        return self.client.finished and self.provider.finished

    def session(self, name: str) -> ProtocolSession:
        return self.client if name == self.client_name else self.provider

    def dispatch(self, sender: str, frames: list[Frame]) -> None:
        for frame in frames:
            self.channel.send(sender, frame)
            self._inbound[self.channel.transport.peer_of(sender)] += 1


@dataclass
class _ParkedDecryption:
    job: SessionJob
    party: str
    session: DecryptingSession
    request: DecryptionRequest


class SessionLoop:
    """Drive any number of session jobs to completion over their channels.

    This is the *only* frame pump in the repository — the single-session
    drivers (``run_session_pair``, and through it the protocol ``classify``
    methods and the base-OT handshake) and the multi-user
    serving loop (:class:`repro.core.runtime.ProviderRuntime`) all run this
    same loop, so delivery order, decrypt servicing and deadlock detection
    cannot diverge between arrangements.

    The loop alternates two phases until every job finishes: (1) deliver all
    deliverable frames of every job, collecting the decryption requests of
    sessions that parked; (2) fold the parked requests into one
    ``decrypt_slots_many`` call per distinct key pair and resume the parked
    sessions.  Batch CPU time is attributed back to sessions proportionally
    to their ciphertext counts.

    ``decrypt_batch_sizes`` records the size of the last
    ``RECENT_SAMPLE_CAP`` batched calls — tests use it to verify that
    batching actually happened; the ``decrypt_batch_ciphertexts`` histogram
    and the ``decrypt_batches_total`` counter hold the whole history.
    """

    def __init__(self) -> None:
        self.decrypt_batch_sizes: list[int] = []
        registry = get_registry()
        self._metric_batches = registry.counter("decrypt_batches_total")
        self._metric_batch_sizes = registry.histogram("decrypt_batch_ciphertexts")

    def run(self, jobs: Sequence[SessionJob]) -> None:
        """Drive every job to completion; raises on protocol deadlock."""
        parked: list[_ParkedDecryption] = []
        for job in jobs:
            for name in (job.client_name, job.provider_name):
                session = job.session(name)
                if not session.started:
                    job.dispatch(name, session.start())
                self._collect_parked(job, name, session, parked)
        while True:
            progressed = self._deliver_all(jobs, parked)
            if parked:
                self._service_batched_decryption(parked)
                parked = []
                progressed = True
            if all(job.finished for job in jobs):
                return
            if not progressed:
                stuck = [job.label for job in jobs if not job.finished]
                raise ProtocolError(f"session loop deadlock; unfinished jobs: {stuck}")

    # -- phase 1: frame delivery -------------------------------------------------
    def _deliver_all(
        self, jobs: Sequence[SessionJob], parked: list[_ParkedDecryption]
    ) -> bool:
        progressed = False
        for job in jobs:
            for name in (job.provider_name, job.client_name):
                session = job.session(name)
                while job._inbound[name]:
                    frame = job.channel.receive(name)
                    job._inbound[name] -= 1
                    job.dispatch(name, session.handle(frame))
                    self._collect_parked(job, name, session, parked)
                    progressed = True
        return progressed

    @staticmethod
    def _collect_parked(
        job: SessionJob, party: str, session: ProtocolSession, parked: list[_ParkedDecryption]
    ) -> None:
        if isinstance(session, DecryptingSession):
            request = session.decryption_request()
            if request is not None:
                parked.append(
                    _ParkedDecryption(job=job, party=party, session=session, request=request)
                )

    # -- phase 2: cross-session batched decryption ---------------------------------
    def _service_batched_decryption(self, parked: list[_ParkedDecryption]) -> None:
        for entries in group_by_keypair(parked).values():
            self._service_group(entries)

    def _service_group(self, entries: list[_ParkedDecryption]) -> None:
        """One ``decrypt_slots_many`` call covering *entries* (same key pair)."""
        ciphertexts = [
            ciphertext for entry in entries for ciphertext in entry.request.ciphertexts
        ]
        self.decrypt_batch_sizes.append(len(ciphertexts))
        if len(self.decrypt_batch_sizes) > RECENT_SAMPLE_CAP:
            del self.decrypt_batch_sizes[0]
        self._metric_batches.inc()
        self._metric_batch_sizes.observe(len(ciphertexts))
        request = entries[0].request
        begin = time.perf_counter()
        slot_lists = request.scheme.decrypt_slots_many(request.keypair, ciphertexts)
        per_ciphertext_seconds = (time.perf_counter() - begin) / max(1, len(ciphertexts))
        offset = 0
        for entry in entries:
            count = len(entry.request.ciphertexts)
            entry.session.add_seconds(per_ciphertext_seconds * count)
            frames = entry.session.supply_decrypted(slot_lists[offset : offset + count])
            offset += count
            entry.job.dispatch(entry.party, frames)


def decrypt_group_key(request: DecryptionRequest) -> tuple[int, int]:
    """The batching identity of a decryption request: its (scheme, keypair).

    Both places that fold decrypts — the in-process loop and the windowed
    scheduler — must group by the *same* identity, so the key expression
    lives here exactly once.
    """
    return (id(request.scheme), id(request.keypair))


def group_by_keypair(parked: Sequence[_ParkedDecryption]) -> dict[tuple[int, int], list]:
    """Group parked decrypts by :func:`decrypt_group_key`, insertion-ordered."""
    groups: dict[tuple[int, int], list[_ParkedDecryption]] = {}
    for entry in parked:
        groups.setdefault(decrypt_group_key(entry.request), []).append(entry)
    return groups


def run_session_pair(
    channel: FramedChannel,
    sessions: dict[str, ProtocolSession],
) -> None:
    """Drive two sessions over *channel* until both finish.

    *sessions* maps the channel's two party names to their sessions.  A thin
    wrapper over :class:`SessionLoop` with a single job; the session whose
    decrypt step is separable (if any) is placed in the job's provider slot
    so resumed frames are attributed to the right party.
    """
    if set(sessions) != set(channel.parties):
        raise ProtocolError(
            f"sessions {sorted(sessions)} do not match channel parties {channel.parties}"
        )
    first, second = channel.parties
    if isinstance(sessions[first], DecryptingSession) and not isinstance(
        sessions[second], DecryptingSession
    ):
        provider_name, client_name = first, second
    else:
        client_name, provider_name = first, second
    job = SessionJob(
        channel=channel,
        client=sessions[client_name],
        provider=sessions[provider_name],
        client_name=client_name,
        provider_name=provider_name,
    )
    SessionLoop().run([job])
