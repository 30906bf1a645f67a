"""Multi-user provider serving loop (§6.3's deployment story as running code).

A deployed Pretzel provider serves millions of mailboxes; per-email protocol
work arrives concurrently, not one session at a time.  This module supplies
the runtime layer that makes the provider half scale:

* :class:`SessionJob` — one in-flight email: a client/provider session pair
  over its own framed channel (sessions are reentrant state machines, so a
  job carries *all* of its protocol state).
* :class:`ProviderRuntime` — the serving loop.  It multiplexes any number of
  jobs, delivering frames round-robin, and *parks* provider sessions at
  their decrypt step: the parked decryption requests of one delivery pass
  that share a key pair are folded into one ``decrypt_slots_many`` call.
  (A BV score sample decrypts with no transform, so the fold saves almost
  nothing per request; it is kept because it costs nothing either.)  Batch
  CPU time is attributed back to sessions proportionally to their
  ciphertext counts.
* :class:`MailboxDirectory` — per-user protocol state kept warm between
  emails: the setup objects (key pairs, encrypted models) and, through
  :meth:`~repro.crypto.packing.PackedLinearModel.ensure_stacks`, the dense
  stacked encrypted-model rows, so no email in a burst pays the one-time
  stacking cost.

Every layer serves any :class:`ProviderFunction` — spam and topics are two
instances — through one code path: the protocol object is the registration.
:func:`run_batch` is the convenience driver used by the tests and function
modules: N requests in, N protocol results out, with every frame serialized
and every byte counted.

Scaling past one loop (cf. the §6.3 estimates):

* :class:`DecryptScheduler` — when a parked decrypt fires.  The default
  fires on arrival (at the end of the burst that parked it); a wider window
  (``window_bursts``, ``max_delay_seconds``) holds parked decrypts *across
  bursts*, per key pair, which only adds latency now but gives the
  checkpoint, migration and reconnect paths a place where an email waits.
* :class:`ProviderRuntime.serve_burst`/:meth:`ProviderRuntime.drain` — the
  windowed serving entry points: jobs whose decrypts are still inside an
  open window stay parked between bursts and complete when it closes.
* :class:`ShardDriver` — N workers, each owning the mailboxes that hash to
  its slots (stable SHA-256 partition) with its own
  :class:`MailboxDirectory` (warm OT pools, stacked model rows) and windowed
  :class:`ProviderRuntime`.  Shards are embarrassingly parallel because all
  decrypt batching is per key pair, which never crosses a mailbox.  Every
  worker is a :mod:`repro.fabric` agent and the driver reaches each through
  the one control link, :class:`repro.fabric.control.TcpLink`:
  :class:`ShardedRuntime` forks its agents in this box onto socketpairs,
  :func:`repro.fabric.launch_fabric` dials agents over TCP.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import numbers
import os
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, Sequence

from repro.crypto.chacha import open_sealed, seal
from repro.crypto.ot import OtExtensionPool
from repro.exceptions import IntegrityError, ProtocolError, SnapshotError
from repro.obs import get_registry, get_tracer, merge_snapshots
from repro.twopc.session import SessionJob, SessionLoop, _ParkedDecryption, decrypt_group_key
from repro.twopc.wire import SessionState
from repro.utils.serialization import canonical_dumps, canonical_loads

if TYPE_CHECKING:  # annotations of the spam_*/topic_* convenience names only
    from repro.twopc.spam import SpamFilterProtocol, SpamProtocolResult, SpamSetup
    from repro.twopc.topics import TopicExtractionProtocol, TopicSetup

SparseVector = Mapping[int, int]


# ---------------------------------------------------------------------------
# The decrypt scheduler
# ---------------------------------------------------------------------------
@dataclass
class _DecryptWindow:
    """Parked decrypts for one key pair, accumulating until the window closes."""

    entries: list[_ParkedDecryption] = field(default_factory=list)
    #: Enqueue time of each entry, parallel to ``entries`` (for the age histogram).
    entry_times: list[float] = field(default_factory=list)
    ciphertext_count: int = 0
    opened_at: float = 0.0
    opened_burst: int = 0


def _check_window(window_bursts: Any, max_delay_seconds: Any) -> None:
    """Refuse a decrypt window no scheduler can honour, with :class:`ProtocolError`.

    ``window_bursts`` must be an integer of at least 1 (not a ``bool``);
    ``max_delay_seconds`` must be ``None`` or a finite number of at least 0.
    A ``nan`` or ``inf`` delay would quote a deadline no timer can sleep
    to, and turn a worker's idle loop into a busy loop.
    """
    if (
        isinstance(window_bursts, bool)
        or not isinstance(window_bursts, numbers.Integral)
        or window_bursts < 1
    ):
        raise ProtocolError(f"window_bursts must be an integer >= 1, got {window_bursts!r}")
    if max_delay_seconds is not None and (
        isinstance(max_delay_seconds, bool)
        or not isinstance(max_delay_seconds, numbers.Real)
        or not math.isfinite(max_delay_seconds)
        or max_delay_seconds < 0
    ):
        raise ProtocolError(
            f"max_delay_seconds must be None or a finite number >= 0, got {max_delay_seconds!r}"
        )


def checked_scheduler_spec(spec: Any) -> tuple[int, float | None]:
    """A worker's ``(window_bursts, max_delay_seconds)``, checked before any use.

    The spec crosses a process boundary (an agent's HELLO body), so a
    worker refuses a malformed one here instead of failing somewhere inside
    its serving loop.
    """
    if not isinstance(spec, (tuple, list)) or len(spec) != 2:
        raise ProtocolError(
            f"a scheduler spec is (window_bursts, max_delay_seconds), got {spec!r}"
        )
    window_bursts, max_delay_seconds = spec
    _check_window(window_bursts, max_delay_seconds)
    return window_bursts, max_delay_seconds


class DecryptScheduler:
    """When parked provider decrypts fire, per key pair.

    Requests parked in burst *b* are held in a per-key-pair *window* until

    * ``window_bursts`` bursts have completed since the window opened, or
    * ``max_delay_seconds`` have elapsed since the window opened,

    whichever trigger is observed first.  The defaults (``window_bursts=1``,
    no age trigger) fire on arrival: every window closes at the end of the
    burst that opened it, folding that burst's decrypts into one
    ``decrypt_slots_many`` call per key pair.  Nothing is gained by waiting
    longer — a BV score sample decrypts with no transform, and Paillier's
    batch call is a loop — so a wider window only adds its width to every
    email's latency.  The knobs stay for callers that want emails parked: a
    fleet that passes its window explicitly, and the checkpoint, migration
    and reconnect paths, which need a place where an email waits.  The
    scheduler honours exactly the arguments it is given.

    The scheduler is *poll-driven*: triggers are evaluated when the serving
    loop calls :meth:`take_due` — from ``serve_burst``, ``drain``, *and*
    :meth:`ProviderRuntime.poll`, the traffic-free flush tick, so an idle
    provider still closes aged windows on schedule (the shard workers' idle
    tick, a test's fake clock).  Windows are per key pair by construction, so
    nothing here ever mixes mailboxes.  Every release observes each entry's
    enqueue→fired age in the ``decrypt_age_seconds`` histogram.
    """

    def __init__(
        self,
        window_bursts: int = 1,
        max_delay_seconds: float | None = None,
        clock=time.monotonic,
    ) -> None:
        _check_window(window_bursts, max_delay_seconds)
        self.window_bursts = window_bursts
        self.max_delay_seconds = max_delay_seconds
        self._clock = clock
        self._windows: dict[tuple[int, int], _DecryptWindow] = {}
        self._burst = 0
        registry = get_registry()
        self._metric_age = registry.histogram("decrypt_age_seconds")
        self._metric_flush_ciphertexts = registry.histogram("window_flush_ciphertexts")
        self._metric_flush_sessions = registry.histogram("window_flush_sessions")
        self._metric_pending = registry.gauge("pending_window_ciphertexts")

    def enqueue(self, entry: _ParkedDecryption) -> None:
        now = self._clock()
        key = decrypt_group_key(entry.request)
        window = self._windows.get(key)
        if window is None:
            window = _DecryptWindow(opened_at=now, opened_burst=self._burst)
            self._windows[key] = window
        window.entries.append(entry)
        window.entry_times.append(now)
        window.ciphertext_count += len(entry.request.ciphertexts)
        self._metric_pending.inc(len(entry.request.ciphertexts))

    def end_burst(self) -> None:
        """Mark a burst boundary (ages every open window by one burst)."""
        self._burst += 1

    def _is_due(self, window: _DecryptWindow, now: float) -> bool:
        if self._burst - window.opened_burst >= self.window_bursts:
            return True
        # Same expression as next_deadline(), so polling exactly at the quoted
        # deadline fires (now - opened >= delay can round the other way).
        return (
            self.max_delay_seconds is not None
            and now >= window.opened_at + self.max_delay_seconds
        )

    def take_due(self, now: float | None = None) -> list[list[_ParkedDecryption]]:
        """Pop and return every window whose trigger has fired."""
        now = self._clock() if now is None else now
        due = [key for key, window in self._windows.items() if self._is_due(window, now)]
        return [self._release(self._windows.pop(key), now) for key in due]

    def _release(self, window: _DecryptWindow, now: float) -> list[_ParkedDecryption]:
        """Record the released entries' ages and hand the entries back."""
        for enqueued in window.entry_times:
            self._metric_age.observe(now - enqueued)
        self._metric_flush_ciphertexts.observe(window.ciphertext_count)
        self._metric_flush_sessions.observe(len(window.entries))
        self._metric_pending.dec(window.ciphertext_count)
        return window.entries

    def next_deadline(self) -> float | None:
        """The earliest time an open window's age trigger will fire, or ``None``.

        ``None`` means no timer is needed: either nothing is parked or there
        is no ``max_delay_seconds`` trigger configured.  Drivers with a timer
        (the shard workers' idle tick, the trace-replay harness) use this to
        schedule the next :meth:`ProviderRuntime.poll` instead of guessing.
        """
        if self.max_delay_seconds is None or not self._windows:
            return None
        return min(window.opened_at for window in self._windows.values()) + (
            self.max_delay_seconds
        )

    def flush(self) -> list[list[_ParkedDecryption]]:
        """Pop every open window regardless of triggers (shutdown / drain)."""
        now = self._clock()
        windows, self._windows = list(self._windows.values()), {}
        return [self._release(window, now) for window in windows]

    def detach_job(self, job: SessionJob) -> list[_ParkedDecryption]:
        """Pull every parked entry belonging to *job* out of its window.

        The reconnect-resume path: a disconnecting client's provider session
        must leave the batching machinery (its decrypt may otherwise fire
        while the client is away and try to send frames into a dead channel).
        The detached entries are handed back verbatim so
        :meth:`ProviderRuntime.reconnect_job` can re-enqueue them — the
        parked decrypt window re-attaches, it is never recomputed.  Windows
        emptied by the detach are closed.
        """
        detached: list[_ParkedDecryption] = []
        for key in list(self._windows):
            window = self._windows[key]
            kept: list[_ParkedDecryption] = []
            kept_times: list[float] = []
            for entry, enqueued in zip(window.entries, window.entry_times):
                if entry.job is job:
                    detached.append(entry)
                    window.ciphertext_count -= len(entry.request.ciphertexts)
                    self._metric_pending.dec(len(entry.request.ciphertexts))
                else:
                    kept.append(entry)
                    kept_times.append(enqueued)
            window.entries = kept
            window.entry_times = kept_times
            if not kept:
                del self._windows[key]
        return detached

    def pending_ciphertexts(self) -> int:
        return sum(window.ciphertext_count for window in self._windows.values())

    def parked_requests(self) -> dict[int, Any]:
        """``id(session) -> DecryptionRequest`` for every entry in an open window.

        The scheduler owns a parked session's request (the session handed it
        over when it parked), so checkpointing a session's complete state
        means folding the request back in — this is the lookup the
        checkpointer uses (see ``BufferedProviderSession.snapshot(pending=…)``).
        """
        requests: dict[int, Any] = {}
        for window in self._windows.values():
            for entry in window.entries:
                requests[id(entry.session)] = entry.request
        return requests


@dataclass
class _DisconnectedJob:
    """A job whose client went away: the provider session parked server-side."""

    job: SessionJob
    entries: list[_ParkedDecryption]


class ProviderRuntime(SessionLoop):
    """The multi-user provider serving loop.

    A thin domain name over :class:`~repro.twopc.session.SessionLoop` — the
    shared frame pump with cross-session batched decryption — so the same
    loop that drives one in-process session also drains a provider's burst
    of concurrent email jobs.  See :class:`MailboxDirectory` for the
    per-mailbox state the provider keeps warm between bursts.

    :meth:`run` keeps the PR 2 contract: drive a burst to completion, folding
    each round's parked decrypts immediately.  The *windowed* entry points —
    :meth:`serve_burst` and :meth:`drain` — thread a
    :class:`DecryptScheduler` through the same delivery phases, so decrypts
    can stay parked across bursts until their window closes; jobs whose
    sessions are inside an open window simply remain active between calls.
    """

    def __init__(self, scheduler: DecryptScheduler | None = None) -> None:
        super().__init__()
        self.scheduler = scheduler or DecryptScheduler()
        self._active: list[SessionJob] = []
        self._disconnected: dict[Any, _DisconnectedJob] = {}
        # Telemetry: spans follow each job enqueue → window park → decrypt →
        # reply on the scheduler's injected clock (VirtualClock replays give
        # bit-identical spans).  Marks are keyed by id(job) — SessionJob is a
        # dataclass with eq=True and therefore unhashable — and popped when
        # the job finishes.
        self._tracer = get_tracer()
        self._metric_emails = get_registry().counter("emails_served_total")
        self._trace_sequence = itertools.count()
        self._span_marks: dict[int, dict[str, Any]] = {}

    # -- telemetry ----------------------------------------------------------
    def _now(self) -> float:
        return self.scheduler._clock()

    def _mark(self, job: SessionJob) -> dict[str, Any]:
        mark = self._span_marks.get(id(job))
        if mark is None:
            if job.trace_id is None:
                job.trace_id = (
                    f"email-{job.label}"
                    if job.label is not None
                    else f"job-{next(self._trace_sequence)}"
                )
            mark = self._span_marks[id(job)] = {
                "trace_id": job.trace_id,
                "admitted": self._now(),
                "ciphertexts": 0,
            }
        return mark

    def _enqueue_parked(self, entry: _ParkedDecryption) -> None:
        """Park one decrypt in the scheduler, stamping the job's enqueue time."""
        self._mark(entry.job).setdefault("enqueued", self._now())
        self.scheduler.enqueue(entry)

    def _service_group(self, entries: list[_ParkedDecryption]) -> None:
        start = self._now()
        for entry in entries:
            mark = self._mark(entry.job)
            mark.setdefault("fired", start)
            mark.setdefault("decrypt_start", start)
            mark["ciphertexts"] += len(entry.request.ciphertexts)
        super()._service_group(entries)
        end = self._now()
        for entry in entries:
            self._mark(entry.job)["decrypt_end"] = end

    def _emit_spans(self, job: SessionJob, mark: dict[str, Any], now: float) -> None:
        trace_id = mark["trace_id"]
        admitted = mark["admitted"]
        enqueued = mark.get("enqueued")
        fired = mark.get("fired")
        decrypt_start = mark.get("decrypt_start")
        decrypt_end = mark.get("decrypt_end")
        self._tracer.record(
            trace_id, "enqueue", admitted, enqueued if enqueued is not None else admitted
        )
        if enqueued is not None and fired is not None:
            self._tracer.record(trace_id, "window_park", enqueued, fired)
        if decrypt_start is not None and decrypt_end is not None:
            self._tracer.record(
                trace_id,
                "decrypt",
                decrypt_start,
                decrypt_end,
                ciphertexts=mark["ciphertexts"],
            )
        reply_start = decrypt_end if decrypt_end is not None else admitted
        self._tracer.record(trace_id, "reply", reply_start, now)
        self._tracer.record(trace_id, "email", admitted, now, label=str(job.label))

    # -- reconnect-resume ----------------------------------------------------
    def disconnect_job(self, label: Any) -> SessionState:
        """Detach the client of job *label*; returns its session snapshot.

        The degraded-network story's server half: when a client's connection
        dies mid-protocol, the provider does not abandon the job.  The loop is
        first pumped to quiescence (so no frame is stranded inside the dead
        channel), the client session is snapshotted — these are the bytes the
        client device carries across the reconnect — and the provider session
        is parked server-side together with any decrypt-window entries it had
        in the scheduler.  The job stops counting as active until
        :meth:`reconnect_job` revives it; nothing about it is re-executed.

        Raises :class:`~repro.exceptions.ProtocolError` for an unknown or
        already-finished job, and propagates
        :class:`~repro.exceptions.SnapshotError` if the client session is at
        a position that cannot be snapshotted (the job stays active).
        """
        self._advance()
        job = next((item for item in self._active if item.label == label), None)
        if job is None:
            raise ProtocolError(f"no active job {label!r} to disconnect")
        if job.finished:
            raise ProtocolError(f"job {label!r} already finished; nothing to resume")
        if any(job._inbound.values()):
            raise ProtocolError(f"job {label!r} still has frames in flight")
        state = job.client.snapshot()  # may raise SnapshotError; job stays active
        entries = self.scheduler.detach_job(job)
        self._active.remove(job)
        self._disconnected[label] = _DisconnectedJob(job=job, entries=entries)
        return state

    def reconnect_job(self, label: Any, channel: Any, client: Any) -> SessionJob:
        """Re-attach a disconnected job on a fresh channel with a restored client.

        *client* is the session the returning device rebuilt from the
        snapshot :meth:`disconnect_job` handed out; *channel* is the fresh
        transport the reconnect arrived on.  The provider session (and its
        parked decrypt entries) re-attach exactly where they left off — the
        entries rejoin the scheduler, so the next burst, trigger, or drain
        closes their window and the protocol resumes with zero re-execution.
        """
        parked = self._disconnected.pop(label, None)
        if parked is None:
            raise ProtocolError(f"no disconnected job {label!r} to reconnect")
        old = parked.job
        job = SessionJob(
            channel=channel,
            client=client,
            provider=old.provider,
            label=label,
            client_name=old.client_name,
            provider_name=old.provider_name,
        )
        self._active.append(job)
        # Carry the span bookkeeping across the reconnect: the new job object
        # continues the old job's trace.
        old_mark = self._span_marks.pop(id(old), None)
        if old_mark is not None:
            job.trace_id = old_mark["trace_id"]
            self._span_marks[id(job)] = old_mark
        for entry in parked.entries:
            entry.job = job
            self._enqueue_parked(entry)
        return job

    def disconnected_jobs(self) -> int:
        """Jobs whose clients are away (parked server-side, awaiting reconnect)."""
        return len(self._disconnected)

    # -- windowed serving ----------------------------------------------------
    def serve_burst(self, jobs: Sequence[SessionJob]) -> list[SessionJob]:
        """Admit *jobs*, pump everything deliverable, close due windows.

        Returns the jobs (from this burst or earlier ones) that finished;
        jobs waiting on an open decrypt window stay active until a later
        burst, a trigger, or :meth:`drain` closes it.
        """
        for job in jobs:
            self._active.append(job)
            self._mark(job)  # admission opens the job's trace
            parked: list[_ParkedDecryption] = []
            for name in (job.client_name, job.provider_name):
                session = job.session(name)
                if not session.started:
                    job.dispatch(name, session.start())
                self._collect_parked(job, name, session, parked)
            for entry in parked:
                self._enqueue_parked(entry)
        self._advance()
        self.scheduler.end_burst()
        while True:
            due = self.scheduler.take_due()
            if not due:
                break
            for entries in due:
                self._service_group(entries)
            self._advance()
        return self._collect_finished()

    def poll(self, now: float | None = None) -> list[SessionJob]:
        """Close every window whose trigger has fired — without new traffic.

        The idle-starvation fix: :meth:`DecryptScheduler.take_due` is only
        evaluated when something calls it, so before this method existed an
        idle provider (no further bursts, no drain) held parked decrypts —
        and the clients' emails — past any ``max_delay_seconds``.  Drivers
        with a timer call this on a tick (the shard workers' idle loop, the
        trace-replay harness; tests pass an explicit fake-clock ``now``):
        aged windows are serviced, their sessions resumed, and any jobs that
        finish are returned.  A poll with nothing due is a cheap no-op.
        """
        due = self.scheduler.take_due(now)
        if not due:
            return self._collect_finished()
        for entries in due:
            self._service_group(entries)
        self._advance()  # deliver the resumed frames (and any newly due windows)
        return self._collect_finished()

    def drain(self) -> list[SessionJob]:
        """Close every open window and finish every active job."""
        while True:
            self._advance()
            groups = self.scheduler.flush()
            if not groups:
                break
            for entries in groups:
                self._service_group(entries)
        stuck = [job.label for job in self._active if not job.finished]
        if stuck:
            raise ProtocolError(f"serving loop deadlock after drain; unfinished jobs: {stuck}")
        return self._collect_finished()

    def outstanding_jobs(self) -> int:
        """Jobs admitted but not yet finished (waiting on an open window)."""
        return sum(1 for job in self._active if not job.finished)

    def _advance(self) -> None:
        """Deliver until quiescent, servicing windows as triggers fire.

        Runs to a fixed point: a delivery pass visits each party once, so a
        frame chain that hops back to an already-visited party (the topic
        provider receiving the garbler's tables, for example) needs another
        pass — returning after a single pass would strand deliverable frames
        and trip the drain-time deadlock check.
        """
        while True:
            parked: list[_ParkedDecryption] = []
            progressed = self._deliver_all(self._active, parked)
            for entry in parked:
                self._enqueue_parked(entry)
            due = self.scheduler.take_due()
            if due:
                for entries in due:
                    self._service_group(entries)
                continue
            if not progressed:
                return

    def _collect_finished(self) -> list[SessionJob]:
        finished = [job for job in self._active if job.finished]
        self._active = [job for job in self._active if not job.finished]
        if finished:
            now = self._now()
            for job in finished:
                mark = self._span_marks.pop(id(job), None)
                if mark is not None:
                    self._emit_spans(job, mark, now)
                self._metric_emails.inc()
        return finished


# ---------------------------------------------------------------------------
# Session stores: where serialized SessionState snapshots live
# ---------------------------------------------------------------------------
class SessionStore(ABC):
    """Keyed storage for serialized session snapshots and shard checkpoints.

    The value is always *bytes* (a :class:`~repro.twopc.wire.SessionState`
    encoding or a checkpoint blob of them) — the store never sees live
    objects, which is the whole point of the persistence contract: anything
    that outlives a process is explicit, versioned bytes.
    """

    @abstractmethod
    def put(self, key: str, blob: bytes) -> None:
        """Store *blob* under *key*, replacing any previous value."""

    @abstractmethod
    def get(self, key: str) -> bytes | None:
        """The blob stored under *key*, or ``None``."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove *key* if present (idempotent)."""

    @abstractmethod
    def keys(self) -> list[str]:
        """All stored keys, sorted."""


class InMemorySessionStore(SessionStore):
    """A dict-backed store: survives nothing, perfect for tests and handoffs."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, key: str, blob: bytes) -> None:
        self._blobs[key] = bytes(blob)

    def get(self, key: str) -> bytes | None:
        return self._blobs.get(key)

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)

    def keys(self) -> list[str]:
        return sorted(self._blobs)


class FileSessionStore(SessionStore):
    """One file per key under a directory; writes are atomic (tmp + rename).

    This is what lets a SIGKILLed shard worker come back: the checkpoint it
    wrote at the last burst boundary is on disk, and the replacement process
    (which shares nothing with the dead one) resumes from those bytes.

    Blobs are sealed at rest (ChaCha20 + HMAC-SHA256, encrypt-then-MAC):
    session snapshots carry garble and OT secrets, so the checkpoint files
    must not be plaintext (the ROADMAP's checkpoint-hygiene item).  By
    default the store keeps its 32-byte key in a ``store.key`` file beside
    the blobs — every opener of the same directory (a replacement worker, a
    reopened store) transparently shares it — or callers pass ``key=`` to
    keep it elsewhere.  :meth:`get` authenticates before returning: a
    tampered blob, a blob sealed under a different key, or a pre-existing
    *plaintext* checkpoint (no version byte) raises
    :class:`~repro.exceptions.SnapshotError` — refused, never misparsed.

    Beside the whole-blob keys the store also offers an *append-only record
    log* per key (:meth:`append_records` / :meth:`read_records` /
    :meth:`replace_records`): length-prefixed records, each sealed
    individually under the same store key (domain-separated info string).
    This is the bounded-write shard-checkpoint format — a burst boundary
    appends only what changed (see :class:`ShardCheckpointLog`) instead of
    rewriting every open session, so checkpoint cost tracks churn, not
    window width.
    """

    _SUFFIX = ".state"
    _LOG_SUFFIX = ".statelog"
    _KEY_FILE = "store.key"
    _INFO = b"pretzel-session-store"
    _LOG_INFO = b"pretzel-session-store-log"

    def __init__(self, directory: str | Path, key: bytes | None = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._key = bytes(key) if key is not None else self._load_or_create_key()

    def _load_or_create_key(self) -> bytes:
        path = self.directory / self._KEY_FILE
        try:
            # O_EXCL create: exactly one concurrent opener mints the key,
            # everyone else reads the winner's.
            with open(path, "xb") as handle:
                handle.write(os.urandom(32))
        except FileExistsError:
            pass
        return path.read_bytes()

    @staticmethod
    def _escape(key: str) -> str:
        return "".join(
            character
            if (character.isalnum() or character in "._-") and character != "%"
            else f"%{ord(character):02x}"
            for character in key
        )

    @staticmethod
    def _unescape(name: str) -> str:
        pieces = name.split("%")
        return pieces[0] + "".join(
            chr(int(piece[:2], 16)) + piece[2:] for piece in pieces[1:]
        )

    def _path(self, key: str) -> Path:
        return self.directory / (self._escape(key) + self._SUFFIX)

    def put(self, key: str, blob: bytes) -> None:
        path = self._path(key)
        temp = path.with_suffix(path.suffix + ".tmp")
        temp.write_bytes(seal(self._key, bytes(blob), info=self._INFO))
        os.replace(temp, path)

    def get(self, key: str) -> bytes | None:
        path = self._path(key)
        try:
            sealed = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return open_sealed(self._key, sealed, info=self._INFO)
        except IntegrityError as error:
            raise SnapshotError(f"checkpoint {key!r} refused: {error}") from error

    def delete(self, key: str) -> None:
        try:
            self._path(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self) -> list[str]:
        return sorted(
            self._unescape(path.name[: -len(self._SUFFIX)])
            for path in self.directory.glob(f"*{self._SUFFIX}")
        )

    # -- append-only record logs --------------------------------------------
    def _log_path(self, key: str) -> Path:
        return self.directory / (self._escape(key) + self._LOG_SUFFIX)

    def _sealed_stream(self, records: Sequence[bytes]) -> bytes:
        buffer = bytearray()
        for record in records:
            sealed = seal(self._key, bytes(record), info=self._LOG_INFO)
            buffer += len(sealed).to_bytes(4, "big") + sealed
        return bytes(buffer)

    def append_records(self, key: str, records: Sequence[bytes]) -> None:
        """Append *records* to the key's log in one write, each sealed.

        One ``write`` call per batch, so a crash mid-append tears at most the
        batch's tail — never a record in the middle of the file.
        """
        if not records:
            return
        with open(self._log_path(key), "ab") as handle:
            handle.write(self._sealed_stream(records))

    def read_records(self, key: str) -> list[bytes] | None:
        """Every record appended under *key*, oldest first; ``None`` if no log.

        A torn tail (crash mid-append) is dropped silently — everything
        before it is intact by construction, and whatever the torn batch
        carried is recovered by resubmission.  A record that fails
        authentication raises :class:`~repro.exceptions.SnapshotError`:
        damage *inside* an append-only file is tampering, not a crash
        artifact, and the whole log is refused.
        """
        try:
            data = self._log_path(key).read_bytes()
        except FileNotFoundError:
            return None
        records: list[bytes] = []
        offset = 0
        while offset + 4 <= len(data):
            length = int.from_bytes(data[offset : offset + 4], "big")
            if offset + 4 + length > len(data):
                break  # torn tail: the crash interrupted the final batch
            sealed = data[offset + 4 : offset + 4 + length]
            try:
                records.append(open_sealed(self._key, sealed, info=self._LOG_INFO))
            except IntegrityError as error:
                raise SnapshotError(f"checkpoint log {key!r} refused: {error}") from error
            offset += 4 + length
        return records

    def replace_records(self, key: str, records: Sequence[bytes]) -> None:
        """Atomically rewrite the key's log — the compaction primitive."""
        path = self._log_path(key)
        temp = path.with_suffix(path.suffix + ".tmp")
        temp.write_bytes(self._sealed_stream(records))
        os.replace(temp, path)

    def delete_records(self, key: str) -> None:
        try:
            self._log_path(key).unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Shard checkpoints: open decrypt windows as SessionState snapshots
# ---------------------------------------------------------------------------
CHECKPOINT_VERSION = 1


def checkpoint_open_windows(
    runtime: ProviderRuntime,
    directory: "MailboxDirectory",
    job_context: Mapping[int, tuple[str, str]],
    incarnation: str = "",
) -> bytes | None:
    """Serialize every open-window job of *runtime* (plus its OT pools).

    *job_context* maps job label -> (kind, address); jobs whose sessions
    decline to snapshot (:class:`~repro.exceptions.SnapshotError`) are simply
    left out — the parent recovers those by resubmission, so checkpointing
    degrades to the recompute path instead of failing.  Returns ``None``
    when there is nothing in flight (the caller clears the stored blob).

    *incarnation* names the parent runtime that owns these job ids; restore
    refuses a blob from a different incarnation, because job ids restart
    from zero in every parent and a stale checkpoint's sessions would
    otherwise be delivered under a fresh parent's colliding ids.
    """
    jobs_payload, pools_payload = _checkpoint_payloads(runtime, directory, job_context)
    if not jobs_payload:
        return None
    return canonical_dumps(
        {
            "version": CHECKPOINT_VERSION,
            "incarnation": incarnation,
            "pools": pools_payload,
            "jobs": jobs_payload,
        }
    )


def _checkpoint_payloads(
    runtime: ProviderRuntime,
    directory: "MailboxDirectory",
    job_context: Mapping[int, tuple[str, str]],
) -> tuple[list[dict], list[dict]]:
    """The (jobs, pools) payload lists shared by blob and log checkpointing."""
    parked = runtime.scheduler.parked_requests()
    jobs_payload: list[dict] = []
    pool_keys: set[tuple[str, str]] = set()
    for job in runtime._active:
        if job.finished:
            continue
        kind, address = job_context[job.label]
        try:
            client_state = job.client.snapshot().to_bytes()
            provider_state = job.provider.snapshot(
                pending=parked.get(id(job.provider))
            ).to_bytes()
        except SnapshotError:
            continue
        jobs_payload.append(
            {
                "job_id": job.label,
                "kind": kind,
                "address": address,
                "client": client_state,
                "provider": provider_state,
            }
        )
        pool_keys.add((kind, address))
    pools_payload: list[dict] = []
    for kind, address in sorted(pool_keys):
        pool = directory.pool_of(kind, address)
        if pool is not None:
            pools_payload.append(
                {"kind": kind, "address": address, "state": pool.snapshot().to_bytes()}
            )
    return jobs_payload, pools_payload


def restore_open_windows(
    blob: bytes, directory: "MailboxDirectory", incarnation: str = ""
) -> list[tuple[int, str, str, SessionJob]]:
    """Rebuild the jobs of a checkpoint blob against *directory*'s setups.

    Pools are restored *first* (overwriting any fresh pools registration
    replay created) so the rebuilt sessions extend the exact pad cursors
    their pre-crash frames were derived from.  Returns
    ``(job_id, kind, address, job)`` tuples ready for a serving loop; the
    caller admits them (their sessions are already started, so nothing
    re-executes).
    """
    try:
        data = canonical_loads(blob)
    except Exception as error:
        raise SnapshotError(f"malformed shard checkpoint: {error}") from error
    if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
        raise SnapshotError("unsupported shard checkpoint format")
    if data.get("incarnation") != incarnation:
        raise SnapshotError(
            "shard checkpoint belongs to a different runtime incarnation "
            "(its job ids would collide with this parent's)"
        )
    for record in data["pools"]:
        pool = OtExtensionPool.restore(SessionState.from_bytes(record["state"]))
        directory.set_pool(record["kind"], record["address"], pool)
    restored: list[tuple[int, str, str, SessionJob]] = []
    for record in data["jobs"]:
        kind, address, job_id = record["kind"], record["address"], record["job_id"]
        protocol, setup = directory.protocol_of(kind, address)
        pool = directory.pool_of(kind, address)
        job = SessionJob(
            channel=protocol.make_channel(setup, name=f"resume[{job_id}]"),
            client=protocol.restore_client(
                setup, SessionState.from_bytes(record["client"]), ot_pool=pool
            ),
            provider=protocol.restore_provider(
                setup, SessionState.from_bytes(record["provider"]), ot_pool=pool
            ),
            label=job_id,
        )
        restored.append((job_id, kind, address, job))
    return restored


class ShardCheckpointLog:
    """Append-only shard checkpoint: per-session records, not whole blobs.

    The monolithic-blob checkpoint rewrites *every* open window at each
    burst boundary, so its write cost grows with total parked state even
    when one email parks.  This log appends only what changed — a ``park``
    record when a session's snapshot digest moves, a ``tomb`` record when a
    job drains — via :meth:`FileSessionStore.append_records`, so steady-state
    write cost tracks the burst, not the backlog.

    Record types (each a :func:`canonical_dumps` dict, individually sealed
    by the store):

    * ``begin`` — written once per log life: checkpoint version + owning
      incarnation.  :meth:`load` folds it into the blob header, so stale
      incarnations are refused by :func:`restore_open_windows` exactly as
      monolithic blobs were.
    * ``pool`` — an OT pool's cursor state, deduplicated by digest and
      always appended *before* the parks of the same sync so a torn tail
      can never strand a park whose pads are newer than its pool record.
    * ``park`` — one open job's client+provider session state, deduplicated
      by digest per job id (an unchanged parked session is never rewritten).
    * ``tomb`` — the job drained; :meth:`load` drops its parks.

    A torn final batch (the process died mid-``write``) is silently dropped
    by :meth:`FileSessionStore.read_records` — those emails recover through
    the parent's resubmission path, the same degradation the blob scheme
    had for an unwritten checkpoint.  Mid-file tampering surfaces as
    :class:`~repro.exceptions.SnapshotError`.  :meth:`load` compacts the
    surviving records back into a minimal log so the file's size tracks
    open work, not history.
    """

    def __init__(self, store: SessionStore, key: str, incarnation: str = "") -> None:
        self._store = store
        self._key = key
        self._incarnation = incarnation
        self._begun = False
        self._pool_digests: dict[tuple[str, str], bytes] = {}
        self._park_digests: dict[int, bytes] = {}

    def sync(
        self,
        runtime: ProviderRuntime,
        directory: "MailboxDirectory",
        job_context: Mapping[int, tuple[str, str]],
    ) -> None:
        """Append whatever changed since the last sync (one write syscall)."""
        jobs_payload, pools_payload = _checkpoint_payloads(runtime, directory, job_context)
        if not jobs_payload:
            # Nothing in flight: dropping the file is cheaper than appending
            # a tombstone per drained job, and it resets the dedup state so
            # the next log life re-records everything it needs.
            self.clear()
            return
        records: list[bytes] = []
        if not self._begun:
            records.append(
                canonical_dumps(
                    {
                        "type": "begin",
                        "version": CHECKPOINT_VERSION,
                        "incarnation": self._incarnation,
                    }
                )
            )
        new_pools: dict[tuple[str, str], bytes] = {}
        for pool in pools_payload:
            digest = hashlib.sha256(pool["state"]).digest()
            new_pools[(pool["kind"], pool["address"])] = digest
            if self._pool_digests.get((pool["kind"], pool["address"])) != digest:
                records.append(canonical_dumps(dict(pool, type="pool")))
        new_parks: dict[int, bytes] = {}
        for job in jobs_payload:
            digest = hashlib.sha256(job["client"] + job["provider"]).digest()
            new_parks[job["job_id"]] = digest
            if self._park_digests.get(job["job_id"]) != digest:
                records.append(canonical_dumps(dict(job, type="park")))
        for job_id in sorted(self._park_digests.keys() - new_parks.keys()):
            records.append(canonical_dumps({"type": "tomb", "job_id": job_id}))
        if records:
            self._store.append_records(self._key, records)
        self._begun = True
        self._pool_digests.update(new_pools)
        self._park_digests = new_parks

    def clear(self) -> None:
        """Delete the log file and reset the dedup state."""
        self._store.delete_records(self._key)
        self._begun = False
        self._pool_digests.clear()
        self._park_digests.clear()

    def load(self) -> bytes | None:
        """Fold the log into a :func:`restore_open_windows` blob, then compact.

        Returns ``None`` when there is no log or no live job.  Pools are
        filtered to the addresses of live jobs — restoring a pool no live
        session extends would rewind its pad cursor and risk pad reuse.
        Jobs come back sorted by id, i.e. admission order.
        """
        records = self._store.read_records(self._key)
        if records is None:
            return None
        begin: dict | None = None
        pools: dict[tuple[str, str], dict] = {}
        parks: dict[int, dict] = {}
        for raw in records:
            try:
                record = canonical_loads(raw)
                kind = record["type"]
            except Exception as error:
                raise SnapshotError(
                    f"malformed checkpoint log record: {error}"
                ) from error
            if kind == "begin":
                begin = record
            elif kind == "pool":
                pools[(record["kind"], record["address"])] = record
            elif kind == "park":
                parks[record["job_id"]] = record
            elif kind == "tomb":
                parks.pop(record["job_id"], None)
            else:
                raise SnapshotError(f"unknown checkpoint log record type {kind!r}")
        if not parks:
            self.clear()
            return None
        if begin is None:
            raise SnapshotError("checkpoint log is missing its begin record")
        live = {(job["kind"], job["address"]) for job in parks.values()}
        live_pools = [key for key in sorted(pools) if key in live]

        def _strip(record: dict) -> dict:
            return {name: value for name, value in record.items() if name != "type"}

        blob = canonical_dumps(
            {
                "version": begin.get("version"),
                "incarnation": begin.get("incarnation", ""),
                "pools": [_strip(pools[key]) for key in live_pools],
                "jobs": [_strip(parks[job_id]) for job_id in sorted(parks)],
            }
        )
        # Compact: rewrite the file as just the surviving records and seed
        # the dedup state from them, so the next sync appends only deltas.
        compacted = [canonical_dumps(begin)]
        self._pool_digests = {
            key: hashlib.sha256(pools[key]["state"]).digest() for key in live_pools
        }
        compacted.extend(canonical_dumps(pools[key]) for key in live_pools)
        self._park_digests = {}
        for job_id in sorted(parks):
            record = parks[job_id]
            self._park_digests[job_id] = hashlib.sha256(
                record["client"] + record["provider"]
            ).digest()
            compacted.append(canonical_dumps(record))
        self._store.replace_records(self._key, compacted)
        self._begun = True
        return blob


# ---------------------------------------------------------------------------
# Provider functions, job builders and batch drivers
# ---------------------------------------------------------------------------
class ProviderFunction(Protocol):
    """What the serving layer needs of a provider-supplied function.

    :class:`~repro.twopc.spam.SpamFilterProtocol` and
    :class:`~repro.twopc.topics.TopicExtractionProtocol` are two instances;
    any two-party function of the same shape is served the same way.  The
    protocol object *is* the registration: batch runs, the mailbox
    directory, shard workers, checkpoints and reconnects all reach it
    through this surface and never branch on which function it is.  An
    email's *request* is the tuple of its client-side arguments
    (``(features,)`` for spam, ``(features, candidates)`` for topics), so
    ``client_session(setup, *request, ot_pool=pool)`` opens any of them.
    """

    #: Names the function in registrations, worker commands and checkpoint records.
    kind: str
    #: ``"iknp"`` functions get a per-pair OT-extension pool at registration.
    ot_mode: str

    def make_channel(self, setup: Any, name: str) -> Any:
        """A fresh framed channel between the pair's client and provider."""

    def make_ot_pool(self, setup: Any) -> OtExtensionPool:
        """Run the pair's one-time base-OT handshake."""

    def client_session(self, setup: Any, *request: Any, ot_pool: Any = None) -> Any:
        """The client half of one email."""

    def provider_session(self, setup: Any, ot_pool: Any = None) -> Any:
        """The provider half of one email."""

    def restore_client(self, setup: Any, state: SessionState, ot_pool: Any = None) -> Any:
        """The client half rebuilt from its snapshot."""

    def restore_provider(self, setup: Any, state: SessionState, ot_pool: Any = None) -> Any:
        """The provider half rebuilt from its snapshot."""

    def result_of(self, job: SessionJob) -> Any:
        """The outcome of one finished job, as its submitter receives it."""


def _warm(setup: Any) -> None:
    """Pre-build the setup's dense encrypted-model rows (a plaintext function has none)."""
    model = getattr(setup, "encrypted_model", None)
    if model is not None:
        model.ensure_stacks()


def session_job(
    protocol: ProviderFunction,
    setup: Any,
    request: Sequence[Any],
    label: Any = None,
    ot_pool: OtExtensionPool | None = None,
) -> SessionJob:
    """One email session of *protocol*, ready for a serving loop."""
    return SessionJob(
        channel=protocol.make_channel(setup, name=f"{protocol.kind}[{label}]"),
        client=protocol.client_session(setup, *request, ot_pool=ot_pool),
        provider=protocol.provider_session(setup, ot_pool=ot_pool),
        label=label,
    )


def zip_requests(
    feature_sets: Sequence[SparseVector], *columns: Sequence[Any] | None
) -> list[tuple]:
    """One request per email from per-argument columns.

    A ``None`` column gives every email that argument's default.  A column
    of another length raises :class:`ProtocolError`: a plain ``zip`` would
    stop at the shortest column and silently drop emails.
    """
    filled = [[None] * len(feature_sets) if column is None else column for column in columns]
    for column in filled:
        if len(column) != len(feature_sets):
            raise ProtocolError(
                f"{len(feature_sets)} emails but {len(column)} values of one of their arguments"
            )
    return list(zip(feature_sets, *filled))


def run_batch(
    protocol: ProviderFunction,
    setup: Any,
    requests: Sequence[Sequence[Any]],
    runtime: ProviderRuntime | None = None,
    ot_pool: OtExtensionPool | None = None,
) -> list[Any]:
    """Serve N emails of one pair as N concurrent sessions with cross-session amortisation.

    Provider decrypts batch across sessions, and the Yao OTs of every
    session extend one per-pair base-OT handshake instead of each paying
    :data:`~repro.crypto.ot.SECURITY_PARAMETER` fresh public-key operations.
    """
    if not requests:
        return []
    runtime = runtime or ProviderRuntime()
    _warm(setup)
    if ot_pool is None and protocol.ot_mode == "iknp":
        ot_pool = protocol.make_ot_pool(setup)
    jobs = [
        session_job(protocol, setup, request, label=index, ot_pool=ot_pool)
        for index, request in enumerate(requests)
    ]
    runtime.run(jobs)
    return [protocol.result_of(job) for job in jobs]


# ---------------------------------------------------------------------------
# Per-mailbox state kept warm between emails
# ---------------------------------------------------------------------------
# A pool is replaced while this many transfer indices remain, not when the
# last one is spent: emails in flight finish on the pool they were built with,
# and a topic email reserves its indices only when its decrypt window fires.
# 2**24 transfers is ~50 000 topic emails at B' = 10 — more than any window
# holds — and 0.4 % of a pool's range.
POOL_RETIRE_HEADROOM = 1 << 24


@dataclass
class _Registration:
    """What a provider keeps per registered (function, mailbox) pair."""

    protocol: ProviderFunction
    setup: Any
    pool: OtExtensionPool | None = None


class MailboxDirectory:
    """Per-user protocol state the serving loop reuses across emails.

    Registering a mailbox for a function stores its setup (key pair +
    encrypted model) and pre-builds the dense stacked model rows, so the
    per-email hot path never pays setup or stacking costs — the "per-sender
    encrypted model rows" cache of the deployment sketch in §6.3.  State is
    keyed by ``(kind, address)``: one mailbox may register several functions.
    """

    def __init__(self) -> None:
        self._pairs: dict[tuple[str, str], _Registration] = {}

    def _pair(self, kind: str, address: str) -> _Registration:
        entry = self._pairs.get((kind, address))
        if entry is None:
            raise ProtocolError(f"no {kind} mailbox registered for {address!r}")
        return entry

    def register(
        self, address: str, protocol: ProviderFunction, setup: Any, build_pool: bool = True
    ) -> None:
        """Store a mailbox's setup for *protocol*; ``build_pool=False`` defers the base OTs.

        A restart that intends to restore a checkpoint defers pool building:
        the restored pool replaces whatever registration would have built, so
        paying the per-pair base-OT handshake just to discard it would be
        pure recovery latency (:meth:`ensure_pools` backfills any pair the
        checkpoint did not cover).  Registering a pair again replaces it.
        """
        _warm(setup)
        pool = protocol.make_ot_pool(setup) if build_pool and protocol.ot_mode == "iknp" else None
        self._pairs[(protocol.kind, address)] = _Registration(protocol, setup, pool)

    def register_spam(
        self, address: str, protocol: SpamFilterProtocol, setup: SpamSetup, build_pool: bool = True
    ) -> None:
        self.register(address, protocol, setup, build_pool)

    def register_topics(
        self,
        address: str,
        protocol: TopicExtractionProtocol,
        setup: TopicSetup,
        build_pool: bool = True,
    ) -> None:
        self.register(address, protocol, setup, build_pool)

    def ensure_pools(self) -> None:
        """Build the OT pool of every registered pair that still lacks one."""
        for entry in self._pairs.values():
            if entry.pool is None and entry.protocol.ot_mode == "iknp":
                entry.pool = entry.protocol.make_ot_pool(entry.setup)

    def protocol_of(self, kind: str, address: str) -> tuple[ProviderFunction, Any]:
        entry = self._pair(kind, address)
        return entry.protocol, entry.setup

    def pool_of(self, kind: str, address: str) -> OtExtensionPool | None:
        entry = self._pairs.get((kind, address))
        return entry.pool if entry else None

    def set_pool(self, kind: str, address: str, pool: OtExtensionPool) -> None:
        """Install a restored OT pool, replacing whatever registration built.

        Restoring a checkpoint must override the *fresh* pool that replaying
        a registration created: the snapshotted sessions' frames were derived
        from the old pool's seeds and pad cursors, and only the restored pool
        continues them bit-identically.
        """
        self._pair(kind, address).pool = pool

    def pool_for_new_jobs(self, kind: str, address: str) -> OtExtensionPool | None:
        """The pair's pool for emails about to start, re-handshaken once if nearly spent.

        A pool's transfer indices end where the wire's ``start_index`` does
        (:data:`repro.crypto.ot.TRANSFER_INDEX_LIMIT`).  The replacement is
        installed for later emails only: sessions already built keep the pool
        object they were given, ledger and all, and finish on it.
        """
        entry = self._pair(kind, address)
        pool = entry.pool
        if pool is not None and pool.ready and (
            pool.receiver_state.remaining < POOL_RETIRE_HEADROOM
        ):
            entry.pool = pool = entry.protocol.make_ot_pool(entry.setup)
        return pool

    def mailbox_count(self) -> int:
        return len({address for _kind, address in self._pairs})

    def jobs(self, kind: str, address: str, requests: Sequence[Sequence[Any]]) -> list[SessionJob]:
        """One session job per request, labelled ``(address, index)``."""
        protocol, setup = self.protocol_of(kind, address)
        pool = self.pool_for_new_jobs(kind, address)
        return [
            session_job(protocol, setup, request, label=(address, index), ot_pool=pool)
            for index, request in enumerate(requests)
        ]

    def spam_jobs(
        self, address: str, feature_sets: Sequence[SparseVector]
    ) -> list[SessionJob]:
        return self.jobs("spam", address, zip_requests(feature_sets))

    def topic_jobs(
        self,
        address: str,
        feature_sets: Sequence[SparseVector],
        candidate_lists: Sequence[Sequence[int] | None] | None = None,
    ) -> list[SessionJob]:
        return self.jobs("topics", address, zip_requests(feature_sets, candidate_lists))


# ---------------------------------------------------------------------------
# The sharded serving stack: worker processes keyed by mailbox hash
# ---------------------------------------------------------------------------
def shard_of_address(address: str, num_shards: int) -> int:
    """Stable shard assignment: SHA-256 of the address, mod the shard count.

    Deliberately *not* Python's salted ``hash`` — the partition must agree
    across processes and across runs, because per-mailbox state (encrypted
    models, OT pools) lives wherever the mailbox hashes to.
    """
    digest = hashlib.sha256(address.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class ShardWorkerCore:
    """One shard's brain, divorced from its transport.

    Owns the shard's :class:`MailboxDirectory`, windowed
    :class:`ProviderRuntime`, pending-job table and append-only checkpoint
    log, and turns ``(command, payload)`` tuples into exactly one reply
    tuple each.  One serving loop wraps it, the agent of
    :mod:`repro.fabric.agent`, whether it was forked in this box or
    launched on another host.

    A *cumulative* snapshot of this worker's metrics registry leaves only on
    a reply (``burst``/``drain``/``poll``/``restore``/``checkpoint``/
    ``stats``), and every such reply also carries every finished result
    still waiting for a ride — so the snapshot the parent holds counts
    exactly the emails whose results it holds.  Cumulative — not a delta —
    so a lost reply or a killed worker can never leave the parent holding a
    partial increment; the parent keeps only the latest snapshot per worker
    incarnation and folds dead incarnations in exactly once (see
    :meth:`ShardDriver.aggregated_metrics`).

    With a *checkpoint_store*, open decrypt windows are synced to a
    :class:`ShardCheckpointLog` at every burst/drain boundary (before the
    reply leaves, so an acked burst is always recoverable).  The ``restore``
    command resumes from the worker's own log when its payload is ``None``,
    or from a checkpoint blob handed over by the parent — the live-migration
    path, where host A's ``checkpoint`` reply becomes host B's ``restore``
    payload.

    *scheduler_spec* is the parent's ``(window_bursts, max_delay_seconds)``;
    a malformed one raises :class:`ProtocolError` before anything is built.
    """

    def __init__(
        self,
        scheduler_spec: tuple,
        checkpoint_store: SessionStore | None = None,
        shard_index: int = 0,
        incarnation: str = "",
    ) -> None:
        window_bursts, max_delay_seconds = checked_scheduler_spec(scheduler_spec)
        self.directory = MailboxDirectory()
        self.runtime = ProviderRuntime(
            scheduler=DecryptScheduler(
                window_bursts=window_bursts, max_delay_seconds=max_delay_seconds
            )
        )
        self._incarnation = incarnation
        self._log = (
            ShardCheckpointLog(checkpoint_store, f"shard-{shard_index}", incarnation)
            if checkpoint_store is not None
            else None
        )
        self._pending: dict[int, tuple[str, str]] = {}  # job_id -> (kind, address)
        self._completed: list[tuple[int, Any]] = []  # idle-tick results
        self.restored_jobs = 0
        #: Set by the ``checkpoint`` command: this shard's open windows have
        #: been handed over and it must not make further progress (an idle
        #: tick firing after the handover would serve the same email the
        #: target is about to resume, double-counting its metrics).
        self.quiesced = False

    def next_timeout(self) -> float | None:
        """Seconds until the next decrypt-window age deadline, or ``None``."""
        if self.quiesced:
            return None
        deadline = self.runtime.scheduler.next_deadline()
        return None if deadline is None else max(0.0, deadline - time.monotonic())

    def idle_tick(self) -> None:
        """The transport stayed quiet past a window deadline: fire it now.

        Jobs finished here are stashed and ride back on the next
        results-bearing reply.
        """
        if self.quiesced:
            return
        finished = self.runtime.poll()
        if finished:
            self._completed.extend(self._results(finished))
            self._checkpoint()

    def _checkpoint(self) -> None:
        if self._log is not None:
            self._log.sync(self.runtime, self.directory, self._pending)

    def _results(self, finished: Sequence[SessionJob]) -> list[tuple[int, Any]]:
        """``(job_id, result)`` per finished job, projected by its function."""
        results = []
        for job in finished:
            protocol, _setup = self.directory.protocol_of(*self._pending.pop(job.label))
            results.append((job.label, protocol.result_of(job)))
        return results

    def _take_results(self, finished: Sequence[SessionJob]) -> list[tuple[int, Any]]:
        results, taken = self._results(finished), self._completed[:]
        self._completed.clear()
        return taken + results

    def handle(self, command: str, payload: Any) -> tuple[str, Any]:
        """Execute one command; every failure comes back as ``("error", …)``."""
        try:
            return self._dispatch(command, payload)
        except Exception as error:  # noqa: BLE001 — every failure goes to the parent
            return ("error", f"{type(error).__name__}: {error}")

    def _dispatch(self, command: str, payload: Any) -> tuple[str, Any]:
        directory, runtime = self.directory, self.runtime
        if command == "register":
            address, protocol, setup, *options = payload
            directory.register(address, protocol, setup, build_pool=not (options and options[0]))
            return ("ok", None)
        if command == "ensure_pools":
            directory.ensure_pools()
            return ("ok", None)
        if command == "burst":
            jobs = []
            for job_id, kind, address, request in payload:
                protocol, setup = directory.protocol_of(kind, address)
                pool = directory.pool_for_new_jobs(kind, address)
                jobs.append(session_job(protocol, setup, request, label=job_id, ot_pool=pool))
                self._pending[job_id] = (kind, address)
            finished = runtime.serve_burst(jobs)
            results = self._take_results(finished)
            self._checkpoint()
            return ("results", (results, get_registry().snapshot()))
        if command == "drain":
            results = self._take_results(runtime.drain())
            self._checkpoint()
            return ("results", (results, get_registry().snapshot()))
        if command == "poll":
            results = self._take_results(runtime.poll())
            if results:
                self._checkpoint()
            return ("results", (results, get_registry().snapshot()))
        if command == "restore":
            return self._restore(payload)
        if command == "checkpoint":
            # Migration handover: serialize every open window as one blob for
            # the parent to replay into another worker's ``restore``.  Any
            # already-finished results still waiting for a ride leave with it
            # (the source is about to be retired and will not reply again).
            # Quiescing first makes the reply's snapshot *final*: no idle tick
            # may fire a window the target is about to resume, so the handed-
            # over emails are counted on exactly one shard.
            self.quiesced = True
            blob = checkpoint_open_windows(
                runtime, directory, self._pending, self._incarnation
            )
            results = self._take_results([])
            return ("checkpointed", (blob, results, get_registry().snapshot()))
        if command == "disconnect":
            state = runtime.disconnect_job(payload)
            self._checkpoint()
            return ("state", state.to_bytes())
        if command == "reconnect":
            job_id, blob = payload
            if job_id not in self._pending:
                raise ProtocolError(f"no open job {job_id} on this shard")
            kind, address = self._pending[job_id]
            protocol, setup = directory.protocol_of(kind, address)
            client = protocol.restore_client(
                setup, SessionState.from_bytes(blob), ot_pool=directory.pool_of(kind, address)
            )
            channel = protocol.make_channel(setup, name=f"reconnect[{job_id}]")
            runtime.reconnect_job(job_id, channel, client)
            self._checkpoint()
            return ("ok", None)
        if command == "stats":
            stats = {
                "mailboxes": directory.mailbox_count(),
                "outstanding_jobs": runtime.outstanding_jobs(),
                "disconnected_jobs": runtime.disconnected_jobs(),
                "pending_window_ciphertexts": runtime.scheduler.pending_ciphertexts(),
                "restored_jobs": self.restored_jobs,
            }
            return ("stats", (stats, self._take_results([]), get_registry().snapshot()))
        if command == "stop":
            return ("ok", None)
        return ("error", f"unknown shard command {command!r}")

    def _restore(self, payload: Any) -> tuple[str, Any]:
        resumed_ids: list[int] = []
        jobs = []
        blob = payload if isinstance(payload, bytes) else None
        if blob is None and self._log is not None:
            try:
                blob = self._log.load()
            except SnapshotError:
                # The log itself is unreadable (tampered records, sealed
                # under a lost key, malformed folds): same recovery as a
                # refused blob below.
                self._log.clear()
                blob = None
        if blob is not None:
            try:
                restored = restore_open_windows(blob, self.directory, self._incarnation)
            except SnapshotError:
                # An unreadable checkpoint (older format, foreign
                # incarnation, corrupt bytes) must not fail recovery: drop
                # it and let the parent's resubmission recompute the
                # in-flight emails.  Clear so retries do not hit the same
                # poisoned log.
                if self._log is not None:
                    self._log.clear()
                restored = []
            for job_id, kind, address, job in restored:
                self._pending[job_id] = (kind, address)
                resumed_ids.append(job_id)
                jobs.append(job)
        self.restored_jobs += len(jobs)
        finished = self.runtime.serve_burst(jobs) if jobs else []
        results = self._take_results(finished)
        self._checkpoint()
        return ("restored", (resumed_ids, results, get_registry().snapshot()))


@dataclass
class _OutstandingItem:
    """Parent-side record of a submitted email, kept until its result lands.

    This is all the state needed to resubmit the email after a worker is
    replaced (frames never leave the worker, so an email in flight on a
    killed shard simply re-runs from its request).  *posted_at* is the
    ``time.monotonic()`` instant :meth:`ShardDriver.submit` posted the
    email's burst; it is set once and never moved later (not by a
    migration, a resubmission or a reconnect), which is what lets
    :meth:`ShardDriver.poll` skip workers that cannot have a result.
    """

    slot: int
    kind: str
    address: str
    request: tuple
    posted_at: float


class WorkerLink(Protocol):
    """How the shard driver reaches one :class:`ShardWorkerCore`.

    A link is a FIFO: every posted command is answered by exactly one
    ``(tag, body)`` reply, and replies come back in posting order — so the
    driver can post to many links before waiting on any of them, and the
    workers compute their slices of a burst concurrently.  One transport
    implements it, ``TcpLink`` in :mod:`repro.fabric.control`; the driver
    tests add an in-memory one.

    A link is asked for ``poll`` only while its worker owns an outstanding
    email posted at least ``max_delay_seconds`` ago — before that no window
    of the worker can be due, so the reply could carry nothing (the
    argument is in :meth:`ShardDriver.poll`).  So a worker with nothing
    aged hears no command between bursts; its own idle tick fires its aged
    windows and stashes their results for the next reply.
    """

    #: OS pid of the worker process, once known (crash drills kill this).
    pid: int | None

    @property
    def alive(self) -> bool:
        """False once the worker can no longer answer."""

    def post(self, command: str, payload: Any) -> None:
        """Send one command; raises :class:`ProtocolError` if the worker is gone."""

    def wait(self) -> tuple[str, Any]:
        """The next reply in posting order; raises :class:`ProtocolError` on
        worker death or when the link gives up waiting (the reply may still
        arrive later — the driver absorbs it then)."""

    def close(self) -> None:
        """Dismiss the worker and release the transport (idempotent)."""


class ShardDriver:
    """Partition the serving loop across workers by mailbox hash.

    The mailbox hash space is split into ``len(endpoints)`` **slots**
    (:func:`shard_of_address`); each slot is served by one worker — a
    :class:`ShardWorkerCore` with its own :class:`MailboxDirectory`
    (encrypted-model stacks and per-pair OT pools stay warm in the worker
    across bursts) and its own windowed :class:`ProviderRuntime`.  Because
    decrypt batching is per key pair, workers never coordinate — the
    partition is embarrassingly parallel, which is the §6.3 scaling story.

    Everything that is not transport lives here, once: the scheduler spec
    and incarnation every worker is built with, the mutable slot→worker
    routing table, the registration log, job ids, outstanding emails and
    landed results, and the replace-latest/fold-once metrics discipline.
    How a worker is reached is a :class:`WorkerLink`; *connect* builds one
    as ``connect(endpoint, index, scheduler_spec, incarnation)``.  The two
    entry points differ only in their endpoints: :class:`ShardedRuntime`
    forks agents onto socketpairs, :func:`repro.fabric.launch_fabric` spawns
    agents that listen on TCP ports.

    The driver survives worker loss two ways.  A worker with a checkpoint
    store persists its open decrypt windows as ``SessionState`` snapshots
    at each burst boundary, and its replacement *resumes* them — parked
    sessions come back bit-identically, with no re-execution of completed
    protocol steps.  Whatever a checkpoint does not cover is resubmitted
    from its request — the recompute fallback.  Either way a mid-window crash
    never costs correctness.  :meth:`migrate` uses the same machinery to
    move a live worker's open windows onto another worker.

    Any :class:`ProviderFunction` is served the same way: :meth:`register`
    a mailbox with the protocol object, :meth:`submit` bursts of its
    requests by ``kind``.  Results are collected by job id
    (:meth:`take_result`).  The benchmarks reach :meth:`register` and
    :meth:`submit` through ``register_spam``/``register_topics`` and
    ``submit_spam``/``submit_topics``, kept as one-line calls for them;
    :meth:`run_spam_stream` is a submit/drain convenience for tests and
    examples.
    """

    def __init__(
        self,
        connect: Callable[[Any, int, tuple, str], WorkerLink],
        endpoints: Sequence[Any],
        window_bursts: int = 1,
        max_delay_seconds: float | None = None,
    ) -> None:
        if not endpoints:
            raise ProtocolError("a shard driver needs at least one worker")
        _check_window(window_bursts, max_delay_seconds)
        self._scheduler_spec = (window_bursts, max_delay_seconds)
        # Job ids restart from zero in every parent, so checkpoints are bound
        # to this driver instance: a leftover blob from an earlier parent is
        # refused at restore (recompute fallback) instead of resumed under
        # colliding ids.  All workers share it, so a checkpoint taken on one
        # is admissible on another (migration).
        self._incarnation = os.urandom(8).hex()
        self._connect = connect
        self.num_slots = len(endpoints)
        self._slot_owner = list(range(self.num_slots))
        self._links: list[WorkerLink] = []
        # Per worker: ``(command, payload)`` of each command posted whose reply
        # has not been absorbed; the payload is kept for ``register`` only.
        self._owed: list[deque[tuple[str, tuple | None]]] = []
        # (kind, address) -> the latest (address, protocol, setup) a worker
        # accepted: an entry is written when the ``register`` reply is absorbed.
        self._registrations: dict[tuple[str, str], tuple] = {}
        self._outstanding: dict[int, _OutstandingItem] = {}
        self._results: dict[int, Any] = {}
        self._job_ids = itertools.count()
        # Per worker: the latest *cumulative* snapshot a reply carried,
        # replaced (never added to) by each newer one.  It outlives its
        # worker; a replacement folds the final one into this base once.
        self._metrics: list[dict | None] = []
        self._metrics_base: list[dict] = []
        self._closed = False
        try:
            for endpoint in endpoints:
                self.attach_worker(endpoint)
        except BaseException:
            self.close()
            raise

    # -- command plumbing ----------------------------------------------------
    def _link(self, worker: int) -> WorkerLink:
        if self._closed:
            raise ProtocolError("the shard driver is closed")
        if not 0 <= worker < len(self._links):
            raise ProtocolError(f"no worker {worker} in a {len(self._links)}-worker driver")
        return self._links[worker]

    def _post(self, worker: int, command: str, payload: Any) -> None:
        link = self._link(worker)
        try:
            link.post(command, payload)
        except ProtocolError as error:
            raise ProtocolError(
                f"worker {worker} is gone (attach_replacement can recover it): {error}"
            ) from error
        self._owed[worker].append((command, payload if command == "register" else None))

    def _collect(self, worker: int) -> Any:
        """Absorb every reply *worker* owes, oldest first; return the last body.

        Replies are FIFO, so a reply the driver once gave up on (a fan-out
        that failed elsewhere, a wait that timed out) is still first in line
        the next time this worker is touched: its results land and its
        metrics replace — a late reply is absorbed, never discarded, and
        never mistaken for the answer to a newer command.  A reply's snapshot
        and its results land together, so the snapshot held for a worker
        counts exactly the results already landed from it.

        A ``register`` reply is where a registration enters the log (or, for
        a refused replay, leaves it).  A refused registration always raises,
        naming its address — after every owed reply has been absorbed, so
        the results riding those replies still land.  Any other error reply
        raises only when it answers the command being awaited.
        """
        link, owed = self._links[worker], self._owed[worker]
        body = None
        errors: list[str] = []
        while owed:
            try:
                tag, body = link.wait()
            except ProtocolError as error:
                raise ProtocolError(
                    "; ".join([
                        f"worker {worker} is gone or silent "
                        f"(attach_replacement can recover a dead one): {error}",
                        *errors,
                    ])
                ) from error
            command, payload = owed.popleft()
            if command == "register":
                address, protocol, setup, *deferred = payload
                key = (protocol.kind, address)
                if tag != "error":
                    self._registrations[key] = (address, protocol, setup)
                else:
                    errors.append(
                        f"worker {worker} refused the {protocol.kind} registration "
                        f"of {address!r}: {body}"
                    )
                    if deferred:  # a refused replay: the worker holds nothing for the pair
                        self._registrations.pop(key, None)
            elif tag in ("results", "restored", "checkpointed", "stats"):
                *_, results, metrics = body
                self._metrics[worker] = metrics
                for job_id, result in results:
                    self._results[job_id] = result
                    self._outstanding.pop(job_id, None)
            elif tag == "error" and not owed:
                # Only the command being awaited raises; an error reply to a
                # command whose caller already gave up has no one to tell.
                errors.append(f"worker {worker} rejected {command!r}: {body}")
        if errors:
            raise ProtocolError("; ".join(errors))
        return body

    def _fanout(self, work: Sequence[tuple[int, str, Any]]) -> list[Any]:
        """Post to every worker, then collect from every worker.

        Posting first lets the workers compute concurrently.  Every posted
        command is collected before an error propagates, so one failing
        worker can never leave another's reply unread, and the error raised
        names every worker that failed.
        """
        posted: list[int] = []
        errors: list[ProtocolError] = []
        for worker, command, payload in work:
            try:
                self._post(worker, command, payload)
                posted.append(worker)
            except ProtocolError as error:
                errors.append(error)
        bodies = []
        for worker in posted:
            try:
                bodies.append(self._collect(worker))
            except ProtocolError as error:
                errors.append(error)
        if len(errors) > 1:
            raise ProtocolError("; ".join(map(str, errors))) from errors[0]
        if errors:
            raise errors[0]
        return bodies

    def _request(self, worker: int, command: str, payload: Any) -> Any:
        return self._fanout([(worker, command, payload)])[0]

    def _serving(self) -> list[int]:
        """Live workers that currently own at least one slot."""
        owners = set(self._slot_owner)
        return [
            worker
            for worker, link in enumerate(self._links)
            if link.alive and worker in owners
        ]

    # -- worker membership ---------------------------------------------------
    def attach_worker(self, endpoint: Any) -> int:
        """Connect one more worker (owning no slots yet); returns its index.

        The standard migration target: start a fresh worker, attach it, then
        :meth:`migrate` a hash range onto it.
        """
        if self._closed:
            raise ProtocolError("the shard driver is closed")
        worker = len(self._links)
        link = self._connect(endpoint, worker, self._scheduler_spec, self._incarnation)
        self._links.append(link)
        self._owed.append(deque())
        self._metrics.append(None)
        return worker

    def attach_replacement(self, worker: int, endpoint: Any) -> int:
        """Rebuild one worker position from a fresh worker; resubmit the gaps.

        Models a provider process dying mid-window (§6.3 deployments restart
        workers all the time).  The old worker is dismissed and its final
        cumulative snapshot joins the metrics base — folded exactly once;
        the fresh worker starts a new cumulative series from zero.  When the
        replacement can read its predecessor's checkpoint log (same
        checkpoint directory, same index), the open-window sessions pick up
        exactly where they parked.  Returns the number of resubmitted
        emails, so ``0`` means every in-flight email resumed from its
        snapshot.
        """
        self._link(worker).close()
        if self._metrics[worker] is not None:
            self._metrics_base.append(self._metrics[worker])
            self._metrics[worker] = None
        # Registrations the old worker never answered are replayed with the
        # logged ones; the replacement's replies decide whether they enter the log.
        unanswered = [
            payload[:3] for command, payload in self._owed[worker] if command == "register"
        ]
        self._links[worker] = self._connect(
            endpoint, worker, self._scheduler_spec, self._incarnation
        )
        self._owed[worker] = deque()
        return self._rebuild(worker, self._slots_of(worker), own_log=True, unanswered=unanswered)

    def _slots_of(self, worker: int) -> set[int]:
        return {slot for slot, owner in enumerate(self._slot_owner) if owner == worker}

    def _rebuild(
        self,
        worker: int,
        slots: set[int],
        blob: bytes | None = None,
        own_log: bool = False,
        unanswered: Sequence[tuple] = (),
    ) -> int:
        """Make *worker* the server of *slots*; returns the emails resubmitted.

        Replay the slots' registrations (the logged ones, then the
        *unanswered* ones a dead predecessor never replied to; the latest per
        pair), restore open windows — from *blob* (a ``checkpoint`` reply
        handed over by :meth:`migrate`) or, with *own_log*, from whatever
        checkpoint log the worker finds on disk — backfill OT pools, then
        resubmit every outstanding email of those slots that the restore did
        not resume.  The replays are posted back to back and the ``restore``
        collects them all, so a refused replay raises from there.
        """
        replay = {
            key: payload
            for key, payload in self._registrations.items()
            if self.shard_of(payload[0]) in slots
        }
        for payload in unanswered:
            replay[(payload[1].kind, payload[0])] = payload
        for payload in replay.values():
            # Defer the per-pair OT handshakes: restored pools replace them
            # for checkpointed mailboxes (mid-stream cursors intact) and
            # ensure_pools backfills the rest — paying base OTs only to
            # overwrite them would be dead recovery time.
            self._post(worker, "register", (*payload, True))
        resumed: set[int] = set()
        if blob is not None or own_log:
            resumed_ids, _results, _metrics = self._request(worker, "restore", blob)
            resumed = set(resumed_ids)
        self._request(worker, "ensure_pools", None)
        resubmit = [
            (job_id, item.kind, item.address, item.request)
            for job_id, item in sorted(self._outstanding.items())
            if item.slot in slots and job_id not in resumed
        ]
        if resubmit:
            self._request(worker, "burst", resubmit)
        return len(resubmit)

    def migrate(self, source: int, target: int) -> int:
        """Move every slot *source* owns onto *target*, live; retire *source*.

        No email is lost or re-run.  The ``checkpoint`` command quiesces the
        source *before* serializing, so the blob, the stray finished results
        and the final metrics snapshot riding its reply are a consistent
        cut: no idle tick can fire a window the target is about to resume,
        which is what makes "every email served exactly once" hold.  The
        blob is admissible on the target because all workers of one driver
        share its incarnation.  Resumed sessions restart bit-identically
        mid-protocol (same OT pads, same window cursors).  Returns the
        number of emails that had to be *resubmitted* on the target (work
        that raced past the last sync, sessions that declined to snapshot);
        ``0`` means the whole in-flight window state moved.
        """
        if source == target:
            raise ProtocolError("cannot migrate a worker onto itself")
        if not self._link(source).alive:
            raise ProtocolError(
                f"worker {source} is dead — use attach_replacement, not migrate"
            )
        if not self._link(target).alive:
            raise ProtocolError(f"migration target worker {target} is dead")
        slots = self._slots_of(source)
        if not slots:
            raise ProtocolError(f"worker {source} owns no slots; nothing to migrate")
        # A registration refused by either side raises here, before the
        # source quiesces; accepted ones enter the log the replay reads.
        self._collect(source)
        self._collect(target)
        blob, _results, _metrics = self._request(source, "checkpoint", None)
        resubmitted = self._rebuild(target, slots, blob)
        for slot in slots:
            self._slot_owner[slot] = target
        self._links[source].close()
        return resubmitted

    def rebalance(self) -> tuple[int, int, int] | None:
        """Migrate the hottest worker's hash range onto a spare.

        Load is ``emails_served_total`` from each worker's latest cumulative
        snapshot — the aggregation the driver already keeps, no extra round
        trip.  Candidates to receive the range are live workers owning *no*
        slots (freshly attached spares); with no spare, or with no load
        contrast at all, this is a no-op returning ``None``.  Otherwise
        returns ``(source, target, resubmitted)``.
        """

        def served(worker: int) -> float:
            snapshot = self._metrics[worker] or {}
            return sum(
                entry["value"]
                for entry in snapshot.get("counters", [])
                if entry["name"] == "emails_served_total"
            )

        serving = self._serving()
        spares = [
            worker
            for worker, link in enumerate(self._links)
            if link.alive and worker not in serving
        ]
        if not spares or not serving:
            return None
        hottest = max(serving, key=served)
        if served(hottest) <= 0:
            return None  # nobody has served anything; nothing is "hot" yet
        return hottest, spares[0], self.migrate(hottest, spares[0])

    def retire_worker(self, worker: int) -> None:
        """Dismiss one worker; its final metrics stay in the aggregate.

        The worker must not own any slots (migrate them away first) —
        retiring a serving worker would orphan its mailboxes.
        """
        if self._slots_of(worker):
            raise ProtocolError(
                f"worker {worker} still owns slots {sorted(self._slots_of(worker))}; "
                "migrate them away before retiring it"
            )
        self._link(worker).close()

    def worker_alive(self, worker: int) -> bool:
        return self._link(worker).alive

    def worker_pid(self, worker: int) -> int:
        """The OS pid of one worker (crash drills SIGKILL this)."""
        pid = self._link(worker).pid
        if pid is None:
            raise ProtocolError(f"worker {worker} never announced its pid")
        return pid

    def slot_owners(self) -> list[int]:
        """Routing table copy: ``slot -> worker index``, one entry per slot."""
        return list(self._slot_owner)

    # -- registration --------------------------------------------------------
    def shard_of(self, address: str) -> int:
        return shard_of_address(address, self.num_slots)

    def register(self, address: str, protocol: ProviderFunction, setup: Any) -> None:
        """Register *address* for *protocol* on the worker that owns its slot.

        Pipelined: the ``register`` command is posted and this returns
        without waiting, so the worker runs the registration (model rows,
        base-OT handshake) while the caller prepares the next one.  The reply
        is absorbed by the next call that collects from that worker
        (:meth:`submit`, :meth:`poll`, :meth:`drain`, :meth:`shard_stats`,
        …).  A refused registration raises :class:`ProtocolError`, naming
        the address, from that call, after the results in every reply it
        absorbed have landed.

        The registration log holds what workers accepted — one entry per
        ``(kind, address)``, the latest — so a replacement worker replays
        each pair once however often it was registered, and never a refused
        one.
        """
        worker = self._slot_owner[self.shard_of(address)]
        self._post(worker, "register", (address, protocol, setup))

    def register_spam(
        self, address: str, protocol: SpamFilterProtocol, setup: SpamSetup
    ) -> None:
        self.register(address, protocol, setup)

    def register_topics(
        self, address: str, protocol: TopicExtractionProtocol, setup: TopicSetup
    ) -> None:
        self.register(address, protocol, setup)

    # -- submission / results ------------------------------------------------
    def submit(self, kind: str, emails: Sequence[tuple]) -> list[int]:
        """Submit one burst of ``(address, *request)`` emails of *kind*; returns their job ids.

        Each worker runs its slice of the burst through its windowed serving
        loop; results that complete immediately (closed windows) are already
        collected when this returns — the rest arrive with later bursts,
        :meth:`poll` or :meth:`drain`.
        """
        job_ids = []
        by_worker: dict[int, list[tuple]] = {}
        posted_at = time.monotonic()
        for address, *request in emails:
            job_id = next(self._job_ids)
            job_ids.append(job_id)
            item = _OutstandingItem(
                self.shard_of(address), kind, address, tuple(request), posted_at
            )
            self._outstanding[job_id] = item
            by_worker.setdefault(self._slot_owner[item.slot], []).append(
                (job_id, kind, address, item.request)
            )
        self._fanout([(worker, "burst", batch) for worker, batch in by_worker.items()])
        return job_ids

    def submit_spam(self, emails: Sequence[tuple[str, SparseVector]]) -> list[int]:
        return self.submit("spam", emails)

    def submit_topics(
        self, emails: Sequence[tuple[str, SparseVector, Sequence[int] | None]]
    ) -> list[int]:
        return self.submit("topics", emails)

    def poll(self) -> int:
        """Tick the workers that can have a result; returns how many new results landed.

        Workers also self-tick while their link is idle, so calling this is
        never *required* for progress — it exists so tests and latency-probe
        loops can force the flush deterministically and observe the results
        synchronously (each worker's ``poll`` reply carries any jobs its idle
        ticks finished since the last results-bearing reply).

        Only a serving worker that owns an outstanding email whose burst was
        posted at least ``max_delay_seconds`` ago is sent ``poll``; with no
        age trigger (``max_delay_seconds=None``) nothing is sent.  Skipping
        the others is exact:

        * a window fires at ``opened_at + max_delay_seconds``;
        * it opens when its first email is parked, after the driver posted
          that email's burst (``DecryptScheduler.enqueue`` stamps its clock
          then; a restored window reopens at restore time, later still);
        * that email stays outstanding until the window fires, and its
          ``posted_at`` never moves later;
        * so whenever any window on worker *w* is due, *w* owns an
          outstanding email past its cutoff;
        * burst-count triggers fire inside ``serve_burst`` (``end_burst``,
          then ``take_due``), so their results ride the burst reply, and a
          worker's idle-tick results come only from windows that came due.

        A skipped worker's reply would therefore have carried no result, and
        a result is picked up at the same call as when every worker is
        ticked.
        """
        delay = self._scheduler_spec[1]
        if delay is None:
            return 0
        now = time.monotonic()
        owners = {
            self._slot_owner[item.slot]
            for item in self._outstanding.values()
            if now >= item.posted_at + delay
        }
        before = len(self._results)
        self._fanout([(worker, "poll", None) for worker in self._serving() if worker in owners])
        return len(self._results) - before

    def drain(self) -> None:
        """Close every serving worker's open windows; all outstanding results land."""
        self._fanout([(worker, "drain", None) for worker in self._serving()])

    # -- reconnect-resume ----------------------------------------------------
    def _owner_of_job(self, job_id: int) -> int:
        item = self._outstanding.get(job_id)
        if item is None:
            raise ProtocolError(f"job {job_id} is not outstanding (finished or unknown)")
        return self._slot_owner[item.slot]

    def disconnect_client(self, job_id: int) -> bytes:
        """Detach the client of an in-flight email; returns its snapshot bytes.

        Models a mail client losing its connection mid-protocol: the owning
        worker parks the provider session (and its decrypt-window entries)
        server-side and hands back the serialized client ``SessionState`` —
        the bytes the device carries offline.  The job stays outstanding (its
        result will land only after :meth:`reconnect_client`), and nothing is
        recomputed on either side.
        """
        return self._request(self._owner_of_job(job_id), "disconnect", job_id)

    def reconnect_client(self, job_id: int, state: bytes) -> None:
        """Resume a disconnected email from its snapshot on a fresh channel.

        The owning worker restores the client session from *state*, opens a
        fresh channel, and re-attaches the parked provider session — the
        protocol picks up exactly where it stopped, with zero resubmissions.
        The result lands with the next burst or :meth:`drain` that closes the
        job's decrypt window.
        """
        self._request(self._owner_of_job(job_id), "reconnect", (job_id, bytes(state)))

    def take_result(self, job_id: int) -> Any:
        """Pop the protocol result for *job_id* (drain first if still open)."""
        if job_id not in self._results:
            raise ProtocolError(
                f"no result for job {job_id} yet "
                f"({len(self._outstanding)} emails still inside open windows)"
            )
        return self._results.pop(job_id)

    def outstanding_count(self) -> int:
        return len(self._outstanding)

    def run_spam_stream(
        self, bursts: Sequence[Sequence[tuple[str, SparseVector]]]
    ) -> list[SpamProtocolResult]:
        """Feed bursts through the workers, drain, return results in order."""
        job_ids: list[int] = []
        for burst in bursts:
            job_ids.extend(self.submit_spam(burst))
        self.drain()
        return [self.take_result(job_id) for job_id in job_ids]

    # -- telemetry -----------------------------------------------------------
    def shard_stats(self) -> list[dict[str, Any]]:
        """Serving stats of every live worker, in worker order.

        Mailboxes, decrypt batch sizes, backlog, and the worker's cumulative
        registry snapshot under ``"metrics"``; ``"worker"`` is its index.
        """
        live = [worker for worker, link in enumerate(self._links) if link.alive]
        replies = self._fanout([(worker, "stats", None) for worker in live])
        return [
            dict(stats, metrics=metrics, worker=worker)
            for worker, (stats, _results, metrics) in zip(live, replies)
        ]

    def aggregated_metrics(self) -> dict:
        """One merged metrics snapshot covering every worker, past and present.

        The sum of the replaced-worker base and every worker's latest
        cumulative snapshot (a dead or retired worker keeps its final one).
        Because workers report cumulatively and the driver replaces (never
        adds) the latest, kills, replacements and migrations cannot
        double-count — the property the crash-recovery metrics tests pin.
        """
        snaps = self._metrics_base + [snap for snap in self._metrics if snap is not None]
        return merge_snapshots(*snaps)

    # -- shutdown ------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            link.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedRuntime(ShardDriver):
    """A :class:`ShardDriver` over ``num_shards`` agents it forks in this box.

    Each shard is a child process running the fabric agent on one end of a
    socketpair (:func:`repro.fabric.agent.fork_local_agent`), driven through
    :class:`~repro.fabric.control.TcpLink` like any remote agent, so a local
    shard has the HELLO version check and heartbeats too.
    Every shard is forked before the first link starts its reader thread.
    With a *checkpoint_dir*, every worker persists its open decrypt windows
    there and :meth:`restart_shard` resumes them; without one it recomputes.
    """

    def __init__(
        self,
        num_shards: int = 4,
        window_bursts: int = 1,
        max_delay_seconds: float | None = None,
        checkpoint_dir: str | Path | None = None,
    ) -> None:
        from repro.fabric.agent import fork_local_agent  # fabric imports this module
        from repro.fabric.control import TcpLink

        if num_shards < 1:
            raise ProtocolError("a sharded runtime needs at least one shard")
        _check_window(window_bursts, max_delay_seconds)  # before forking anything
        self._fork_agent = functools.partial(fork_local_agent, checkpoint_dir=checkpoint_dir)
        agents = [self._fork_agent(index) for index in range(num_shards)]
        try:
            super().__init__(
                TcpLink,
                agents,
                window_bursts=window_bursts,
                max_delay_seconds=max_delay_seconds,
            )
        except BaseException:
            for agent in agents:  # those without a link yet are reaped here
                agent.socket.close()
                agent.reap()
            raise

    def restart_shard(self, shard: int) -> int:
        """Kill one worker and rebuild it in place; see :meth:`attach_replacement`."""
        return self.attach_replacement(shard, self._fork_agent(shard))

    def join_worker(self, shard: int, timeout: float = 10.0) -> None:
        """Wait for one shard's worker process to exit (after a kill) and reap it."""
        self._link(shard).agent.wait(timeout)
