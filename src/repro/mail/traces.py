"""Trace-driven workloads for the serving stack (§6.3 latency evaluation).

The paper evaluates the provider stack under realistic email arrivals, not
uniform bursts: volume is heavy-tailed across mailboxes, rate swings with the
time of day, and traffic clumps into bursts.  :func:`generate_trace` produces
such a workload from one seed — a thinned inhomogeneous Poisson process whose
rate is a diurnal sinusoid times a burst multiplier, with mailboxes drawn
from a Zipf distribution and per-sender sequence numbers (plus a configurable
sprinkle of injected duplicates, so the §4.4 :class:`~repro.mail.replay.ReplayGuard`
finally has live traffic to police).

:func:`serve_trace` replays a trace against a serving runtime under a
:class:`VirtualClock`: the clock jumps to each arrival, provider *compute* is
charged to it (measured CPU, or a deterministic per-batch cost model), and
between arrivals the clock advances to the scheduler's next age deadline and
ticks ``poll()`` — the idle-window flush (before the poll tick, a lull in
arrivals left parked decrypts waiting for the next burst).  Queueing delay
and window waits both land in the email latencies, so a wide window really
does hold the tail email longer.

The trace itself is deterministic given the :class:`TraceSpec` seed, and a
replay under a ``cost_model`` is deterministic end to end; the bit-identical
telemetry tests depend on both.
"""

from __future__ import annotations

import math
import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, Sequence

from repro.exceptions import ReplayError
from repro.mail.replay import ReplayGuard
from repro.obs import get_registry
from repro.utils.timing import percentile, summarize_latencies


@dataclass(frozen=True)
class TraceEvent:
    """One email arrival: who, when, and its replay-protocol identity."""

    arrival_seconds: float
    mailbox: str
    sender: str
    sequence_number: int
    duplicate: bool = False  # an injected replay of an earlier (sender, seq)


@dataclass(frozen=True)
class TraceSpec:
    """Knobs for :func:`generate_trace`; one seed fixes the whole schedule.

    The arrival rate at time ``t`` is::

        rate(t) = mean_rate_per_second
                  · (1 + diurnal_amplitude · sin(2π t / diurnal_period_seconds))
                  · (burst_rate_multiplier if t is inside a burst else 1)

    with burst intervals themselves drawn from the seed (exponential burst
    and gap lengths, tuned so bursts cover ``burst_fraction`` of the trace).
    Mailbox volume is Zipf-distributed: mailbox ``i`` receives traffic
    proportional to ``1 / (i + 1) ** zipf_exponent``, so a few inboxes are
    hot and most are nearly idle — the shape that makes idle-window
    starvation visible.
    """

    mailboxes: int = 200
    senders_per_mailbox: int = 4
    mean_rate_per_second: float = 50.0
    duration_seconds: float = 10.0
    diurnal_amplitude: float = 0.5
    diurnal_period_seconds: float = 10.0
    burst_rate_multiplier: float = 6.0
    burst_fraction: float = 0.15
    mean_burst_seconds: float = 0.4
    zipf_exponent: float = 1.1
    duplicate_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mailboxes < 1 or self.senders_per_mailbox < 1:
            raise ValueError("need at least one mailbox and one sender per mailbox")
        if self.mean_rate_per_second <= 0 or self.duration_seconds <= 0:
            raise ValueError("rate and duration must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.burst_rate_multiplier < 1.0:
            raise ValueError("burst_rate_multiplier must be at least 1")
        if not 0.0 <= self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in [0, 1)")
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ValueError("duplicate_fraction must be in [0, 1)")


def _burst_intervals(spec: TraceSpec, rng: random.Random) -> list[tuple[float, float]]:
    """Seeded alternation of quiet gaps and bursts covering the trace."""
    if spec.burst_fraction == 0.0:
        return []
    mean_gap = spec.mean_burst_seconds * (1.0 - spec.burst_fraction) / spec.burst_fraction
    intervals: list[tuple[float, float]] = []
    t = rng.expovariate(1.0 / mean_gap)
    while t < spec.duration_seconds:
        end = t + rng.expovariate(1.0 / spec.mean_burst_seconds)
        intervals.append((t, min(end, spec.duration_seconds)))
        t = end + rng.expovariate(1.0 / mean_gap)
    return intervals


def generate_trace(spec: TraceSpec) -> list[TraceEvent]:
    """Seeded bursty/diurnal arrivals over heavy-tailed mailboxes.

    Thinned (rejection-sampled) inhomogeneous Poisson process: candidates are
    drawn at the peak rate and accepted with probability ``rate(t) / peak``,
    which is exact for any bounded rate function.  The same
    :class:`TraceSpec` always yields the identical event list.
    """
    rng = random.Random(spec.seed)
    bursts = _burst_intervals(spec, rng)
    burst_starts = [start for start, _ in bursts]

    def in_burst(t: float) -> bool:
        index = bisect_right(burst_starts, t) - 1
        return index >= 0 and t < bursts[index][1]

    def rate(t: float) -> float:
        diurnal = 1.0 + spec.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / spec.diurnal_period_seconds
        )
        multiplier = spec.burst_rate_multiplier if in_burst(t) else 1.0
        return spec.mean_rate_per_second * diurnal * multiplier

    peak = (
        spec.mean_rate_per_second
        * (1.0 + spec.diurnal_amplitude)
        * spec.burst_rate_multiplier
    )
    weights = [1.0 / (i + 1) ** spec.zipf_exponent for i in range(spec.mailboxes)]
    cumulative = list(accumulate(weights))
    total_weight = cumulative[-1]

    events: list[TraceEvent] = []
    next_sequence: dict[str, int] = {}
    history: list[tuple[str, int]] = []  # accepted (sender, seq), for duplicates
    t = 0.0
    while True:
        t += rng.expovariate(peak)
        if t >= spec.duration_seconds:
            break
        if rng.random() * peak > rate(t):
            continue  # thinned: this candidate is outside the local rate
        mailbox_index = bisect_right(cumulative, rng.random() * total_weight)
        mailbox = f"user{mailbox_index}@trace.example"
        if history and rng.random() < spec.duplicate_fraction:
            sender, sequence = history[rng.randrange(len(history))]
            events.append(TraceEvent(t, mailbox, sender, sequence, duplicate=True))
            continue
        sender = f"sender{rng.randrange(spec.senders_per_mailbox)}.for.{mailbox}"
        sequence = next_sequence.get(sender, 0)
        next_sequence[sender] = sequence + 1
        events.append(TraceEvent(t, mailbox, sender, sequence))
        history.append((sender, sequence))
    return events


class VirtualClock:
    """A monotonic clock the replay harness advances by hand.

    Inject it as the scheduler's ``clock`` and as :func:`serve_trace`'s
    clock: arrivals jump it forward, measured provider CPU is charged to it,
    and it never goes backwards (so a CPU charge overlapping the next
    arrival is modelled as the queue backing up, not as time travel).

    Inside a :meth:`charge` block virtual time *flows* at real wall-clock
    rate, so code running under the charge (a serving call parking decrypt
    windows, a scheduler reading ``clock()`` mid-batch) sees truthful
    timestamps: a window opened halfway through an expensive call really is
    younger than one opened at its start.  Charging only at the end of the
    call would stamp every mid-call event with the stale pre-call time —
    and make any batching delay shorter than the call invisible.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self._charge_base: tuple[float, float] | None = None  # (virtual, real) at entry

    def __call__(self) -> float:
        if self._charge_base is not None:
            virtual, real = self._charge_base
            return virtual + (time.perf_counter() - real)
        return self.now

    def advance_to(self, when: float) -> None:
        if self._charge_base is not None:
            raise ValueError("cannot jump a clock while real time is being charged")
        self.now = max(self.now, float(when))

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a virtual clock cannot go backwards")
        if self._charge_base is not None:
            raise ValueError("cannot jump a clock while real time is being charged")
        self.now += seconds

    def charge(self, call: Callable[[], Any]) -> tuple[Any, float]:
        """Run *call* with virtual time flowing; returns (result, seconds charged)."""
        start = time.perf_counter()
        self._charge_base = (self.now, start)
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            self._charge_base = None
            self.now += elapsed
        return result, elapsed


@dataclass
class TraceReport:
    """What one :func:`serve_trace` replay measured."""

    latencies: list[float] = field(default_factory=list)  # arrival → result, virtual s
    served: int = 0
    rejected_duplicates: int = 0
    provider_cpu_seconds: float = 0.0
    decrypt_batch_sizes: list[float] = field(default_factory=list)

    def summary(self) -> dict[str, float]:
        """Flat row: latency percentiles plus throughput and batch sizes."""
        row = {
            f"latency_{key}": value for key, value in summarize_latencies(self.latencies).items()
        }
        row["served"] = float(self.served)
        row["rejected_duplicates"] = float(self.rejected_duplicates)
        row["provider_cpu_seconds"] = self.provider_cpu_seconds
        row["throughput_per_cpu_second"] = (
            self.served / self.provider_cpu_seconds if self.provider_cpu_seconds > 0 else 0.0
        )
        row["mean_decrypt_batch"] = (
            sum(self.decrypt_batch_sizes) / len(self.decrypt_batch_sizes)
            if self.decrypt_batch_sizes
            else 0.0
        )
        # The batch-size *distribution*, not just its mean: a policy can buy
        # a good mean with a few giant flushes while most windows release
        # nearly empty — p95 is what tells those stories apart.
        row["p95_decrypt_batch"] = (
            percentile(self.decrypt_batch_sizes, 95.0) if self.decrypt_batch_sizes else 0.0
        )
        return row


def serve_trace(
    runtime: Any,
    events: Sequence[TraceEvent],
    make_job: Callable[[TraceEvent], Any],
    clock: VirtualClock,
    replay_guard: ReplayGuard | None = None,
    batch_seconds: float = 0.0,
    cost_model: Callable[[float], float] | None = None,
) -> TraceReport:
    """Replay *events* against *runtime* under *clock*; measure email latency.

    *runtime* is a :class:`~repro.core.runtime.ProviderRuntime` whose
    scheduler was built with ``clock=clock`` — the harness owns time — under
    the current metrics registry (its ``decrypt_batches_total`` counter says
    how many batches each call flushed).  For
    each arrival the clock first advances through every scheduler age
    deadline that falls before it, ticking ``runtime.poll()`` at each (this
    is how aged windows fire during a lull — the idle-starvation fix made
    this loop possible; without ``poll`` the only flush points were later
    bursts).  Then the email is checked against *replay_guard* (duplicates
    are rejected and never reach the runtime), turned into a job by
    *make_job*, and served.

    Service time can be charged to the virtual clock two ways.  Without
    *cost_model*, real CPU spent inside each runtime call flows into the
    clock as measured — realistic, but every latency sample inherits the
    machine's scheduling jitter.  With *cost_model* — a callable mapping a
    flushed decrypt batch's ciphertext count to virtual service seconds —
    the clock is instead advanced by ``cost_model(size)`` for each batch the
    call flushed: the replay becomes **deterministic** given the trace and
    the scheduler policy, while real CPU is still measured separately for
    the throughput figures.  The batches a call flushed are the last Δ
    entries of ``runtime.decrypt_batch_sizes``, Δ read from the counter;
    that is exact while Δ stays within the ledger's ``RECENT_SAMPLE_CAP``.

    *batch_seconds* coalesces arrivals closer together than the given gap
    into one ``serve_burst`` call, modelling a front-end that picks up every
    connection ready in the same accept round.

    A job's latency is ``finish − arrival`` in virtual seconds, recorded when
    the runtime reports the job finished.
    """
    report = TraceReport()
    arrivals: dict[int, float] = {}  # id(job) → arrival time
    registry = get_registry()
    metric_latency = registry.histogram("trace_email_latency_seconds")
    batches = registry.counter("decrypt_batches_total")

    def note_finished(finished: Sequence[Any]) -> None:
        now = clock()
        for job in finished:
            latency = now - arrivals.pop(id(job))
            report.latencies.append(latency)
            metric_latency.observe(latency)
            report.served += 1

    def timed(call: Callable[[], Any]) -> Any:
        before = batches.value
        if cost_model is None:
            result, elapsed = clock.charge(call)
            report.provider_cpu_seconds += elapsed
        else:
            # Deterministic charging: the clock holds still during the call
            # (windows opened by an arrival are stamped with the arrival
            # time), then advances by the modelled cost of each flushed batch.
            start = time.perf_counter()
            result = call()
            report.provider_cpu_seconds += time.perf_counter() - start
        flushed = int(batches.value - before)
        sizes = runtime.decrypt_batch_sizes[-flushed:] if flushed else []
        report.decrypt_batch_sizes.extend(float(size) for size in sizes)
        if cost_model is not None:
            for size in sizes:
                clock.advance(cost_model(size))
        return result

    def poll_until(horizon: float | None) -> None:
        while True:
            deadline = runtime.scheduler.next_deadline()
            if deadline is None or (horizon is not None and deadline >= horizon):
                return
            clock.advance_to(deadline)
            note_finished(timed(runtime.poll))

    pending_batch: list[Any] = []
    batch_started: float | None = None
    for event in sorted(events, key=lambda item: item.arrival_seconds):
        flush_now = pending_batch and (
            batch_started is None or event.arrival_seconds - batch_started > batch_seconds
        )
        if flush_now:
            batch, pending_batch, batch_started = pending_batch, [], None
            note_finished(timed(lambda: runtime.serve_burst(batch)))
        poll_until(event.arrival_seconds)
        clock.advance_to(event.arrival_seconds)
        if replay_guard is not None:
            try:
                replay_guard.check_and_record(event.sender, event.sequence_number)
            except ReplayError:
                report.rejected_duplicates += 1
                continue
        job = make_job(event)
        # Latency counts from the *arrival*, not from when the (possibly
        # backlogged) clock got around to admitting it — the queue wait is
        # part of what the percentiles must see.
        arrivals[id(job)] = event.arrival_seconds
        if batch_seconds > 0.0:
            if not pending_batch:
                batch_started = event.arrival_seconds
            pending_batch.append(job)
        else:
            note_finished(timed(lambda: runtime.serve_burst([job])))
    if pending_batch:
        batch = pending_batch
        note_finished(timed(lambda: runtime.serve_burst(batch)))
    poll_until(None)  # serve out every remaining age deadline
    note_finished(timed(runtime.drain))  # windows with no age trigger
    return report
