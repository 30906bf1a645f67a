"""Trace-driven workloads for the serving stack (§6.3 latency evaluation).

The paper evaluates the provider stack under realistic email arrivals, not
uniform bursts: volume is heavy-tailed across mailboxes, rate swings with the
time of day, and traffic clumps into bursts.  :func:`generate_trace` produces
such a workload from one seed — a thinned inhomogeneous Poisson process whose
rate is a diurnal sinusoid times a burst multiplier, with mailboxes drawn
from a Zipf distribution and per-sender sequence numbers (plus a configurable
sprinkle of injected duplicates for the §4.4
:class:`~repro.mail.replay.ReplayGuard`).  The trace is deterministic given
the :class:`TraceSpec` seed.

:class:`VirtualClock` is a hand-advanced clock for schedulers and tracers
whose timings must not depend on the machine.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate


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
        # A NaN rate or an infinite duration would keep generate_trace drawing
        # arrivals forever; a NaN fails every comparison below, so refuse it first.
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
        if self.mean_burst_seconds <= 0 or self.diurnal_period_seconds <= 0:
            raise ValueError("mean_burst_seconds and diurnal_period_seconds must be positive")
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
    """A monotonic clock advanced by hand.

    Inject it as a scheduler's ``clock`` (and a telemetry tracer's) so that
    window ages, deadlines and span timestamps are virtual seconds: the same
    schedule of calls then yields the same timings and the same flight
    recording, whatever the machine.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a virtual clock cannot go backwards")
        self.now += seconds
