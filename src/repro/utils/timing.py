"""Timing utilities used by benchmarks, the cost model and the serving stack.

The paper's evaluation reports per-operation CPU times (Fig. 6) and per-email
CPU times (Figs. 7, 10).  :class:`Stopwatch` accumulates named intervals so a
protocol run can attribute time to the provider and the client separately,
mirroring how the paper separates provider-side and client-side costs.

:func:`percentile` / :func:`summarize_latencies` are the latency rows the
end-to-end benchmark and the trace replay of :mod:`repro.mail.traces`
report (p50/p95/p99 plus mean/max/count).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence


@dataclass
class Stopwatch:
    """Accumulates wall-clock time under named labels."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def measure(self, label: str) -> Iterator[None]:
        """Context manager that adds the elapsed time to *label*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[label] = self.totals.get(label, 0.0) + elapsed
            self.counts[label] = self.counts.get(label, 0) + 1

    def add(self, label: str, seconds: float) -> None:
        """Manually add an interval (used when timing happens elsewhere)."""
        self.totals[label] = self.totals.get(label, 0.0) + seconds
        self.counts[label] = self.counts.get(label, 0) + 1

    def total(self, label: str) -> float:
        """Total seconds recorded under *label* (0.0 if never recorded)."""
        return self.totals.get(label, 0.0)

    def mean(self, label: str) -> float:
        """Mean seconds per recorded interval under *label*."""
        count = self.counts.get(label, 0)
        return self.totals.get(label, 0.0) / count if count else 0.0

    def merge(self, other: "Stopwatch") -> None:
        """Fold another stopwatch's accumulators into this one."""
        for label, seconds in other.totals.items():
            self.totals[label] = self.totals.get(label, 0.0) + seconds
        for label, count in other.counts.items():
            self.counts[label] = self.counts.get(label, 0) + count

    def as_dict(self) -> dict[str, float]:
        """Snapshot of label -> total seconds."""
        return dict(self.totals)


def time_call(func: Callable[[], object], repeat: int = 1) -> float:
    """Return the mean wall-clock seconds of calling *func* *repeat* times."""
    if repeat <= 0:
        raise ValueError("repeat must be positive")
    start = time.perf_counter()
    for _ in range(repeat):
        func()
    return (time.perf_counter() - start) / repeat


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile of *samples* by linear interpolation.

    ``q`` is in percent (``50`` is the median).  Pure Python on purpose: the
    benchmark calls this on a few thousand floats, and keeping it free of
    numpy means the serving runtime can report percentiles without importing
    an array stack into a worker process.
    """
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} is outside [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low] * (1.0 - fraction) + ordered[high] * fraction)


def summarize_latencies(samples: Sequence[float]) -> dict[str, float]:
    """The standard latency summary: p50/p95/p99 plus mean/max/count.

    This is the schema of the trace-replay report
    (:meth:`repro.mail.traces.TraceReport.summary`), so the keys live in
    exactly one place.
    """
    if not samples:
        return {"count": 0.0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    return {
        "count": float(len(samples)),
        "mean": sum(samples) / len(samples),
        "max": float(max(samples)),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


def format_duration(seconds: float) -> str:
    """Human-readable duration (µs / ms / s) used by the bench harness output."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
