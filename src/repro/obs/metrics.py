"""Process-local metrics registry: counters, gauges, log-bucket histograms.

Design constraints, in order:

1. **Hot-path cost.**  The decrypt/NTT pump observes per frame and per
   batch; an observation must be attribute arithmetic on a bound
   instrument, never a dict lookup by rendered name.  Callers therefore
   bind instruments once at construction (``self._frames =
   registry.counter("transport_frames_total", party="client")``) and bump
   the bound object.
2. **Mergeable snapshots.**  `ShardedRuntime` workers ship their registry
   state to the parent piggybacked on pipe replies, so a snapshot is a
   plain picklable dict and merging two snapshots of disjoint work equals
   one registry that saw both streams: counters and gauges add, histograms
   add bucket-wise (all histograms share the same fixed bounds).
3. **Determinism.**  Snapshots are sorted by rendered key and contain no
   wall-clock or pid material, so equal work yields byte-equal snapshots —
   the property the shard-vs-single-process equivalence tests pin.

Stdlib-only on purpose: ``repro.utils.timing`` (and nearly everything
else) imports this module, so it must sit at the bottom of the import
graph.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from typing import Iterator

SNAPSHOT_SCHEMA = "repro-metrics/1"

# Fixed log-scale bounds shared by every histogram: 10**(e/4) for e in
# [-24, 16], i.e. ~1e-6 .. 1e4 with four buckets per decade.  Wide enough
# to hold microsecond decrypt ages and multi-thousand-ciphertext batch
# sizes in the same scheme, which is what makes bucket-wise merging safe.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-24, 17)
)

# Samples kept verbatim (per histogram) for percentile reads; everything
# older is still represented exactly in the bucket counts and running sum.
RECENT_SAMPLE_CAP = 4096


def render_key(name: str, labels: dict[str, str]) -> str:
    """Render the canonical registry key, e.g. ``frames_total{party=client}``."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter.  ``inc`` is the only mutator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value (merge across shards sums)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bound log-bucket histogram with a capped recent-sample window.

    Bucket ``i`` counts observations ``<= bounds[i]`` and ``> bounds[i-1]``
    (Prometheus inclusive-``le`` convention); the final slot is the
    ``+Inf`` overflow.  ``recent`` holds the last ``RECENT_SAMPLE_CAP``
    raw samples for percentile queries — bounded by construction, which is
    what replaces the grow-forever ledgers this registry retires.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum", "min", "max", "recent")

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS,
    ):
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.recent: deque[float] = deque(maxlen=RECENT_SAMPLE_CAP)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.recent.append(value)


class MetricsRegistry:
    """Get-or-create home for every instrument in one process.

    Lookups happen at *construction* of the instrumented object; the
    returned instrument is then bumped directly.  A lock guards only the
    create path (the shard parent merges snapshots from its collector
    thread while the caller reads).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        key = render_key(name, labels)
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, labels)
            return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = render_key(name, labels)
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, labels)
            return instrument

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS,
        **labels: str,
    ) -> Histogram:
        key = render_key(name, labels)
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(name, labels, bounds)
            return instrument

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of every instrument, sorted by rendered key.

        Picklable, JSON-able, and deterministic for deterministic work —
        the unit shard workers piggyback on pipe replies.
        """
        with self._lock:
            counters = [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for _, c in sorted(self._counters.items())
            ]
            gauges = [
                {"name": g.name, "labels": dict(g.labels), "value": g.value}
                for _, g in sorted(self._gauges.items())
            ]
            histograms = [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "recent": list(h.recent),
                }
                for _, h in sorted(self._histograms.items())
            ]
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a snapshot into the live instruments (sum semantics).

        Counters and gauges add; histograms add bucket-wise and splice the
        donor's recent samples (newest-biased, still capped).  Merging the
        snapshots of N workers that split a stream therefore equals the
        registry of one process that served the whole stream — the
        equivalence the shard tests pin.
        """
        if snap.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"unknown metrics snapshot schema: {snap.get('schema')!r}")
        for entry in snap["counters"]:
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snap["gauges"]:
            self.gauge(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in snap["histograms"]:
            hist = self.histogram(
                entry["name"], bounds=tuple(entry["bounds"]), **entry["labels"]
            )
            if list(hist.bounds) != entry["bounds"]:
                raise ValueError(f"histogram bound mismatch for {entry['name']!r}")
            for index, bucket in enumerate(entry["counts"]):
                hist.counts[index] += bucket
            hist.count += entry["count"]
            hist.sum += entry["sum"]
            if entry["count"]:
                if entry["min"] < hist.min:
                    hist.min = entry["min"]
                if entry["max"] > hist.max:
                    hist.max = entry["max"]
            hist.recent.extend(entry["recent"])


def merge_snapshots(*snaps: dict) -> dict:
    """Merge snapshots into one (associative; merging none gives an empty snapshot)."""
    merged = MetricsRegistry()
    for snap in snaps:
        merged.merge_snapshot(snap)
    return merged.snapshot()


# -- process-default registry -----------------------------------------------
#
# A module-level default keeps instrumentation call sites dependency-free
# (Transport and friends take no registry parameter), while scoped_registry
# lets a bench arm or test swap in an isolated registry for one block.
# Shard worker processes install a fresh registry at startup so fork()ed
# parent state never leaks into worker snapshots.

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def scoped_registry(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    registry = MetricsRegistry() if registry is None else registry
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
