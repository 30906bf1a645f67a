"""Unified telemetry: the metrics registry, span tracer, and exporters.

Pretzel's whole evaluation is accounting — per-email CPU, network bytes and
latency per provider function (Figs. 6/7/10, §6.3) — so the serving stack
keeps its counters in one place instead of scattering ad-hoc ledgers across
transports, schedulers and ``stats()`` dicts.  This package supplies:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry` of
  counters, gauges and fixed log-bucket histograms.  Instruments are bound
  once (at the owning object's construction) and bumped with plain attribute
  arithmetic, so the NTT/decrypt hot path pays no lookup per observation.
  Snapshots are plain picklable dicts with well-defined merge semantics,
  which is what lets :class:`~repro.core.runtime.ShardedRuntime` workers
  piggyback their metrics on burst/drain replies and the parent expose one
  aggregated view without double-counting.
* :mod:`repro.obs.spans` — a bounded flight recorder of spans following one
  email end to end (enqueue → window park → decrypt flush → reply).
  Correlation ids ride in-process on :class:`~repro.twopc.session.SessionJob`
  (no wire-format change), and all timestamps come from the owning
  scheduler's injected clock, so a :class:`~repro.mail.traces.VirtualClock`
  replay produces bit-identical spans.
* :mod:`repro.obs.export` — Prometheus text, JSON, and Chrome-trace
  (``chrome://tracing`` / Perfetto) exporters plus the golden-schema
  validators CI's obs smoke job runs against a live registry.

Everything here is stdlib-only and imports nothing from the rest of the
repository, so any module (transports, schedulers, crypto) can instrument
itself without an import cycle.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    empty_snapshot,
    get_registry,
    merge_snapshots,
    scoped_registry,
    set_registry,
)
from repro.obs.spans import (
    SpanTracer,
    get_tracer,
    scoped_tracer,
    set_tracer,
    trace_is_sampled,
)

from contextlib import contextmanager


@contextmanager
def scoped_telemetry(registry=None, tracer=None):
    """Install a fresh (or given) registry *and* tracer for one ``with`` block.

    The standard harness idiom: a bench arm or a test opens a scope, builds
    its runtime inside it (instruments bind at construction), and reads the
    scope's registry/tracer afterwards — without leaking observations into
    the process-wide defaults or inheriting anyone else's.
    """
    registry = MetricsRegistry() if registry is None else registry
    tracer = SpanTracer() if tracer is None else tracer
    with scoped_registry(registry), scoped_tracer(tracer):
        yield registry, tracer


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
    "empty_snapshot",
    "get_registry",
    "get_tracer",
    "merge_snapshots",
    "scoped_registry",
    "scoped_telemetry",
    "scoped_tracer",
    "set_registry",
    "set_tracer",
    "trace_is_sampled",
]
