"""Bounded span tracer: the per-email flight recorder.

A *span* is one named interval on one correlation id (``trace_id``), e.g.
the ``window_park`` stretch an email spends waiting for its decrypt window
to fire.  `ProviderRuntime` emits a fixed chain per served email —
``enqueue → window_park → decrypt → reply`` plus an enclosing ``email``
span — keyed by a trace id minted at admission and carried in-process on
the `SessionJob` (nothing touches the wire format, so golden frame bytes
stay pinned).

Timestamps come from whatever clock the *owning* object injects, so a
`VirtualClock` replay records virtual seconds and the same seed + policy
reproduces bit-identical spans (pinned by test); wall-clock runs record
``time.monotonic`` seconds.  Storage is a fixed-capacity ring with a
dropped-span counter — a long-running server never grows it.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

SPAN_CAPACITY = 4096

#: Denominator of the deterministic sampling hash: a trace is kept when
#: ``sha256(trace_id) mod _SAMPLE_MODULUS < sample_rate * _SAMPLE_MODULUS``.
_SAMPLE_MODULUS = 1 << 32


def trace_is_sampled(trace_id: str, sample_rate: float) -> bool:
    """Deterministic per-trace sampling decision (shared by every tracer).

    Hash-based, not random: every span of one trace id shares its fate (a
    sampled email keeps its *whole* ``enqueue → ... → reply`` chain), and the
    same trace id samples identically in every process of a fabric — so a
    cross-shard trace is either fully present or fully absent, never ragged.
    """
    if sample_rate >= 1.0:
        return True
    if sample_rate <= 0.0:
        return False
    digest = hashlib.sha256(trace_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") < int(sample_rate * _SAMPLE_MODULUS)


class SpanTracer:
    """Fixed-capacity recorder of completed spans.

    Spans are recorded *complete* (start and end known) because the serving
    loop discovers interval edges itself — there is no enter/exit stack to
    manage on the hot path, just one `record` per finished interval.

    ``sample_rate`` (default 1.0 = keep everything) thins fabric-scale span
    volume *by trace id* before the ring sees it, so a busy deployment keeps
    representative whole-email chains instead of evicting interesting spans
    with ring churn.  Sampled-out spans are counted in :attr:`sampled_out`
    (the deliberate sibling of :attr:`dropped`, which keeps counting only
    capacity evictions).
    """

    def __init__(
        self,
        capacity: int = SPAN_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
        sample_rate: float = 1.0,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        self.capacity = capacity
        self.clock = clock
        self.sample_rate = sample_rate
        self._lock = threading.Lock()
        self._spans: deque[dict] = deque(maxlen=capacity)
        self.dropped = 0
        self.sampled_out = 0

    def record(
        self,
        trace_id: str,
        name: str,
        start_seconds: float,
        end_seconds: float,
        category: str = "serve",
        **meta: object,
    ) -> dict:
        span = {
            "trace_id": trace_id,
            "name": name,
            "category": category,
            "start_seconds": start_seconds,
            "end_seconds": end_seconds,
            "meta": meta,
        }
        if not trace_is_sampled(trace_id, self.sample_rate):
            with self._lock:
                self.sampled_out += 1
            return span
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
        return span

    def snapshot(self) -> list[dict]:
        """Copy of the recorded spans, oldest first (ring order)."""
        with self._lock:
            return [dict(span, meta=dict(span["meta"])) for span in self._spans]


_default_tracer = SpanTracer()


def get_tracer() -> SpanTracer:
    return _default_tracer


def set_tracer(tracer: SpanTracer) -> SpanTracer:
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


@contextmanager
def scoped_tracer(tracer: SpanTracer | None = None) -> Iterator[SpanTracer]:
    tracer = SpanTracer() if tracer is None else tracer
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
