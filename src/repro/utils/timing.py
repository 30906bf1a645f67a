"""Latency percentiles: the interpolation rule of the end-to-end benchmark's rows."""

from __future__ import annotations

import math
from typing import Sequence


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


