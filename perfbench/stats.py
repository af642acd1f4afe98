"""Percentiles with the sample-count rule used for every reported timing.

A timing is reported as its median plus the highest percentile that still
has at least ``MIN_BEYOND`` samples above it, together with the sample count.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of samples at or below."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supports(n: int, q: float) -> bool:
    """True when the q-th percentile of n samples has MIN_BEYOND samples above it."""
    return beyond(n, q) >= MIN_BEYOND

