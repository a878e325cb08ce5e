"""Summary statistics with the benchmark's reporting rules."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def samples_needed(quantile: float) -> int:
    """The smallest sample count at which *quantile* may be reported."""
    return math.ceil(round(MIN_BEYOND / (1.0 - quantile), 6))


def percentile(samples: Sequence[float], quantile: float) -> Optional[float]:
    """Nearest-rank percentile, or ``None`` when fewer than ten samples lie
    beyond it (the rank sits ``ceil(quantile * n)`` from the bottom)."""
    count = len(samples)
    rank = math.ceil(quantile * count - 1e-9)
    if count == 0 or count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def error_rate(attempted: int, failed: int) -> float:
    """Operations that raised or were refused, over operations attempted."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    return failed / attempted


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
