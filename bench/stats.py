"""Arithmetic behind the reported figures: percentiles, shares, self time."""

from __future__ import annotations

import math
import statistics

# Percentiles tried for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile of a nonempty sample."""
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile of ``n`` samples."""
    return n - _rank(n, q)


def tail(values) -> tuple[float, float] | None:
    """(q, value) for the highest ladder percentile with ten samples beyond it.

    None when even the median has fewer than ten samples beyond it.
    """
    for q in TAIL_LADDER:
        if beyond(len(values), q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def median(values) -> float:
    return statistics.median(values)


def share(part: int, whole: int) -> float | None:
    """part / whole, or None when nothing was attempted."""
    return part / whole if whole else None


class Coverage:
    """Running length of the union of intervals added in order of start time."""

    __slots__ = ("covered", "reach")

    def __init__(self):
        self.covered = 0.0
        self.reach = -math.inf

    def add(self, start: float, end: float) -> None:
        if end > self.reach:
            self.covered += end - max(start, self.reach)
            self.reach = end
