"""Order statistics shared by the benchmark runner, its comparison tool and tests."""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; with fewer it would describe a handful of values, not a tail.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    if len(xs) - rank < MIN_BEYOND:
        return None
    return float(xs[rank - 1])


def pooled_rate(rates) -> float:
    """Total work over total time for operations of equal work.

    That is the harmonic mean of their rates; unlike the median it moves
    smoothly as a run's share of slow moments changes.
    """
    return float(statistics.harmonic_mean(rates))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
