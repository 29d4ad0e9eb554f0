"""Arithmetic the benchmark reports: percentiles, self time, coverage, efficiency.

Everything here is pure Python over plain numbers so that
``test_benchstats.py`` can pin it down without running a workload.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: A tail percentile is only reported when this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of an empty sequence")
    return float(statistics.median(values))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``TAIL_MIN_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``, where ``value`` is the sample of rank
    ``n - TAIL_MIN_BEYOND - 1`` in ascending order (so exactly that many
    samples are larger or equal and lie after it) and ``percentile`` is its
    position ``100 * rank / (n - 1)`` on the linear-interpolation scale.
    ``None`` when there are too few samples for any such percentile.
    """
    n = len(values)
    if n < TAIL_MIN_BEYOND + 1:
        return None
    ordered = sorted(values)
    rank = n - TAIL_MIN_BEYOND - 1
    percentile = 100.0 * rank / (n - 1) if n > 1 else 100.0
    return float(ordered[rank]), percentile


def union_length(
    intervals: Iterable[Interval], lo: float = -math.inf, hi: float = math.inf
) -> float:
    """Total length covered by ``intervals`` after clipping them to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if min(end, hi) > max(start, lo)
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in clipped:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    start, end = span
    return (end - start) - union_length(children, start, end)


def coverage(span: Interval, children: Iterable[Interval]) -> float:
    """Share of ``span`` covered by ``children`` (1.0 for a zero-length span)."""
    start, end = span
    if end <= start:
        return 1.0
    return union_length(children, start, end) / (end - start)


def executor_efficiency(busy_seconds: float, workers: float, wall_seconds: float) -> float:
    """Program-reported busy seconds over the capacity ``workers * wall``."""
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if wall_seconds <= 0.0:
        return 0.0
    return busy_seconds / (workers * wall_seconds)


def executor_wait(busy_seconds: float, workers: float, wall_seconds: float) -> float:
    """Wall time per worker not accounted for by reported busy time."""
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    return wall_seconds - busy_seconds / workers


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the steadiness figure)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
