"""The benchmark's own arithmetic: medians, the tail rule, span self time
and the error-rate base.  Kept free of any program import so that
``test_stats.py`` can pin each rule on its own."""

from __future__ import annotations

import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: The tail percentile is the highest one with at least this many
#: samples beyond it, so it never rests on a handful of outliers.
TAIL_SAMPLES_BEYOND = 10


def median(values: Iterable[float]) -> float:
    """Median, or 0.0 for no samples (a layer the workload never entered)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(value, percentile, n)`` of the highest percentile that has at
    least :data:`TAIL_SAMPLES_BEYOND` samples beyond it.

    With ``n`` sorted samples, sample ``i`` (0-based) has ``n - 1 - i``
    samples beyond it, so the answer is sample ``n - 11`` and its
    nearest-rank percentile is ``100 * (n - 10) / n``.  Fewer than 11
    samples support no such percentile: ``None``.
    """
    n = len(values)
    index = n - 1 - TAIL_SAMPLES_BEYOND
    if index < 0:
        return None
    ordered = sorted(values)
    return ordered[index], 100.0 * (index + 1) / n, n


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children (work on other threads under one parent) count once.
    """
    clipped: List[Tuple[float, float]] = []
    for c_start, c_end in children:
        lo, hi = max(c_start, start), min(c_end, end)
        if hi > lo:
            clipped.append((lo, hi))
    return (end - start) - union_length(clipped)


def fleet_error_base(runs: int, failed_runs: int, shard_retries: int) -> Tuple[int, int]:
    """``(attempted, failed)`` for a fleet workload.

    The ops are runs and shard retries: a retry is a shard attempt that
    a dying worker lost, so it counts as attempted and as failed.  A run
    that raised or failed its digest check is one failed op.
    """
    return runs + shard_retries, failed_runs + shard_retries


def query_error_base(outcomes: Iterable[bool]) -> Tuple[int, int]:
    """``(attempted, failed)`` for the query workload: one op per query
    sent; a query fails once however many of its checks fail (non-200,
    transport error, wrong answer)."""
    outcomes = list(outcomes)
    return len(outcomes), sum(1 for ok in outcomes if not ok)


def error_rate(attempted: int, failed: int) -> float:
    """Failed ops over attempted ops (0 when nothing was attempted)."""
    return failed / attempted if attempted else 0.0
