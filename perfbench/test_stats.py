"""Tests of the benchmark's own arithmetic (not part of the program's suite).

    python3 -m pytest perfbench/test_stats.py -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from stats import (  # noqa: E402
    error_rate,
    fleet_error_base,
    query_error_base,
    relative_spread,
    self_time,
    tail,
    union_length,
)
from tracer import Tracer, self_times  # noqa: E402


class TestTail:
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, percentile, n = tail(values)
        assert n == 100
        assert value == 90  # 91..100 are the ten beyond it
        assert sum(1 for v in values if v > value) == 10
        assert percentile == 90.0

    def test_large_sample_reaches_far_tail(self):
        values = [float(i) for i in range(10_000)]
        value, percentile, _ = tail(values)
        assert value == 9_989.0
        assert percentile == 99.9

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
        assert tail(values) == tail(sorted(values))
        assert tail(values)[0] == 1.0  # 12 samples: the 2nd smallest has 10 beyond

    def test_eleven_samples_is_the_minimum(self):
        assert tail(list(range(11)))[0] == 0
        assert tail(list(range(10))) is None
        assert tail([]) is None

    def test_ties_count_as_samples_beyond(self):
        values = [1.0] * 5 + [2.0] * 20
        value, _, _ = tail(values)
        assert value == 2.0  # sample n-11 lies inside the run of 2.0s


class TestSelfTime:
    def test_no_children(self):
        assert self_time(0.0, 10.0, []) == 10.0

    def test_disjoint_children_subtract(self):
        assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        # Two threads' children overlapping on [2, 4]: union is [1, 6].
        assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 6.0)]) == 5.0

    def test_nested_and_identical_children_count_once(self):
        assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]) == 4.0

    def test_children_are_clipped_to_the_parent(self):
        assert self_time(5.0, 10.0, [(0.0, 6.0), (9.0, 20.0)]) == 3.0

    def test_touching_children_merge(self):
        assert union_length([(0.0, 1.0), (1.0, 2.0), (4.0, 5.0)]) == 3.0

    def test_tracer_self_times_use_the_union(self):
        spans = [
            {"id": 1, "parent": None, "trace": 1, "name": "run", "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "trace": 1, "name": "fold", "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "trace": 1, "name": "decode", "start": 3.0, "end": 5.0},
            {"id": 4, "parent": 3, "trace": 1, "name": "loads", "start": 3.5, "end": 4.5},
        ]
        selfs = self_times(spans)
        assert selfs["run"] == [6.0]
        assert selfs["fold"] == [3.0]
        assert selfs["decode"] == [1.0]
        assert selfs["loads"] == [1.0]

    def test_tracer_nests_spans_per_thread(self):
        tracer = Tracer()
        with tracer.span("run", root=True) as run:
            with tracer.span("fold") as fold:
                pass
        assert fold["parent"] == run["id"]
        assert fold["trace"] == run["id"] == run["trace"]
        assert run["parent"] is None
        assert tracer.counts["run.calls"] == tracer.counts["fold.calls"] == 1


class TestErrorRate:
    def test_fleet_retries_are_attempted_and_failed(self):
        attempted, failed = fleet_error_base(runs=10, failed_runs=0, shard_retries=2)
        assert (attempted, failed) == (12, 2)
        assert error_rate(attempted, failed) == 2 / 12

    def test_fleet_failed_run_counts_once(self):
        assert fleet_error_base(runs=4, failed_runs=1, shard_retries=0) == (4, 1)

    def test_query_counts_each_query_once(self):
        # A query failing several checks is still one failed op.
        assert query_error_base([True, False, True, False]) == (4, 2)

    def test_clean_run_is_zero_over_its_base(self):
        attempted, failed = query_error_base([True] * 7)
        assert (attempted, failed) == (7, 0)
        assert error_rate(attempted, failed) == 0.0

    def test_nothing_attempted(self):
        assert error_rate(0, 0) == 0.0


def test_relative_spread_matches_statistics_quantiles():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == (q3 - q1) / q2
