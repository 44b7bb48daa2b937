"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from harness import (  # noqa: E402
    Span,
    SpanRecorder,
    median_rate,
    open_loop,
    open_loop_latency,
    percentile,
    self_times,
)


class TestPercentileRule:
    def test_reported_with_ten_samples_beyond(self):
        samples = list(range(1, 101))
        value, n = percentile(samples, 0.9)
        assert (value, n) == (90, 100)

    def test_withheld_with_nine_samples_beyond(self):
        value, n = percentile(list(range(1, 100)), 0.9)
        assert value is None
        assert n == 99

    @pytest.mark.parametrize("q, needed", [(0.5, 20), (0.9, 100), (0.99, 1000)])
    def test_minimum_sample_counts(self, q, needed):
        assert percentile([1.0] * needed, q)[0] == 1.0
        assert percentile([1.0] * (needed - 1), q)[0] is None

    def test_nearest_rank_is_order_free(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 8
        assert percentile(samples, 0.5) == (3.0, 40)

    def test_empty_and_degenerate(self):
        assert percentile([], 0.5) == (None, 0)
        assert percentile([1.0] * 50, 1.0) == (None, 50)


class TestMedianRate:
    def test_each_kind_at_its_median(self):
        samples = {"a": [1.0, 9.0, 1.0], "b": [2.0, 2.0, 50.0]}
        # One unit of each kind takes 1 + 2 s at the medians.
        assert median_rate(samples, {"a": 1, "b": 1}) == pytest.approx(2 / 3)

    def test_weights_follow_the_mix(self):
        samples = {"hot": [0.1, 0.1], "fresh": [1.0]}
        rate = median_rate(samples, {"hot": 15, "fresh": 1})
        assert rate == pytest.approx(16 / 2.5)

    def test_kinds_without_samples_drop_out(self):
        assert median_rate({"a": [0.5]}, {"a": 1, "b": 1}) == pytest.approx(2.0)
        assert median_rate({}, {"a": 1}) == 0.0


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [
            Span(0, "root", 0.0, 10.0),
            Span(1, "a", 1.0, 3.0, parent=0),
            Span(2, "b", 5.0, 6.0, parent=0),
        ]
        assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}

    def test_overlapping_children_count_once(self):
        spans = [
            Span(0, "root", 0.0, 10.0),
            Span(1, "a", 1.0, 3.0, parent=0),
            Span(2, "b", 2.0, 4.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(7.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            Span(0, "root", 0.0, 10.0),
            Span(1, "late", 9.0, 12.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(9.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            Span(0, "root", 0.0, 10.0),
            Span(1, "mid", 2.0, 8.0, parent=0),
            Span(2, "leaf", 3.0, 5.0, parent=1),
        ]
        selfs = self_times(spans)
        assert selfs == {0: 4.0, 1: 4.0, 2: 2.0}
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_recorder_links_nested_spans(self):
        rec = SpanRecorder()
        outer = rec.begin("outer")
        inner = rec.begin("inner")
        rec.end(inner)
        rec.end(outer)
        after = rec.begin("after")
        rec.end(after)
        assert inner.parent == outer.id
        assert outer.parent is None and after.parent is None
        selfs = self_times(rec.spans)
        assert selfs[outer.id] == pytest.approx(
            (outer.end - outer.start) - (inner.end - inner.start)
        )


class FakeClock:
    """A clock that only moves when the generator sleeps or a send stalls."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestOpenLoop:
    def _run(self, stalls: dict[int, float], n: int = 6, rate: float = 2.0):
        clock = FakeClock()
        arrivals = []

        def send(i: int) -> str:
            clock.now += stalls.get(i, 0.0)
            return f"job-{i}"

        open_loop(n, rate, send, arrivals.append, start=1.0, clock=clock,
                  sleep=clock.sleep)
        return arrivals

    def test_sends_on_schedule(self):
        arrivals = self._run({})
        assert [a.due for a in arrivals] == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        assert [a.sent for a in arrivals] == [a.due for a in arrivals]
        assert [a.result for a in arrivals] == [f"job-{i}" for i in range(6)]

    def test_a_stall_makes_later_sends_late_but_keeps_due_times(self):
        # Sending job 1 blocks for 1.2 s: jobs 2 and 3 go out late.
        arrivals = self._run({1: 1.2})
        assert [a.due for a in arrivals] == [1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        lateness = [open_loop_latency(a.due, a.due, a.sent)[1]
                    for a in arrivals]
        assert lateness == pytest.approx([0.0, 0.0, 700.0, 200.0, 0.0, 0.0])

    def test_latency_runs_from_the_due_time(self):
        latency, lateness = open_loop_latency(due=2.0, finished=2.5, sent=2.3)
        assert latency == pytest.approx(500.0)
        assert lateness == pytest.approx(300.0)

    def test_early_send_is_not_negative_lateness(self):
        assert open_loop_latency(due=2.0, finished=2.1, sent=1.9)[1] == 0.0
