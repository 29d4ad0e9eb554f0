"""Fast checks of the benchmark's own arithmetic (no workload is run)."""

import math
import random

import pytest

from benchstats import (
    TAIL_MIN_BEYOND,
    coverage,
    executor_efficiency,
    executor_wait,
    quartile_spread,
    self_time,
    tail_percentile,
    union_length,
)
from tracer import STEP, Span, Tracer
from workloads import Stream, UpdateCheck, UpdateSample, _codec_counts, layer_metrics


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile([1.0] * TAIL_MIN_BEYOND) is None
    value, percentile = tail_percentile([float(i) for i in range(11)])
    assert (value, percentile) == (0.0, 0.0)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(40)]
    random.Random(0).shuffle(values)
    value, percentile = tail_percentile(values)
    assert value == 29.0  # 30..39 lie beyond it
    assert sum(v > value for v in values) == TAIL_MIN_BEYOND
    assert percentile == pytest.approx(100.0 * 29 / 39)


def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([]) == 0


def test_self_time_subtracts_covered_part_once():
    assert self_time((0.0, 10.0), [(1.0, 3.0), (3.0, 4.0)]) == pytest.approx(7.0)
    # overlapping children (threads) and a child spilling past the parent
    assert self_time((0.0, 10.0), [(1.0, 5.0), (2.0, 6.0), (9.0, 12.0)]) == pytest.approx(4.0)
    assert self_time((0.0, 1.0), []) == 1.0


def test_coverage_share():
    assert coverage((0.0, 4.0), [(0.0, 1.0), (2.0, 4.0)]) == pytest.approx(0.75)
    assert coverage((0.0, 4.0), []) == 0.0
    assert coverage((1.0, 1.0), []) == 1.0


def test_executor_efficiency_and_wait():
    # two workers busy 3 s in total during a 2 s wall: 3 / (2 * 2)
    assert executor_efficiency(3.0, 2, 2.0) == pytest.approx(0.75)
    assert executor_wait(3.0, 2, 2.0) == pytest.approx(0.5)
    assert executor_efficiency(1.0, 1, 0.0) == 0.0
    with pytest.raises(ValueError):
        executor_efficiency(1.0, 0, 1.0)


def test_quartile_spread():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert math.isinf(quartile_spread([0.0, 0.0, 0.0, 0.0]))
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_summarize_self_time_and_root_coverage():
    tracer = Tracer()
    tracer.spans = [
        Span(STEP, 0.0, 10.0),
        Span("outer", 1.0, 9.0, parent=0),
        Span("inner", 2.0, 5.0, parent=1, extra={"bytes_out": 7.0}),
        Span("inner", 6.0, 7.0, parent=1, extra={"bytes_out": 3.0}),
    ]
    summary = tracer.summarize()
    assert summary["total"]["inner"] == pytest.approx(4.0)
    assert summary["self"]["outer"] == pytest.approx(4.0)
    assert summary["self"][STEP] == pytest.approx(2.0)
    assert summary["extra"]["inner.bytes_out"] == 10.0
    assert summary["coverage"] == [pytest.approx(0.8)]


def test_layer_metrics_executor_share_per_step():
    # two rounds on two workers, each 1 s of executor wall with 1.5 s of
    # reported client seconds: 3 / (2 workers * 2 s)
    tracer = Tracer()
    busy = {"reported_train_s": 1.0, "reported_codec_s": 0.5}
    tracer.spans = [
        Span(STEP, 0.0, 1.0, step=0),
        Span("fl.executor", 0.0, 1.0, parent=0, step=0, extra=busy),
        Span(STEP, 2.0, 3.0, step=1),
        Span("fl.executor", 2.0, 3.0, parent=2, step=1, extra=busy),
    ]
    metrics = layer_metrics(tracer, steps=2, workers=2)
    assert metrics["fl.executor.s"] == pytest.approx(1.0)
    assert metrics["fl.executor.efficiency"] == pytest.approx(0.75)
    assert metrics["fl.executor.wait_s"] == pytest.approx(0.25)
    assert metrics["fl.client.reported_train_s"] == pytest.approx(1.0)
    assert metrics["trace.coverage_min"] == pytest.approx(1.0)


class _Codec:
    @staticmethod
    def encode(x):
        return x + 1

    def decode(self, x):
        return x - 1


def test_patch_records_spans_and_uninstall_restores():
    tracer = Tracer(enabled=False)
    original = _Codec.__dict__["decode"]
    tracer.patch(_Codec, "encode", "encode")
    tracer.patch(_Codec, "decode", "decode", lambda args, result: {"value": float(result)})
    assert _Codec.encode(1) == 2  # disabled: no span
    tracer.enabled = True
    root = tracer.open(STEP)
    assert _Codec().decode(_Codec.encode(1)) == 1
    tracer.close(root)
    tracer.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans] == [(STEP, -1), ("encode", 0), ("decode", 0)]
    assert tracer.spans[2].extra == {"value": 1.0}
    assert _Codec.__dict__["decode"] is original
    assert isinstance(_Codec.__dict__["encode"], staticmethod)


def _sample(digest, violations=0):
    check = UpdateCheck(lossy=4, violations=violations)
    return UpdateSample("alexnet", 100, 10, 1.0, 0.1, digest, check)


def test_codec_counts_only_distinct_updates_and_checks_replays():
    stream = Stream()
    for position, sample in enumerate([_sample("a", 1), _sample("b")]):
        stream.add(position, sample)
    stream.add(0, _sample("a", 1))
    assert len(stream.timed) == 3
    assert _codec_counts(stream) == (8, 1, True)
    stream.add(1, _sample("changed"))
    assert _codec_counts(stream) == (8, 1, False)
