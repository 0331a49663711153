"""Tests for the latency histogram (``repro.obs.hist``).

The histogram is the one latency record behind every latency number the
observability layer reports (timer and histogram snapshots, the loadgen
sweep, the ``/metrics`` exposition), so the properties asserted here —
bounded relative error, byte-stable serialization, deterministic bucket
arithmetic — are load-bearing for the determinism contract.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.obs
from repro.obs import Metrics, render_prometheus
from repro.obs.hist import (
    DEFAULT_MIN_VALUE_S,
    DEFAULT_SUBBUCKETS,
    LatencyHistogram,
)


def _exact_percentile(values, q):
    """Nearest-rank percentile on the exact sample (the oracle)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestBucketArithmetic:
    def test_index_zero_for_subresolution_values(self):
        hist = LatencyHistogram()
        assert hist.bucket_index(0.0) == 0
        assert hist.bucket_index(DEFAULT_MIN_VALUE_S / 2) == 0

    def test_bounds_bracket_the_value(self):
        hist = LatencyHistogram()
        for value in (1e-6, 3.7e-5, 1e-3, 0.25, 1.0, 17.3, 9000.0):
            index = hist.bucket_index(value)
            low, high = hist.bucket_bounds(index)
            assert low <= value < high or index == 0

    def test_relative_error_bound(self):
        hist = LatencyHistogram()
        assert hist.relative_error == pytest.approx(
            1 / (2 * DEFAULT_SUBBUCKETS)
        )
        rng = random.Random(13)
        for _ in range(2_000):
            value = 10 ** rng.uniform(-5.5, 3.5)
            mid = hist.bucket_mid(hist.bucket_index(value))
            assert abs(mid - value) / value <= hist.relative_error + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_property_bounds_contain_value(self, value):
        hist = LatencyHistogram()
        index = hist.bucket_index(value)
        low, high = hist.bucket_bounds(index)
        if index == 0:
            assert value < high
        else:
            assert low <= value < high

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-9, max_value=1e6,
                     allow_nan=False, allow_infinity=False),
           st.floats(min_value=1e-9, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    def test_property_index_monotone(self, a, b):
        hist = LatencyHistogram()
        if a > b:
            a, b = b, a
        assert hist.bucket_index(a) <= hist.bucket_index(b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=20 * DEFAULT_SUBBUCKETS))
    def test_property_mid_round_trips_to_same_bucket(self, index):
        hist = LatencyHistogram()
        assert hist.bucket_index(hist.bucket_mid(index)) == index


class TestQuantiles:
    def test_error_bound_against_exact_sort(self):
        rng = random.Random(7)
        samples = [rng.expovariate(1 / 0.02) + 1e-4 for _ in range(5_000)]
        hist = LatencyHistogram()
        for s in samples:
            hist.record(s)
        for q in (10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = _exact_percentile(samples, q)
            approx = hist.quantile(q)
            assert abs(approx - exact) / exact <= 2 * hist.relative_error, q

    def test_extremes_are_exact(self):
        hist = LatencyHistogram()
        for v in (0.003, 0.001, 0.009, 0.004):
            hist.record(v)
        assert hist.quantile(0) == pytest.approx(0.001)
        assert hist.quantile(100) == pytest.approx(0.009)
        assert hist.min_s == pytest.approx(0.001)
        assert hist.max_s == pytest.approx(0.009)

    def test_empty_histogram_is_all_zeros(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.quantile(50) == 0.0
        assert hist.mean_s == 0.0
        summary = hist.summary()
        assert summary["count"] == 0

    def test_negative_observations_clamped(self):
        hist = LatencyHistogram()
        hist.record(-1.5)
        assert hist.count == 1
        assert hist.min_s == 0.0


class TestSerialization:
    def test_byte_stable_round_trip(self):
        rng = random.Random(5)
        hist = LatencyHistogram()
        for _ in range(1_000):
            hist.record(rng.expovariate(1 / 0.03))
        encoded = json.dumps(hist.to_obj(), sort_keys=True)
        assert json.loads(encoded) == hist.to_obj()
        # Keys are already sorted; the geometry is the module constants.
        obj = hist.to_obj()
        assert list(obj) == sorted(obj)
        assert obj["min_value_s"] == DEFAULT_MIN_VALUE_S
        assert obj["subbuckets"] == DEFAULT_SUBBUCKETS
        assert sum(n for _, n in obj["buckets"]) == hist.count

    def test_round_trip_through_jsonl(self, tmp_path):
        """A histogram embedded in a trace event's data survives a JSONL
        trace line byte-identically."""
        hist = LatencyHistogram()
        for v in (0.001, 0.004, 0.4, 0.002, 0.09):
            hist.record(v)
        event = {"kind": "request.done", "seq": 0, "time": 1.0,
                 "data": {"hist": hist.to_obj()}}

        jsonl = tmp_path / "t.jsonl"
        jsonl.write_text(json.dumps(event, sort_keys=True) + "\n")
        via_jsonl = json.loads(jsonl.read_text())["data"]["hist"]

        assert via_jsonl == hist.to_obj()

    def test_same_sequence_same_bytes(self):
        payloads = []
        for _ in range(2):
            hist = LatencyHistogram()
            rng = random.Random(42)
            for _ in range(500):
                hist.record(rng.uniform(1e-5, 10.0))
            payloads.append(json.dumps(hist.to_obj(), sort_keys=True))
        assert payloads[0] == payloads[1]


class TestCumulativeBuckets:
    def test_cumulative_counts_monotone_and_total(self):
        hist = LatencyHistogram()
        rng = random.Random(9)
        for _ in range(300):
            hist.record(rng.uniform(1e-4, 1.0))
        buckets = hist.cumulative_buckets()
        uppers = [le for le, _ in buckets]
        counts = [c for _, c in buckets]
        assert uppers == sorted(uppers)
        assert counts == sorted(counts)
        assert counts[-1] == hist.count


class TestOneLatencyRecord:
    """A timer label set is a :class:`LatencyHistogram`: its snapshot
    entry is the histogram's ``summary()`` and its exposition is a
    Prometheus summary of the same numbers."""

    VALUES = (0.004, 0.0012, 0.25, 0.0012, 0.031)

    def test_timer_entry_is_histogram_summary(self):
        metrics = Metrics()
        hist = LatencyHistogram()
        for value in self.VALUES:
            metrics.timer("place_seconds").observe(value, scheduler="nc")
            hist.record(value)
        snap = metrics.snapshot()
        assert snap["timers"]["place_seconds"]["scheduler=nc"] == hist.summary()
        assert metrics.timer("place_seconds").stat(scheduler="nc").mean_s == (
            hist.mean_s
        )
        assert render_prometheus(snap) == (
            "# TYPE place_seconds summary\n"
            'place_seconds{scheduler="nc",quantile="0.5"} 0.004016\n'
            'place_seconds{scheduler="nc",quantile="0.95"} 0.25\n'
            'place_seconds{scheduler="nc",quantile="0.99"} 0.25\n'
            'place_seconds_count{scheduler="nc"} 5.0\n'
            'place_seconds_sum{scheduler="nc"} 0.2874\n'
        )

    def test_deleted_latency_api_stays_deleted(self):
        """The second latency aggregate, the merge/deserialise surface
        and the per-instrument geometry and help knobs must not regrow."""
        import inspect

        from repro.obs import hist as hist_module
        from repro.obs import metrics as metrics_module

        assert not set(repro.obs.__all__) & {"TimerStat", "merge_histograms"}
        assert not hasattr(metrics_module, "TimerStat")
        assert not hasattr(hist_module, "merge_histograms")
        for name in ("merge", "copy", "from_obj", "from_json", "to_json",
                     "_check_compatible", "min_value_s", "subbuckets"):
            assert not hasattr(LatencyHistogram, name), name
        for name in ("merged", "export", "items"):
            assert not hasattr(metrics_module.Histogram, name), name
        assert not hasattr(Metrics, "histograms")
        for factory in (Metrics.counter, Metrics.gauge, Metrics.timer,
                        Metrics.histogram):
            assert list(inspect.signature(factory).parameters) == [
                "self", "name",
            ], factory
        for cls in (metrics_module.Counter, metrics_module.Gauge,
                    metrics_module.Timer, metrics_module.Histogram):
            assert list(inspect.signature(cls).parameters) == ["name"], cls
        assert not inspect.signature(LatencyHistogram).parameters
