"""Tests for the mergeable latency histogram (``repro.obs.hist``).

The histogram underpins every latency number the latency-under-load
plane reports (timer percentiles, the loadgen sweep, the request-path
``/metrics`` exposition), so the properties asserted here — bounded
relative error, exact merge, byte-stable serialization, deterministic
bucket arithmetic — are load-bearing for the determinism contract.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.hist import (
    DEFAULT_MIN_VALUE_S,
    DEFAULT_SUBBUCKETS,
    LatencyHistogram,
    merge_histograms,
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


class TestMerge:
    @staticmethod
    def _structure(hist):
        """Everything but ``sum_s`` — bucket counts and extrema merge
        EXACTLY; the float running sum is only merge-order-stable to the
        last bit (addition is not associative)."""
        obj = hist.to_obj()
        obj.pop("sum_s")
        return obj

    def test_merge_is_exact(self):
        rng = random.Random(11)
        values = [rng.uniform(1e-4, 1.0) for _ in range(999)]
        whole = LatencyHistogram()
        parts = [LatencyHistogram() for _ in range(3)]
        for i, v in enumerate(values):
            whole.record(v)
            parts[i % 3].record(v)
        merged = merge_histograms(parts)
        assert self._structure(merged) == self._structure(whole)
        assert merged.sum_s == pytest.approx(whole.sum_s)
        # Quantiles derive from bucket counts alone, so they agree
        # exactly, not approximately.
        for q in (50, 95, 99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_associative_and_commutative(self):
        rng = random.Random(23)
        hists = []
        for _ in range(4):
            h = LatencyHistogram()
            for _ in range(200):
                h.record(rng.expovariate(1 / 0.05))
            hists.append(h)
        left = hists[0].copy().merge(hists[1]).merge(hists[2]).merge(hists[3])
        right = hists[2].copy().merge(hists[3])
        right = hists[1].copy().merge(right)
        right = hists[0].copy().merge(right)
        reversed_order = merge_histograms(reversed([h.copy() for h in hists]))
        assert (self._structure(left) == self._structure(right)
                == self._structure(reversed_order))
        for q in (50, 99):
            assert left.quantile(q) == right.quantile(q)
            assert left.quantile(q) == reversed_order.quantile(q)

    def test_merge_rejects_mismatched_geometry(self):
        a = LatencyHistogram()
        b = LatencyHistogram(subbuckets=32)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_empty_iterable_yields_empty(self):
        assert merge_histograms([]).count == 0


class TestSerialization:
    def test_byte_stable_round_trip(self):
        rng = random.Random(5)
        hist = LatencyHistogram()
        for _ in range(1_000):
            hist.record(rng.expovariate(1 / 0.03))
        encoded = hist.to_json()
        decoded = LatencyHistogram.from_json(encoded)
        assert decoded.to_json() == encoded
        assert decoded.quantile(99) == hist.quantile(99)
        # Sorted keys, compact separators: canonical JSON.
        obj = json.loads(encoded)
        assert list(obj) == sorted(obj)

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

        round_tripped = LatencyHistogram.from_obj(via_jsonl)
        assert round_tripped.to_json() == hist.to_json()

    def test_same_sequence_same_bytes(self):
        payloads = []
        for _ in range(2):
            hist = LatencyHistogram()
            rng = random.Random(42)
            for _ in range(500):
                hist.record(rng.uniform(1e-5, 10.0))
            payloads.append(hist.to_json())
        assert payloads[0] == payloads[1]

    def test_custom_geometry_round_trips(self):
        hist = LatencyHistogram(min_value_s=1e-3, subbuckets=16)
        hist.record(0.5)
        restored = LatencyHistogram.from_json(hist.to_json())
        assert restored.min_value_s == 1e-3
        assert restored.subbuckets == 16
        assert restored.to_json() == hist.to_json()


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
