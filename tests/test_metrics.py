"""Tests for metrics: statistics helpers and the violation auditor."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro import (
    BoxStats,
    ClusterState,
    ConstraintManager,
    Resource,
    anti_affinity,
    build_cluster,
    cardinality,
    evaluate_violations,
)
from repro.obs.stats import (
    EmptyDataError,
    cdf_points,
    coefficient_of_variation,
    percentile,
)
from repro import CompoundConstraint, affinity
from tests.helpers import make_lra

floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_extremes(self):
        assert percentile([5, 1, 9], 0) == 1
        assert percentile([5, 1, 9], 100) == 9

    def test_single_value(self):
        assert percentile([4], 73) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_empty_raises_typed_error(self):
        """The empty-input error is distinguishable from bad arguments."""
        with pytest.raises(EmptyDataError):
            percentile([], 50)
        with pytest.raises(ValueError) as exc:
            percentile([1], 101)
        assert not isinstance(exc.value, EmptyDataError)

    def test_empty_with_default(self):
        assert percentile([], 50, default=0.0) == 0.0
        assert percentile([], 99, default=math.nan) is not None
        # A provided default never shadows real data.
        assert percentile([7.0], 50, default=0.0) == 7.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(values=floats, q=st.floats(min_value=0, max_value=100))
    def test_within_bounds(self, values, q):
        p = percentile(values, q)
        assert min(values) <= p <= max(values)

    @given(values=floats)
    def test_monotone_in_q(self, values):
        assert percentile(values, 25) <= percentile(values, 75)


class TestBoxStats:
    def test_ordering_invariant(self):
        stats = BoxStats.from_values(range(100))
        assert stats.p5 <= stats.p25 <= stats.median <= stats.p75 <= stats.p99

    def test_count_and_mean(self):
        stats = BoxStats.from_values([1, 2, 3])
        assert stats.count == 3
        assert stats.mean == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_values([])

    def test_empty_raises_typed_error(self):
        with pytest.raises(EmptyDataError):
            BoxStats.from_values([])

    def test_empty_safe_variant(self):
        stats = BoxStats.from_values_or_empty([])
        assert stats.count == 0
        assert math.isnan(stats.median)
        # Non-empty input goes through the normal path.
        assert BoxStats.from_values_or_empty([1.0, 2.0]).count == 2

    def test_empty_row_renders(self):
        row = BoxStats.empty().row("latency", "s")
        assert "latency" in row and "no data" in row

    def test_row_format(self):
        row = BoxStats.from_values([1.0]).row("label", "s")
        assert "label" in row and "median" in row


class TestCdfAndCv:
    def test_cdf_points(self):
        points = cdf_points([3, 1, 2])
        assert points == [(1, pytest.approx(1 / 3)), (2, pytest.approx(2 / 3)), (3, 1.0)]

    def test_cdf_empty(self):
        assert cdf_points([]) == []

    def test_cv_zero_uniform(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0

    def test_cv_known_value(self):
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)

    def test_cv_empty_and_zero_mean(self):
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([0, 0]) == 0.0


class TestViolationAuditor:
    def build(self):
        topo = build_cluster(4, racks=2, memory_mb=8 * 1024)
        return ClusterState(topo), ConstraintManager(topo)

    def test_clean_placement_no_violations(self):
        state, manager = self.build()
        manager.register_application(
            make_lra("a", constraints=[anti_affinity("w", "w", "node")])
        )
        state.allocate("a/0", "n00000", Resource(1024, 1), ("w",), "a")
        state.allocate("a/1", "n00001", Resource(1024, 1), ("w",), "a")
        report = evaluate_violations(state, manager=manager)
        assert report.subject_containers == 2
        assert report.violating_containers == 0
        assert report.violation_fraction == 0.0

    def test_detects_anti_affinity_violation(self):
        state, manager = self.build()
        manager.register_application(
            make_lra("a", constraints=[anti_affinity("w", "w", "node")])
        )
        state.allocate("a/0", "n00000", Resource(1024, 1), ("w",), "a")
        state.allocate("a/1", "n00000", Resource(1024, 1), ("w",), "a")
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 2
        assert report.violation_fraction == 1.0
        assert report.total_extent == pytest.approx(2.0)
        assert len(report.records) == 2

    def test_extent_scales_with_severity(self):
        """Footnote 3: a bigger overshoot is a worse violation."""
        state, manager = self.build()
        constraint = cardinality("w", "w", 0, 1, "node")
        manager.register_application(make_lra("a", constraints=[constraint]))
        for i in range(4):
            state.allocate(f"a/{i}", "n00000", Resource(1024, 1), ("w",), "a")
        heavy = evaluate_violations(state, manager=manager).total_extent
        state.release("a/3")
        light = evaluate_violations(state, manager=manager).total_extent
        assert heavy > light

    def test_short_running_containers_ignored(self):
        state, manager = self.build()
        manager.register_application(
            make_lra("a", constraints=[anti_affinity("task", "task", "node")])
        )
        state.allocate("t/0", "n00000", Resource(1024, 1), ("task",), "bg",
                       long_running=False)
        state.allocate("t/1", "n00000", Resource(1024, 1), ("task",), "bg",
                       long_running=False)
        report = evaluate_violations(state, manager=manager)
        assert report.subject_containers == 0

    def test_unconstrained_containers_not_counted(self):
        state, manager = self.build()
        manager.register_application(
            make_lra("a", constraints=[anti_affinity("w", "w", "node")])
        )
        state.allocate("x/0", "n00000", Resource(1024, 1), ("other",), "x")
        report = evaluate_violations(state, manager=manager)
        assert report.subject_containers == 0

    def test_explicit_constraint_list(self):
        state, _ = self.build()
        state.allocate("a/0", "n00000", Resource(1024, 1), ("w",), "a")
        state.allocate("a/1", "n00000", Resource(1024, 1), ("w",), "a")
        report = evaluate_violations(state, [anti_affinity("w", "w", "node")])
        assert report.violating_containers == 2

    def test_conjunction_target_counts_containers_carrying_every_tag(self):
        """γ of ``appID:X ∧ hb_sec`` is the number of containers carrying
        both tags, not the minimum of the two per-tag counts."""
        state, _ = self.build()
        for cid, node, tags in [
            ("a/m", "n00000", ("appID:a", "hb_m")),
            ("a/th", "n00000", ("appID:a", "hb_th")),
            ("b/sec", "n00000", ("appID:b", "hb_sec")),
            ("c/m", "n00001", ("appID:c", "hb_m")),
            ("c/rs", "n00001", ("appID:c", "hb_rs")),
            ("d/th", "n00001", ("appID:d", "hb_th")),
        ]:
            state.allocate(cid, node, Resource(1024, 1), tags, cid[0])
        report = evaluate_violations(
            state,
            [
                # a's master shares n00000 with a's thrift and b's secondary,
                # but with no container carrying appID:a and hb_sec.
                anti_affinity(["appID:a", "hb_m"], ["appID:a", "hb_sec"], "node"),
                # c's master shares n00001 with c's region server and d's
                # thrift, but with no container carrying appID:c and hb_th.
                affinity(["appID:c", "hb_m"], ["appID:c", "hb_th"], "node"),
            ],
        )
        assert report.subject_containers == 2
        assert [(r.container_id, r.extent) for r in report.records] == [("c/m", 1.0)]

    def test_needs_constraints_or_manager(self):
        state, _ = self.build()
        with pytest.raises(ValueError):
            evaluate_violations(state)

    def test_compound_satisfied_by_any_conjunct(self):
        state, _ = self.build()
        state.allocate("c/0", "n00000", Resource(1024, 1), ("cache",), "c")
        state.allocate("a/0", "n00002", Resource(1024, 1), ("w",), "a")  # same rack
        comp = CompoundConstraint(
            ((affinity("w", "cache", "node"),), (affinity("w", "cache", "rack"),))
        )
        report = evaluate_violations(state, [], compound=[comp])
        assert report.subject_containers == 1
        assert report.violating_containers == 0

    def test_compound_violated_when_all_conjuncts_fail(self):
        state, _ = self.build()
        state.allocate("c/0", "n00000", Resource(1024, 1), ("cache",), "c")
        state.allocate("a/0", "n00001", Resource(1024, 1), ("w",), "a")  # other rack
        comp = CompoundConstraint(
            ((affinity("w", "cache", "node"),), (affinity("w", "cache", "rack"),))
        )
        report = evaluate_violations(state, [], compound=[comp])
        assert report.violating_containers == 1
