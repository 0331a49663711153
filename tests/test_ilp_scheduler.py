"""Tests for IlpScheduler's batching knobs and candidate-node pruning."""

from __future__ import annotations

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    Resource,
    TagPopularityScheduler,
    affinity,
    build_cluster,
    evaluate_violations,
)
from tests.helpers import make_lra, place_all


class TestCandidatePool:
    def pool(self, scheduler, requests, state, manager):
        return scheduler._candidate_pool(requests, state, manager)

    def test_disabled_by_default(self):
        topo = build_cluster(30)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler()
        assert self.pool(scheduler, [make_lra()], state, manager) is None

    def test_small_cluster_returns_all(self):
        topo = build_cluster(10)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(max_candidate_nodes=20)
        pool = self.pool(scheduler, [make_lra()], state, manager)
        assert sorted(pool) == sorted(topo.node_ids())

    def test_contains_whole_emptiest_rack(self):
        topo = build_cluster(40, racks=4)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        # Load every rack except rack-2.
        for node in topo:
            if node.rack != "rack-2":
                state.allocate(
                    f"bg/{node.node_id}", node.node_id, Resource(8 * 1024, 4),
                    ("task",), "bg", long_running=False,
                )
        scheduler = IlpScheduler(max_candidate_nodes=12)
        pool = set(self.pool(scheduler, [make_lra()], state, manager))
        rack2 = {n.node_id for n in topo if n.rack == "rack-2"}
        assert rack2 <= pool

    def test_includes_constraint_target_nodes(self):
        topo = build_cluster(60, racks=6)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        # The cache lives on an otherwise unattractive (loaded) node.
        state.allocate("cache/0", "n00017", Resource(12 * 1024, 6), ("cache",), "c")
        request = make_lra("a", constraints=[affinity("w", "cache", "node")])
        manager.register_application(request)
        scheduler = IlpScheduler(max_candidate_nodes=10)
        pool = self.pool(scheduler, [request], state, manager)
        assert "n00017" in pool

    def test_pool_is_bounded(self):
        topo = build_cluster(500, racks=10)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(max_candidate_nodes=60)
        pool = self.pool(scheduler, [make_lra()], state, manager)
        assert len(pool) <= 60 * 2
        assert len(set(pool)) == len(pool)

    def test_excludes_unavailable_nodes(self):
        topo = build_cluster(20)
        topo.node("n00000").available = False
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(max_candidate_nodes=10)
        pool = self.pool(scheduler, [make_lra()], state, manager)
        assert "n00000" not in pool


class TestPrunedScheduling:
    def test_constraints_satisfied_under_pruning(self):
        topo = build_cluster(80, racks=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(max_candidate_nodes=30)
        from repro import anti_affinity

        request = make_lra(
            "a", containers=5, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        manager.register_application(request)
        result = scheduler.place([request], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0
        assert len({p.node_id for p in result.placements}) == 5

    def test_gap_and_time_limit_accepted(self):
        topo = build_cluster(10)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(time_limit_s=1.0, mip_rel_gap=0.05)
        result = scheduler.place([make_lra(containers=2)], state, manager)
        assert len(result.placements) == 2


def _one_free_node_outside_pool():
    """Racks 0/2/3 half full, n00001's rack full except n00001 itself: the
    pool takes rack 0 whole and a stride sample, leaving out n00001 — the
    only node a 12 GB container fits on."""
    topo = build_cluster(40, racks=4, memory_mb=16 * 1024, vcores=8)
    state, manager = ClusterState(topo), ConstraintManager(topo)
    rack = topo.node("n00001").rack
    for node in topo:
        if node.rack != rack:
            demand = Resource(8 * 1024, 1)
        elif node.node_id != "n00001":
            demand = Resource(16 * 1024, 8)
        else:
            continue
        state.allocate(f"bg/{node.node_id}", node.node_id, demand, ("task",), "bg")
    request = make_lra("big", containers=1, memory_mb=12 * 1024)
    manager.register_application(request)
    return state, manager, request


class TestPooledRetry:
    @pytest.mark.parametrize(
        "scheduler",
        [IlpScheduler(max_candidate_nodes=8), IlpScheduler(), TagPopularityScheduler()],
        ids=["ilp-pooled", "ilp-full", "tag-popularity"],
    )
    def test_app_placed_on_the_one_node_it_fits(self, scheduler):
        state, manager, request = _one_free_node_outside_pool()
        if isinstance(scheduler, IlpScheduler) and scheduler.max_candidate_nodes:
            assert "n00001" not in scheduler._candidate_pool([request], state, manager)
        result = scheduler.place([request], state, manager)
        assert result.rejected_apps == []
        assert [p.node_id for p in result.placements] == ["n00001"]

    def test_no_retry_when_nothing_outside_the_pool_fits(self):
        state, manager, _ = _one_free_node_outside_pool()
        too_big = make_lra("huge", containers=1, memory_mb=32 * 1024)
        manager.register_application(too_big)
        scheduler = IlpScheduler(max_candidate_nodes=8)
        result = scheduler.place([too_big], state, manager)
        assert result.rejected_apps == ["huge"]
        pool = scheduler._candidate_pool([too_big], state, manager)
        assert scheduler.last_formulation.nodes == pool

    def test_audit_reports_mip_gap(self):
        topo = build_cluster(10)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        scheduler = IlpScheduler(audit=True, mip_rel_gap=0.05)
        result = scheduler.place([make_lra(containers=2)], state, manager)
        gap = result.audit.objective_terms["mip_gap"]
        assert 0.0 <= gap <= 0.05
