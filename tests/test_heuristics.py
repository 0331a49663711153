"""Tests for the greedy heuristic schedulers and the YARN baseline (§5.3)."""

from __future__ import annotations

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    ConstraintUnawareScheduler,
    ContainerRequest,
    LRARequest,
    NodeCandidatesScheduler,
    Resource,
    SerialScheduler,
    TagPopularityScheduler,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
    evaluate_violations,
)
from tests.helpers import applies_to_calls, make_lra, place_all

ALL_HEURISTICS = [
    SerialScheduler,
    TagPopularityScheduler,
    NodeCandidatesScheduler,
]


def build(num_nodes=8, racks=2, mem=8 * 1024):
    topo = build_cluster(num_nodes, racks=racks, memory_mb=mem, vcores=8)
    return topo, ClusterState(topo), ConstraintManager(topo)


@pytest.mark.parametrize("scheduler_cls", ALL_HEURISTICS)
class TestGreedyCommon:
    def test_places_everything_when_easy(self, scheduler_cls):
        _, state, manager = build()
        result = scheduler_cls().place([make_lra(containers=4)], state, manager)
        assert len(result.placements) == 4
        assert result.rejected_apps == []

    def test_state_left_pristine(self, scheduler_cls):
        """Schedulers must roll back their tentative allocations."""
        topo, state, manager = build()
        scheduler_cls().place([make_lra(containers=4)], state, manager)
        assert len(state.containers) == 0
        assert all(state.free_resources(n.node_id) == n.capacity for n in topo)

    def test_respects_capacity(self, scheduler_cls):
        topo = build_cluster(2, memory_mb=2 * 1024, vcores=2)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("fit", containers=4, memory_mb=1024, vcores=1)
        result = scheduler_cls().place([req], state, manager)
        assert len(result.placements) == 4
        per_node: dict[str, int] = {}
        for p in result.placements:
            per_node[p.node_id] = per_node.get(p.node_id, 0) + 1
        assert max(per_node.values()) <= 2

    def test_all_or_nothing_rejection(self, scheduler_cls):
        topo = build_cluster(1, memory_mb=2 * 1024, vcores=2)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("nofit", containers=4, memory_mb=1024, vcores=1)
        result = scheduler_cls().place([req], state, manager)
        assert result.rejected_apps == ["nofit"]
        assert result.placements == []
        assert len(state.containers) == 0

    def test_honours_anti_affinity_when_room(self, scheduler_cls):
        _, state, manager = build()
        req = make_lra(
            "aa", containers=4, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = scheduler_cls().place([req], state, manager)
        nodes = [p.node_id for p in result.placements]
        assert len(set(nodes)) == 4

    def test_honours_affinity(self, scheduler_cls):
        _, state, manager = build()
        mem = LRARequest(
            "mc", [ContainerRequest("mc/0", Resource(1024, 1), frozenset({"mem"}))]
        )
        storm = make_lra(
            "st", containers=2, tags={"storm"},
            constraints=[affinity("storm", "mem", "node")],
        )
        result = scheduler_cls().place([mem, storm], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        # mem has no constraints; storm containers should be collocated
        # with mem when processed after it.
        assert report.violating_containers == 0

    def test_empty_batch(self, scheduler_cls):
        _, state, manager = build()
        assert len(scheduler_cls().place([], state, manager)) == 0

    def test_respects_deployed_constraints(self, scheduler_cls):
        _, state, manager = build(num_nodes=4)
        old = make_lra(
            "old", containers=1, tags={"quiet"},
            constraints=[anti_affinity("quiet", "loud", "node")],
        )
        manager.register_application(old)
        state.allocate("old/c0", "n00000", Resource(1024, 1),
                       ("quiet", "appID:old"), "old")
        new = make_lra("new", containers=2, tags={"loud"})
        result = scheduler_cls().place([new], state, manager)
        assert all(p.node_id != "n00000" for p in result.placements)


    def test_place_cost_does_not_grow_with_unrelated_apps(
        self, scheduler_cls, monkeypatch
    ):
        """A call count, not a timer: placing one fixed batch evaluates the
        same subject matches whether 10 or 1,000 applications whose tags it
        never meets hold constraints."""
        calls = [
            applies_to_calls(scheduler_cls(), unrelated, monkeypatch)
            for unrelated in (10, 1000)
        ]
        assert calls[0] == calls[1] > 0


class TestTagPopularityOrdering:
    def test_popular_tags_first(self):
        """Containers whose tags appear in more constraints are ordered
        ahead of unconstrained ones."""
        _, state, manager = build()
        scheduler = TagPopularityScheduler()
        popular = make_lra(
            "pop", containers=1, tags={"hot"},
            constraints=[
                anti_affinity("hot", "hot", "node"),
                cardinality("hot", "cold", 0, 1, "rack"),
            ],
        )
        boring = make_lra("boring", containers=1, tags={"plain"})
        batch = [boring, popular]
        items = scheduler.order_containers(batch, manager.batch(batch), state)
        first_tags = items[0][1].tags
        assert "hot" in first_tags


class TestNodeCandidatesOrdering:
    def test_least_flexible_first(self):
        """The container with fewer violation-free nodes is placed first."""
        topo, state, manager = build(num_nodes=4)
        # 'picky' can only go next to the existing cache container.
        state.allocate("cache/0", "n00000", Resource(1024, 1), ("cache",), "c")
        picky = LRARequest(
            "picky",
            [ContainerRequest("picky/0", Resource(1024, 1), frozenset({"p"}))],
            [affinity("p", "cache", "node")],
        )
        easy = make_lra("easy", containers=1, tags={"e"})
        scheduler = NodeCandidatesScheduler()
        result = scheduler.place([easy, picky], state, manager)
        # picky must end up on n00000 regardless of submission order.
        picky_node = next(
            p.node_id for p in result.placements if p.app_id == "picky"
        )
        assert picky_node == "n00000"

    def test_cache_cleared_between_runs(self):
        _, state, manager = build()
        scheduler = NodeCandidatesScheduler()
        scheduler.place([make_lra(containers=2)], state, manager)
        assert scheduler._candidates == {}
        assert scheduler._pending == []

    def test_incremental_candidates_match_recomputation(self):
        """After each placement, the incrementally maintained candidate
        sets must equal a from-scratch recomputation."""
        topo, state, manager = build(num_nodes=6)
        scheduler = NodeCandidatesScheduler()
        reqs = [
            make_lra("i1", containers=3, tags={"w"},
                     constraints=[anti_affinity("w", "w", "node")]),
            make_lra("i2", containers=2, tags={"w"},
                     constraints=[cardinality("w", "w", 0, 1, "rack")]),
        ]
        for r in reqs:
            manager.register_application(r)

        checked = []
        placed_ids: set[str] = set()
        original_after = scheduler.after_placement

        def checking_after(container, node_id):
            original_after(container, node_id)
            placed_ids.add(container.container_id)
            for _, other in scheduler._pending:
                if other.container_id in placed_ids:
                    continue  # already placed: its own tags are in the state
                cached = scheduler._candidates.get(other.container_id)
                if cached is None:
                    continue
                fresh = scheduler._compute_candidates(other)
                assert cached == fresh, (
                    f"stale candidates for {other.container_id}"
                )
                checked.append(other.container_id)

        scheduler.after_placement = checking_after
        scheduler.place(reqs, state, manager)
        assert checked, "expected incremental updates to be exercised"

    def test_candidate_count_reflects_constraints(self):
        topo, state, manager = build(num_nodes=4)
        state.allocate("cache/0", "n00000", Resource(1024, 1), ("cache",), "c")
        picky = LRARequest(
            "picky",
            [ContainerRequest("picky/0", Resource(1024, 1), frozenset({"p"}))],
            [affinity("p", "cache", "node")],
        )
        scheduler = NodeCandidatesScheduler()
        scheduler._state = state
        scheduler._batch = manager.batch([picky])
        try:
            candidates = scheduler._compute_candidates(picky.containers[0])
        finally:
            scheduler._state = None
            scheduler._batch = None
        assert candidates == {"n00000"}


class TestSerialBehaviour:
    def test_submission_order_preserved(self):
        _, state, manager = build()
        scheduler = SerialScheduler()
        a = make_lra("a", containers=2)
        b = make_lra("b", containers=2)
        items = scheduler.order_containers([a, b], manager.batch([a, b]), state)
        assert [i for i, _ in items] == [0, 0, 1, 1]


class TestYarnBaseline:
    def test_ignores_constraints(self):
        """YARN places by capacity only; with a seed forcing collocation
        pressure the anti-affinity is (at least sometimes) violated."""
        topo = build_cluster(2, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "y", containers=4, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        manager.register_application(req)
        result = ConstraintUnawareScheduler(seed=1).place([req], state, manager)
        assert len(result.placements) == 4  # capacity is fine
        per_node: dict[str, int] = {}
        for p in result.placements:
            per_node[p.node_id] = per_node.get(p.node_id, 0) + 1
        # 4 containers on 2 nodes: some node must hold >= 2 -> violation.
        assert max(per_node.values()) >= 2

    def test_deterministic_given_seed(self):
        _, state, manager = build()
        req = make_lra("d", containers=3)
        r1 = ConstraintUnawareScheduler(seed=42).place([req], state, manager)
        r2 = ConstraintUnawareScheduler(seed=42).place([req], state, manager)
        assert [p.node_id for p in r1.placements] == [p.node_id for p in r2.placements]

    def test_rejects_when_full(self):
        topo = build_cluster(1, memory_mb=1024, vcores=1)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("f", containers=2, memory_mb=1024, vcores=1)
        result = ConstraintUnawareScheduler().place([req], state, manager)
        assert result.rejected_apps == ["f"]
        assert len(state.containers) == 0
