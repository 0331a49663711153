"""Semantics tests for the Fig. 5 ILP formulation.

Each test builds a small cluster, submits LRAs with constraints, solves with
the ILP scheduler, applies the placements, and then audits the *resulting
cluster state* with the independent brute-force checker
(:func:`repro.obs.violations.evaluate_violations`) — so the encoding is validated
against the constraint semantics, not against itself.
"""

from __future__ import annotations

import pytest

from repro import (
    ClusterState,
    CompoundConstraint,
    ConstraintManager,
    ContainerRequest,
    IlpScheduler,
    IlpWeights,
    LRARequest,
    Resource,
    UNBOUNDED,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
    evaluate_violations,
)
from repro.core.ilp import IlpFormulation
from repro.solver import solve

from tests.helpers import make_lra, place_all, recount_free


def build(num_nodes=8, racks=2, **kw):
    topo = build_cluster(num_nodes, racks=racks, memory_mb=8 * 1024, vcores=8, **kw)
    return topo, ClusterState(topo), ConstraintManager(topo)


def schedule(requests, state, manager, **kw):
    for request in requests:
        manager.register_application(request)
    return IlpScheduler(**kw).place(requests, state, manager)


class TestBasicPlacement:
    def test_places_all_containers(self):
        _, state, manager = build()
        result = schedule([make_lra("a", containers=4)], state, manager)
        assert len(result.placements) == 4
        assert result.rejected_apps == []

    def test_empty_batch(self):
        _, state, manager = build()
        assert len(IlpScheduler().place([], state, manager)) == 0

    def test_respects_capacity(self):
        """6 containers of 4 GB on two 8 GB nodes -> only one 2-container
        app fits per node; an 8 GB/container app can hold at most 2."""
        topo = build_cluster(2, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("big", containers=4, memory_mb=4 * 1024)
        result = schedule([req], state, manager)
        place_all(state, result)
        for free in recount_free(state).values():
            assert free.memory_mb >= 0

    def test_all_or_nothing(self):
        """An app that cannot fully fit is fully rejected (Eq. 4)."""
        topo = build_cluster(1, memory_mb=4 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("toobig", containers=5, memory_mb=1024, vcores=2)
        result = schedule([req], state, manager)
        assert result.rejected_apps == ["toobig"]
        assert result.placements == []

    def test_partial_batch(self):
        """With room for only one app, exactly one is placed, whole."""
        topo = build_cluster(1, memory_mb=4 * 1024, vcores=4)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        a = make_lra("a", containers=3, memory_mb=1024)
        b = make_lra("b", containers=3, memory_mb=1024)
        result = schedule([a, b], state, manager)
        placed_apps = result.placed_apps()
        assert len(placed_apps) == 1
        assert len(result.placements) == 3
        assert len(result.rejected_apps) == 1

    def test_each_container_once(self):
        _, state, manager = build()
        result = schedule([make_lra("a", containers=6)], state, manager)
        ids = [p.container_id for p in result.placements]
        assert len(ids) == len(set(ids))

    def test_unavailable_nodes_skipped(self):
        topo = build_cluster(3, memory_mb=8 * 1024)
        for node_id in ("n00000", "n00001"):
            topo.node(node_id).available = False
        state, manager = ClusterState(topo), ConstraintManager(topo)
        result = schedule([make_lra("a", containers=2)], state, manager)
        assert all(p.node_id == "n00002" for p in result.placements)


class TestConstraintSemantics:
    def test_node_affinity(self):
        _, state, manager = build()
        req = LRARequest(
            "aff",
            [
                ContainerRequest("aff/m", Resource(1024, 1), frozenset({"m"})),
                ContainerRequest("aff/t", Resource(1024, 1), frozenset({"t"})),
            ],
            [affinity("m", "t", "node")],
        )
        result = schedule([req], state, manager)
        nodes = {p.container_id: p.node_id for p in result.placements}
        assert nodes["aff/m"] == nodes["aff/t"]

    def test_node_anti_affinity(self):
        _, state, manager = build()
        req = make_lra(
            "anti", containers=4, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = schedule([req], state, manager)
        nodes = [p.node_id for p in result.placements]
        assert len(set(nodes)) == 4

    def test_cardinality_cap(self):
        """<= 2 workers per node (cmax=1 on the others)."""
        _, state, manager = build(num_nodes=4)
        req = make_lra(
            "card", containers=6, tags={"w"},
            constraints=[cardinality("w", "w", 0, 1, "node")],
        )
        result = schedule([req], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0
        per_node: dict[str, int] = {}
        for p in result.placements:
            per_node[p.node_id] = per_node.get(p.node_id, 0) + 1
        assert max(per_node.values()) <= 2

    def test_rack_affinity_all_together(self):
        _, state, manager = build(num_nodes=8, racks=2)
        req = make_lra(
            "rackaff", containers=4, tags={"w"},
            constraints=[
                cardinality("w", "w", 3, UNBOUNDED, "rack"),
            ],
        )
        result = schedule([req], state, manager)
        racks = {state.topology.node(p.node_id).rack for p in result.placements}
        assert len(racks) == 1

    def test_inter_application_affinity(self):
        """Paper example Caf: storm containers next to hb ∧ mem."""
        _, state, manager = build()
        hbase = LRARequest(
            "hb1",
            [ContainerRequest("hb1/c", Resource(1024, 1), frozenset({"hb", "mem"}))],
        )
        storm = make_lra(
            "storm1", containers=2, tags={"storm"},
            constraints=[affinity("storm", ["hb", "mem"], "node")],
        )
        result = schedule([hbase, storm], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0
        hb_node = next(p.node_id for p in result.placements if p.app_id == "hb1")
        storm_nodes = {p.node_id for p in result.placements if p.app_id == "storm1"}
        assert storm_nodes == {hb_node}

    def test_constraint_of_deployed_lra_respected(self):
        """New containers must not violate an already-deployed LRA's
        anti-affinity."""
        _, state, manager = build(num_nodes=3)
        first = make_lra(
            "old", containers=1, tags={"sensitive"},
            constraints=[anti_affinity("sensitive", "noisy", "node")],
        )
        result = schedule([first], state, manager)
        place_all(state, result)
        old_node = result.placements[0].node_id

        second = make_lra("new", containers=2, tags={"noisy"})
        result2 = schedule([second], state, manager)
        place_all(state, result2)
        assert all(p.node_id != old_node for p in result2.placements)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0

    def test_conjunction_tag_constraints(self):
        """A constraint whose conjunction has two tag constraints."""
        from repro import PlacementConstraint, TagConstraint, TagExpression

        _, state, manager = build()
        c = PlacementConstraint(
            TagExpression("w"),
            (
                TagConstraint(TagExpression("cache"), 1, UNBOUNDED),
                TagConstraint(TagExpression("noisy"), 0, 0),
            ),
            "node",
        )
        cache = LRARequest(
            "cache1",
            [ContainerRequest("cache1/c", Resource(1024, 1), frozenset({"cache"}))],
        )
        noisy = LRARequest(
            "noisy1",
            [ContainerRequest("noisy1/c", Resource(1024, 1), frozenset({"noisy"}))],
        )
        app = make_lra("app", containers=2, tags={"w"}, constraints=[c])
        result = schedule([cache, noisy, app], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0


class TestViolationMinimisation:
    def test_soft_constraints_allow_placement(self):
        """When anti-affinity cannot hold (1 node), the app still places —
        soft semantics — but violations are reported."""
        topo = build_cluster(1, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "soft", containers=3, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = schedule([req], state, manager)
        assert len(result.placements) == 3
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 3

    def test_minimal_extent_chosen(self):
        """cmax violations are spread to minimise total extent: 4 workers,
        2 nodes, cap 1/node -> 2+2 beats 3+1."""
        topo = build_cluster(2, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "spread", containers=4, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = schedule([req], state, manager)
        per_node: dict[str, int] = {}
        for p in result.placements:
            per_node[p.node_id] = per_node.get(p.node_id, 0) + 1
        assert sorted(per_node.values()) == [2, 2]

    def test_weights_prioritise_placement_over_violations(self):
        """With w1 >> w2, placing an app that must violate still wins."""
        topo = build_cluster(1, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "v", containers=2, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = schedule(
            [req], state, manager,
            weights=IlpWeights(w1_placement=1.0, w2_violations=0.5),
        )
        assert len(result.placements) == 2

    def test_huge_violation_weight_rejects_app(self):
        """With w2 >> w1, the solver prefers not placing the app at all to
        violating its anti-affinity (hard-constraint emulation, §4.2)."""
        topo = build_cluster(1, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "r", containers=2, tags={"w"},
            constraints=[anti_affinity("w", "w", "node", hard=True)],
        )
        result = schedule(
            [req], state, manager,
            weights=IlpWeights(w1_placement=1.0, w2_violations=10.0),
        )
        assert result.rejected_apps == ["r"]


class TestFragmentation:
    def test_avoids_fragmenting_loaded_node(self):
        """n00000 already carries 5 GB (3 GB free): putting anything there
        drops it below the 2 GB rmin threshold (z=0).  Both containers must
        land on the empty node, keeping both z indicators at 1 (Eq. 5)."""
        topo = build_cluster(2, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        state.allocate("bg", "n00000", Resource(5 * 1024, 1), ("task",), "bg")
        req = make_lra("frag", containers=2, memory_mb=1536)
        result = schedule(
            [req], state, manager,
            weights=IlpWeights(w1_placement=1.0, w2_violations=0.5,
                               w3_fragmentation=0.25),
        )
        assert {p.node_id for p in result.placements} == {"n00001"}

    def test_machines_used_objective(self):
        """Optional w4: minimise machines used packs onto one node."""
        topo = build_cluster(4, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("pack", containers=3, memory_mb=1024)
        result = schedule(
            [req], state, manager,
            weights=IlpWeights(w3_fragmentation=0.0, w4_machines=0.5),
        )
        assert len({p.node_id for p in result.placements}) == 1


class TestCompoundConstraints:
    def test_satisfiable_conjunct_chosen(self):
        """DNF (node affinity to cache) OR (rack affinity to cache): when
        the node is full, the rack conjunct must be satisfied instead."""
        topo = build_cluster(4, racks=2, memory_mb=2 * 1024, vcores=2)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        # Cache occupies almost all of n00000: no room for the worker there.
        state.allocate("cache/c", "n00000", Resource(1536, 1), ("cache",), "cache")
        dnf = CompoundConstraint(
            (
                (affinity("w", "cache", "node"),),
                (affinity("w", "cache", "rack"),),
            )
        )
        req = LRARequest(
            "comp",
            [ContainerRequest("comp/w", Resource(1024, 1), frozenset({"w"}))],
            compound_constraints=[dnf],
        )
        result = schedule([req], state, manager)
        assert len(result.placements) == 1
        node = result.placements[0].node_id
        assert node != "n00000"
        assert state.topology.node(node).rack == state.topology.node("n00000").rack

    def test_first_conjunct_when_possible(self):
        topo = build_cluster(4, racks=2, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        state.allocate("cache/c", "n00001", Resource(1024, 1), ("cache",), "cache")
        dnf = CompoundConstraint(
            (
                (affinity("w", "cache", "node"),),
                (affinity("w", "cache", "rack"),),
            )
        )
        req = LRARequest(
            "comp2",
            [ContainerRequest("comp2/w", Resource(1024, 1), frozenset({"w"}))],
            compound_constraints=[dnf],
        )
        result = schedule([req], state, manager)
        # Either conjunct satisfies the DNF; no violation either way.
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0


class TestOperatorConstraints:
    def test_operator_override_more_restrictive(self):
        _, state, manager = build()
        app_constraint = cardinality("w", "w", 0, 5, "node")
        op_constraint = cardinality("w", "w", 0, 1, "node", origin="operator")
        manager.register_operator_constraint(op_constraint)
        req = make_lra("op", containers=4, tags={"w"}, constraints=[app_constraint])
        result = schedule([req], state, manager)
        per_node: dict[str, int] = {}
        for p in result.placements:
            per_node[p.node_id] = per_node.get(p.node_id, 0) + 1
        assert max(per_node.values()) <= 2  # operator cap of <=1 other


class TestFormulationInternals:
    def test_model_always_feasible(self):
        """Even absurd constraints keep the model feasible (soft slacks)."""
        _, state, manager = build(num_nodes=2)
        req = make_lra(
            "x", containers=2, tags={"w"},
            constraints=[cardinality("w", "w", 50, UNBOUNDED, "node")],
        )
        manager.register_application(req)
        formulation = IlpFormulation([req], state, manager)
        formulation.build()
        solution = solve(formulation.model)
        assert solution.status.has_solution()

    def test_extract_raises_on_inconsistent_solution(self):
        _, state, manager = build(num_nodes=2)
        req = make_lra("y", containers=1)
        manager.register_application(req)
        formulation = IlpFormulation([req], state, manager)
        formulation.build()
        solution = solve(formulation.model)
        # Corrupt: claim S=1 but zero out the X variables.
        values = list(solution.values)
        for (i, j, n), var in formulation.x_vars.items():
            values[var] = 0.0
        values[formulation.s_vars[0]] = 1.0
        from repro.solver import MilpSolution, SolveStatus

        fake = MilpSolution(SolveStatus.OPTIMAL, 0.0, tuple(values))
        with pytest.raises(RuntimeError):
            formulation.extract(fake)

    def test_violations_diagnostics(self):
        topo = build_cluster(1, memory_mb=8 * 1024, vcores=8)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "d", containers=2, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        manager.register_application(req)
        formulation = IlpFormulation([req], state, manager)
        formulation.build()
        solution = solve(formulation.model)
        violations = formulation.violations(solution)
        assert violations, "expected the forced anti-affinity violation to be reported"

    def test_backend_parity(self):
        results = []
        for backend in ("highs", "bnb"):
            _, state, manager = build(num_nodes=4)
            req = make_lra(
                "p", containers=3, tags={"w"},
                constraints=[anti_affinity("w", "w", "node")],
            )
            result = schedule([req], state, manager, backend=backend)
            place_all(state, result)
            report = evaluate_violations(state, manager=manager)
            results.append((len(result.placements), report.violating_containers))
        assert results[0] == results[1]
