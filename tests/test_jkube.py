"""Tests for J-Kube / J-Kube++ — the Kubernetes algorithm baselines (§7.1)."""

from __future__ import annotations

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    JKubePlusPlusScheduler,
    JKubeScheduler,
    UNBOUNDED,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
    evaluate_violations,
)
from repro.core.jkube import _kube_supported
from tests.helpers import applies_to_calls, make_lra, place_all


def build(num_nodes=8, racks=2, mem=8 * 1024):
    topo = build_cluster(num_nodes, racks=racks, memory_mb=mem, vcores=8)
    return topo, ClusterState(topo), ConstraintManager(topo)


class TestConstraintMapping:
    def test_affinity_passes_through(self):
        c = affinity("a", "b", "node")
        assert _kube_supported(c) == c

    def test_anti_affinity_passes_through(self):
        c = anti_affinity("a", "b", "node")
        assert _kube_supported(c) == c

    def test_cardinality_max_dropped(self):
        """A pure cmax cardinality bound has no Kubernetes equivalent."""
        assert _kube_supported(cardinality("a", "b", 0, 3, "node")) is None

    def test_cardinality_min_weakened_to_affinity(self):
        mapped = _kube_supported(cardinality("a", "b", 3, 5, "node"))
        assert mapped is not None
        tc = mapped.tag_constraints[0]
        assert tc.cmin == 1 and tc.cmax == UNBOUNDED


@pytest.mark.parametrize("scheduler_cls", [JKubeScheduler, JKubePlusPlusScheduler])
def test_place_cost_does_not_grow_with_unrelated_apps(scheduler_cls, monkeypatch):
    """J-Kube reads the manager's index too: the same subject matches with
    10 or 1,000 unrelated applications registered."""
    calls = [
        applies_to_calls(scheduler_cls(), unrelated, monkeypatch)
        for unrelated in (10, 1000)
    ]
    assert calls[0] == calls[1] > 0


class TestJKube:
    def test_basic_placement(self):
        _, state, manager = build()
        result = JKubeScheduler().place([make_lra(containers=4)], state, manager)
        assert len(result.placements) == 4
        assert len(state.containers) == 0  # rolled back

    def test_honours_anti_affinity(self):
        _, state, manager = build()
        req = make_lra(
            "aa", containers=4, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        result = JKubeScheduler().place([req], state, manager)
        assert len({p.node_id for p in result.placements}) == 4

    def test_ignores_cardinality(self):
        """J-Kube does not understand cmax bounds: under packing pressure it
        violates a <=2-per-node cap that J-Kube++ would respect."""
        topo = build_cluster(2, memory_mb=16 * 1024, vcores=16)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra(
            "card", containers=6, tags={"w"},
            constraints=[cardinality("w", "w", 0, 1, "node")],
        )
        manager.register_application(req)
        result = JKubeScheduler().place([req], state, manager)
        place_all(state, result)
        # The balanced-resource scoring spreads 3+3, violating cmax=1.
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers > 0

    def test_rejects_on_capacity(self):
        topo = build_cluster(1, memory_mb=1024, vcores=1)
        state, manager = ClusterState(topo), ConstraintManager(topo)
        req = make_lra("f", containers=3, memory_mb=1024, vcores=1)
        result = JKubeScheduler().place([req], state, manager)
        assert result.rejected_apps == ["f"]


class TestJKubePlusPlus:
    def test_honours_cardinality(self):
        _, state, manager = build(num_nodes=4)
        req = make_lra(
            "card", containers=6, tags={"w"},
            constraints=[cardinality("w", "w", 0, 1, "node")],
        )
        manager.register_application(req)
        result = JKubePlusPlusScheduler().place([req], state, manager)
        place_all(state, result)
        report = evaluate_violations(state, manager=manager)
        assert report.violating_containers == 0

    def test_name_and_flag(self):
        assert JKubeScheduler.supports_cardinality is False
        assert JKubePlusPlusScheduler.supports_cardinality is True
        assert JKubeScheduler.name == "J-KUBE"
        assert JKubePlusPlusScheduler.name == "J-KUBE++"


class TestOneAtATimeWeakness:
    def test_ilp_beats_jkube_on_interlocking_constraints(self):
        """The §7.4 motif: J-Kube commits container-by-container and paints
        itself into a corner that batch optimisation avoids.

        Two apps must each collocate with a scarce 'cache' container pair
        such that only one assignment of apps to caches works; the ILP finds
        it, J-Kube++ may not.  We assert the ILP achieves <= J-Kube++'s
        violation count (and zero in absolute terms).
        """
        from repro import IlpScheduler, LRARequest, ContainerRequest, Resource

        topo = build_cluster(2, memory_mb=4 * 1024, vcores=4)
        state = ClusterState(topo)
        # Each node can hold one extra 2 GB worker next to its cache.
        state.allocate("cacheA", "n00000", Resource(2 * 1024, 2), ("cache",), "ca")
        state.allocate("cacheB", "n00001", Resource(2 * 1024, 2), ("cache",), "cb")

        def worker(app):
            return LRARequest(
                app,
                [ContainerRequest(f"{app}/w", Resource(2 * 1024, 2), frozenset({"w"}))],
                [affinity("w", "cache", "node")],
            )

        for scheduler, expected_max in ((IlpScheduler(), 0),):
            manager = ConstraintManager(topo)
            reqs = [worker("w1"), worker("w2")]
            for r in reqs:
                manager.register_application(r)
            result = scheduler.place(reqs, state, manager)
            place_all(state, result)
            report = evaluate_violations(state, manager=manager)
            assert report.violating_containers <= expected_max
            for p in result.placements:
                state.release(p.container_id)
