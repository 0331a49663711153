"""Unit tests for ClusterState: allocations, γ bookkeeping, constraint checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ClusterState,
    Resource,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
)
from tests.helpers import scalar_state_metrics


def put(state, cid, node, tags=("w",), mem=1024, app="a1", long_running=True):
    return state.allocate(
        cid, node, Resource(mem, 1), tags, app, long_running=long_running
    )


class TestAllocationLifecycle:
    def test_allocate_and_release(self, state):
        put(state, "c1", "n00000")
        assert "c1" in state.containers
        assert state.free_resources("n00000") == Resource(15 * 1024, 7)
        state.release("c1")
        assert "c1" not in state.containers
        assert state.free_resources("n00000") == Resource(16 * 1024, 8)

    def test_duplicate_id_rejected(self, state):
        put(state, "c1", "n00000")
        with pytest.raises(ValueError):
            put(state, "c1", "n00001")

    def test_release_unknown_rejected(self, state):
        with pytest.raises(KeyError):
            state.release("ghost")

    def test_invalid_tag_leaves_no_trace(self):
        """Regression: a malformed tag used to raise only after the node had
        stored the allocation and cut its free vector, while the mirror, γ
        and the container map never heard of it — and a retry with valid
        tags then failed as a duplicate."""
        topology = build_cluster(4, racks=2)
        state = ClusterState(topology)
        fresh = ClusterState(build_cluster(4, racks=2))
        with pytest.raises(ValueError):
            state.allocate("c1", "n00001", Resource(4096, 2), {"bad tag"}, "a")
        assert state.free_resources("n00001") == topology.node("n00001").capacity
        for name in ("free_mem", "free_vc", "avail"):
            assert (getattr(state.arrays, name) == getattr(fresh.arrays, name)).all()
        assert state.containers == {} and state.version == fresh.version
        assert state._live_tags == {}
        assert all(not g.counts for g in state._gamma_groups().values())
        assert state.fingerprint() == fresh.fingerprint()

        put(state, "c1", "n00001", tags=("good",), mem=4096)
        assert state.free_resources("n00001") == Resource(12 * 1024, 7)
        assert state.gamma("node", 1, ["good"]) == 1

    def test_release_application(self, state):
        put(state, "c1", "n00000", app="appA")
        put(state, "c2", "n00001", app="appA")
        put(state, "c3", "n00002", app="appB")
        victims = state.release_application("appA")
        assert len(victims) == 2
        assert set(state.containers) == {"c3"}

    def test_containers_of_app(self, state):
        put(state, "c1", "n00000", app="appA")
        put(state, "c2", "n00001", app="appB")
        assert [c.container_id for c in state.containers_of_app("appA")] == ["c1"]

    def test_total_free_excludes_unavailable(self, state):
        before = state.total_free()
        state.topology.node("n00000").available = False
        after = state.total_free()
        assert after.memory_mb == before.memory_mb - 16 * 1024


class TestGammaBookkeeping:
    def test_node_group_counts(self, state):
        put(state, "c1", "n00000", tags=("hb", "hb_m"))
        put(state, "c2", "n00000", tags=("hb", "hb_rs"))
        idx = state.group_sets_for_node("node", "n00000")[0]
        assert state.group_tag_count("node", idx, "hb") == 2
        assert state.group_tag_count("node", idx, "hb_m") == 1

    def test_rack_group_counts(self, state):
        # n00000 and n00002 are both on rack-0 (stripe across 2 racks).
        put(state, "c1", "n00000", tags=("hb",))
        put(state, "c2", "n00002", tags=("hb",))
        rack_idx = state.group_sets_for_node("rack", "n00000")[0]
        assert state.group_tag_count("rack", rack_idx, "hb") == 2

    def test_release_decrements(self, state):
        put(state, "c1", "n00000", tags=("hb",))
        state.release("c1")
        idx = state.group_sets_for_node("node", "n00000")[0]
        assert state.group_tag_count("node", idx, "hb") == 0

    def test_gamma_conjunction_min(self, state):
        put(state, "c1", "n00000", tags=("hb", "mem"))
        put(state, "c2", "n00000", tags=("hb",))
        idx = state.group_sets_for_node("node", "n00000")[0]
        assert state.gamma("node", idx, ["hb"]) == 2
        assert state.gamma("node", idx, ["hb", "mem"]) == 1

    def test_gamma_exclusion(self, state):
        put(state, "c1", "n00000", tags=("hb",))
        put(state, "c2", "n00000", tags=("hb",))
        idx = state.group_sets_for_node("node", "n00000")[0]
        assert state.gamma("node", idx, ["hb"], exclude=["hb"]) == 1

    def test_gamma_never_negative(self, state):
        idx = state.group_sets_for_node("node", "n00000")[0]
        assert state.gamma("node", idx, ["hb"], exclude=["hb"]) == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_incremental_matches_recomputation(self, seed):
        """Property: after random allocate/release churn, the incremental
        per-group counters equal a from-scratch recomputation."""
        rng = random.Random(seed)
        topo = build_cluster(6, racks=2, service_units=2)
        state = ClusterState(topo)
        live: list[str] = []
        tag_pool = ["hb", "hb_rs", "tf", "storm"]
        for step in range(40):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                cid = f"c{step}"
                node = rng.choice(topo.node_ids())
                tags = tuple(rng.sample(tag_pool, k=rng.randint(1, 2)))
                if state.can_fit(node, Resource(512, 1)):
                    state.allocate(cid, node, Resource(512, 1), tags, "app")
                    live.append(cid)
        for group_name in topo.group_names():
            group = topo.group(group_name)
            for idx, node_set in enumerate(group.node_sets):
                for tag in tag_pool:
                    expected = sum(
                        placed.node_id in node_set and tag in placed.allocation.tags
                        for placed in state.containers.values()
                    )
                    assert state.group_tag_count(group_name, idx, tag) == expected


class TestGammaStore:
    """The array γ store: late group registration and its memory bound."""

    def test_group_registered_after_placement_is_counted(self):
        """Regression: a node group registered after containers were placed
        used to be invisible to γ (count 0, delta 0.0), and the later
        release drove its counter below zero."""
        topology = build_cluster(4, racks=2)
        state = ClusterState(topology)
        put(state, "c1", "n00000", tags=("hb",))
        topology.register_group(
            "ud", [["n00000", "n00001"], ["n00002", "n00003"]]
        )
        constraint = anti_affinity("hb", "hb", "ud")
        assert state.gamma("ud", 0, ["hb"]) == 1
        assert state.placement_delta_violations([constraint], "n00001", {"hb"}) == 2.0
        assert state.placement_delta_violations([constraint], "n00002", {"hb"}) == 0.0
        # Writes after the registration count once, not twice.
        put(state, "c2", "n00001", tags=("hb",))
        assert state.gamma("ud", 0, ["hb"]) == 2
        state.release("c1")
        assert state.gamma("ud", 0, ["hb"]) == 1
        state.release("c2")
        for group_name in topology.group_names():
            for idx in range(len(topology.group(group_name).node_sets)):
                assert state.group_tag_count(group_name, idx, "hb") == 0
        assert all(not g.counts for g in state._gamma_groups().values())

    def test_release_right_after_registration_stays_non_negative(self):
        topology = build_cluster(4, racks=2)
        state = ClusterState(topology)
        put(state, "c1", "n00000", tags=("hb",))
        put(state, "c2", "n00000", tags=("hb",))
        topology.register_group("ud", [["n00000", "n00001"]])
        state.release("c1")  # first write to see the new group
        assert state.gamma("ud", 0, ["hb"]) == 1
        state.release("c2")
        assert state.gamma("ud", 0, ["hb"]) == 0

    def test_gamma_arrays_exist_only_for_live_tags(self):
        """Memory is O(live tags × sets): a thousand short-lived
        application tags on a thousand nodes leave no array behind."""
        topology = build_cluster(1000, racks=20)
        state = ClusterState(topology)
        node_ids = topology.node_ids()
        for k in range(1000):
            put(state, f"c{k}", node_ids[k], tags=("lra", f"appID:{k:04d}"))
        groups = state._gamma_groups()
        assert all(len(g.counts) == 1001 for g in groups.values())
        for k in range(1000):
            state.release(f"c{k}")
        assert all(not g.counts for g in groups.values())
        assert state._live_tags == {}


class TestCheckPlacement:
    def test_affinity_hypothetical(self, state):
        constraint = affinity("storm", "mem", "node")
        put(state, "mc", "n00000", tags=("mem",))
        ok, extent = state.check_placement(constraint, "n00000", {"storm"}, placed=False)
        assert ok and extent == 0.0
        ok, extent = state.check_placement(constraint, "n00001", {"storm"}, placed=False)
        assert not ok and extent == pytest.approx(1.0)

    def test_anti_affinity_post_placement_excludes_self(self, state):
        """A container must not violate its own anti-affinity."""
        constraint = anti_affinity("hb_rs", "hb_rs", "node")
        put(state, "rs1", "n00000", tags=("hb", "hb_rs"))
        ok, _ = state.check_placement(
            constraint, "n00000", {"hb", "hb_rs"}, placed=True
        )
        assert ok

    def test_anti_affinity_detects_pair(self, state):
        constraint = anti_affinity("hb_rs", "hb_rs", "node")
        put(state, "rs1", "n00000", tags=("hb_rs",))
        put(state, "rs2", "n00000", tags=("hb_rs",))
        ok, extent = state.check_placement(constraint, "n00000", {"hb_rs"}, placed=True)
        assert not ok and extent == pytest.approx(1.0)

    def test_cardinality_rack_scope(self, state):
        constraint = cardinality("storm", "spark", 0, 2, "rack")
        for i, node in enumerate(["n00000", "n00002", "n00004"]):
            put(state, f"s{i}", node, tags=("spark",))
        ok, extent = state.check_placement(constraint, "n00000", {"storm"}, placed=False)
        assert not ok and extent == pytest.approx(1 / 2)
        ok, _ = state.check_placement(constraint, "n00001", {"storm"}, placed=False)
        assert ok  # other rack has no spark

    def test_subject_mismatch_is_satisfied(self, state):
        constraint = affinity("storm", "mem", "node")
        ok, extent = state.check_placement(constraint, "n00000", {"tf"}, placed=False)
        assert ok and extent == 0.0

    def test_node_outside_group_counts_as_violation(self, state):
        ids = state.topology.node_ids()
        state.topology.register_group("half", [ids[:5]])
        constraint = affinity("a", "b", "half")
        ok, extent = state.check_placement(constraint, ids[7], {"a"}, placed=False)
        assert not ok and extent >= 1.0


class TestDeltaViolations:
    def test_prefers_constraint_free_node(self, state):
        constraint = anti_affinity("hb_rs", "hb_rs", "node")
        put(state, "rs1", "n00000", tags=("hb_rs",))
        bad = state.placement_delta_violations([constraint], "n00000", {"hb_rs"})
        good = state.placement_delta_violations([constraint], "n00001", {"hb_rs"})
        assert bad > good == 0.0

    def test_reverse_direction_detected(self, state):
        """Placing a target container next to an existing subject counts."""
        constraint = anti_affinity("hb_m", "hb_sec", "node")
        put(state, "m", "n00000", tags=("hb_m",))
        delta = state.placement_delta_violations([constraint], "n00000", {"hb_sec"})
        assert delta > 0.0

    def test_affinity_gradient(self, state):
        """Extent gradient: a rack with more target containers scores
        strictly better for an unsatisfiable-min affinity."""
        constraint = affinity("w", "w", "rack", min_count=3)
        put(state, "w1", "n00000", tags=("w",))
        closer = state.placement_delta_violations([constraint], "n00002", {"w"})
        farther = state.placement_delta_violations([constraint], "n00001", {"w"})
        assert closer < farther


class TestClusterMetrics:
    def test_fragmented_fraction(self, state):
        # Fill one node to 15.5/16 GB: free 512 MB < 2 GB threshold.
        put(state, "big", "n00000", mem=15 * 1024 + 512)
        assert state.fragmented_node_fraction() == pytest.approx(0.1)

    def test_cv_zero_when_uniform(self, state):
        for i in range(10):
            put(state, f"c{i}", f"n{i:05d}", mem=1024)
        assert state.memory_utilization_cv() == pytest.approx(0.0)

    def test_cv_positive_when_skewed(self, state):
        put(state, "c0", "n00000", mem=8 * 1024)
        assert state.memory_utilization_cv() > 1.0

    def test_cluster_memory_utilization(self, state):
        put(state, "c0", "n00000", mem=16 * 1024)
        assert state.cluster_memory_utilization() == pytest.approx(0.1)


class TestMetricMemoisation:
    """Memoised cluster metrics must always agree with direct recomputation.

    The metrics are cached on the state's version counter (bumped on every
    allocate / release and, through the node's hook, availability flip); a
    stale cache would silently skew utilisation, fragmentation, and the
    fingerprint the determinism suite pins.
    """

    MUTATIONS = ("alloc", "release", "down", "up")

    def _assert_fresh(self, state: ClusterState) -> None:
        threshold = Resource(2048, 1)
        assert state.total_free() == state._compute_total_free()
        assert state.fragmented_node_fraction(threshold) == (
            state._compute_fragmented_node_fraction(threshold)
        )
        assert state.memory_utilization_cv() == (
            state._compute_memory_utilization_cv()
        )
        assert state.rack_memory_utilization() == (
            state._compute_rack_memory_utilization()
        )
        assert state.cluster_memory_utilization() == (
            state._compute_cluster_memory_utilization()
        )
        # The vectorised metrics agree with plain loops over the nodes
        # (integers exactly; float reductions up to summation order).
        oracle = scalar_state_metrics(state, threshold)
        assert state.total_free() == oracle["total_free"]
        assert state.cluster_memory_utilization() == oracle["utilization"]
        assert state.fragmented_node_fraction(threshold) == oracle["frag"]
        assert state.memory_utilization_cv() == pytest.approx(
            oracle["cv"], rel=1e-12
        )
        assert state.rack_memory_utilization() == pytest.approx(
            oracle["rack_util"], rel=1e-12
        )

    def test_cached_values_track_mutations(self, small_topology):
        state = ClusterState(small_topology)
        nodes = list(small_topology)
        rng = random.Random(5)
        live: list[str] = []
        self._assert_fresh(state)
        for step in range(120):
            kind = rng.choice(self.MUTATIONS)
            node = rng.choice(nodes)
            if kind == "alloc":
                resource = Resource(rng.choice([512, 1024, 4096]), 1)
                if state.can_fit(node.node_id, resource):
                    cid = f"m{step}"
                    state.allocate(cid, node.node_id, resource, ("w",), "app")
                    live.append(cid)
            elif kind == "release" and live:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                node.available = kind == "up"
            self._assert_fresh(state)

    def test_memo_hit_without_mutation(self, state):
        put(state, "c0", "n00000")
        first = state.fingerprint()
        version = state.version
        assert state.fingerprint() == first
        assert state.version == version  # reads must not invalidate
        put(state, "c1", "n00001")
        assert state.version > version
        assert state.fingerprint() != first

    def test_direct_node_mutation_invalidates(self, state):
        """Flipping a node's availability directly (not through the state
        API) must still invalidate cached metrics, via the node's hook."""
        before = state.total_free()
        node = state.topology.node("n00000")
        node.available = False
        after = state.total_free()
        assert after.memory_mb == before.memory_mb - node.capacity.memory_mb
        assert state.down_node_ids() == ["n00000"]
        node.available = True
        assert state.total_free() == before
        assert state.down_node_ids() == []


class TestSharedTopology:
    """Two states over one topology share only what describes the machines:
    their containers and free resources are their own, a node's
    availability is everyone's."""

    def test_states_over_one_topology_are_independent(self):
        topology = build_cluster(4, racks=2)
        a, b = ClusterState(topology), ClusterState(topology)
        demand = Resource(16 * 1024, 8)
        before = (b.total_free(), b.candidate_index().fit_node_ids(demand))
        a.allocate("c1", "n00000", Resource(4096, 1), ("w",), "app")
        assert b.containers == {}
        assert (b.total_free(), b.candidate_index().fit_node_ids(demand)) == before
        assert b.free_resources("n00000") == topology.node("n00000").capacity
        assert b.candidate_index().nodes_with_tag("w") == set()
        # b places its own c1 on the same node; a is untouched by it.
        b.allocate("c1", "n00000", Resource(4096, 1), ("w",), "app")
        assert a.free_resources("n00000") == Resource(12 * 1024, 7)
        assert b.free_resources("n00000") == Resource(12 * 1024, 7)
        b.release("c1")
        assert set(a.containers) == {"c1"} and b.containers == {}

    def test_availability_flip_reaches_every_state(self):
        topology = build_cluster(4, racks=2)
        a, b = ClusterState(topology), ClusterState(topology)
        demand = Resource(1024, 1)
        topology.node("n00001").available = False
        for state in (a, b):
            assert state.down_node_ids() == ["n00001"]
            assert state.arrays.fit_mask(demand).tolist() == [True, False, True, True]
        topology.node("n00001").available = True
        for state in (a, b):
            assert state.down_node_ids() == []
            assert state.arrays.fit_mask(demand).all()
