"""Cluster set-up: background fill, the γ membership build, and how states
hear availability flips.

``fill_cluster`` keeps used memory itself instead of re-summing the
cluster before every container; it must place exactly the containers the
re-summing loop (``tests/helpers.py::reference_fill_cluster``) places.
The membership arrays and per-node slots are built in one pass over each
group's node sets; they must equal the per-node
``topology.set_indices_for_node`` construction they replace.
"""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterState, Node, Resource, build_cluster
from repro.cluster.topology import ClusterTopology
from repro.workloads import GridMixConfig, fill_cluster
from tests.helpers import reference_fill_cluster

_seeds = st.integers(min_value=0, max_value=2**32)


def _container_map(state: ClusterState) -> dict:
    return {
        cid: (placed.node_id, tuple(placed.allocation))
        for cid, placed in state.containers.items()
    }


def _both_fills(make_state, fraction: float, **kwargs) -> tuple[ClusterState, int]:
    """Fill two identical states, one with each loop; assert they agree."""
    new, old = make_state(), make_state()
    placed = fill_cluster(new, fraction, **kwargs)
    assert placed == reference_fill_cluster(old, fraction, **kwargs)
    assert _container_map(new) == _container_map(old)
    assert new.fingerprint() == old.fingerprint()
    assert new.cluster_memory_utilization() == old.cluster_memory_utilization()
    return new, placed


def _preload(state: ClusterState, rng: random.Random, count: int) -> None:
    node_ids = state.topology.node_ids()
    for k in range(count):
        demand = Resource(rng.choice((512, 1024, 3072)), rng.randint(1, 2))
        node_id = rng.choice(node_ids)
        if state.can_fit(node_id, demand):
            state.allocate(f"pre-{k}", node_id, demand, ("pre",), "pre")


class TestFillMatchesReference:
    @pytest.mark.parametrize("nodes", [1, 2, 7, 200, 2000])
    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.2, 0.5, 0.9])
    def test_plain_clusters(self, nodes, fraction):
        topology = build_cluster(nodes, racks=max(1, nodes // 25))
        state, placed = _both_fills(
            lambda: ClusterState(topology), fraction, config=GridMixConfig(seed=nodes)
        )
        assert state.cluster_memory_utilization() >= fraction
        assert (placed == 0) == (fraction == 0.0)

    @pytest.mark.parametrize("fraction", [0.1, 0.4, 0.8])
    def test_preloaded_state_with_down_nodes(self, fraction):
        topology = build_cluster(60, racks=3)

        def make_state() -> ClusterState:
            state = ClusterState(topology)
            _preload(state, random.Random(5), 150)
            return state

        for node_id in ("n00003", "n00017", "n00059"):
            topology.node(node_id).available = False
        state, _ = _both_fills(make_state, fraction, config=GridMixConfig(seed=3))
        assert not any(
            placed.node_id in ("n00003", "n00017", "n00059")
            for placed in state.containers.values()
            if placed.allocation.app_id == "gridmix-bg"
        )

    def test_second_fill_on_a_filled_state(self):
        topology = build_cluster(100, racks=4)

        def make_state() -> ClusterState:
            state = ClusterState(topology)
            fill_cluster(state, 0.3, config=GridMixConfig(seed=1))
            return state

        _both_fills(
            make_state, 0.6, config=GridMixConfig(seed=2), app_id="second",
            fill_resource=Resource(1024, 1),
        )

    def test_unreachable_target_stops_at_max_attempts(self, monkeypatch):
        # 1 GB / 1-core containers use up 8 cores at half the memory, so
        # 90 % is out of reach: both loops give up after 1,000 draws per node.
        topology = build_cluster(3)
        kwargs = dict(config=GridMixConfig(seed=4), fill_resource=Resource(1024, 1))
        state, placed = _both_fills(lambda: ClusterState(topology), 0.9, **kwargs)
        assert placed == 24
        assert state.cluster_memory_utilization() == 0.5

        attempts = []
        can_fit = ClusterState.can_fit
        monkeypatch.setattr(
            ClusterState, "can_fit",
            lambda self, node_id, demand: attempts.append(node_id) or can_fit(self, node_id, demand),
        )
        fill_cluster(ClusterState(topology), 0.9, **kwargs)
        assert len(attempts) == 3 * 1000

    def test_zero_memory_cluster(self):
        # Utilisation reads 0.0 on a cluster without memory; the loop must
        # not divide by zero and must give up like the reference does.
        topology = ClusterTopology([Node(f"z{i}", Resource(0, 4)) for i in range(2)])
        _, placed = _both_fills(lambda: ClusterState(topology), 0.5)
        assert placed == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=_seeds)
    def test_random_clusters(self, seed):
        rng = random.Random(seed)
        nodes = [
            Node(
                f"n{i}",
                Resource(rng.choice((4096, 8192, 16384)), rng.choice((2, 4, 8))),
                rack=f"r{i % 3}",
            )
            for i in range(rng.randint(1, 30))
        ]
        topology = ClusterTopology(nodes)
        for node in nodes:
            if rng.random() < 0.15:
                node.available = False
        preload = rng.randint(0, 40)

        def make_state() -> ClusterState:
            state = ClusterState(topology)
            _preload(state, random.Random(seed), preload)
            return state

        _both_fills(
            make_state,
            rng.choice((0.0, 0.1, 0.3, 0.6, 0.9)),
            config=GridMixConfig(seed=seed),
            fill_resource=Resource(rng.choice((512, 1024, 2048, 4096)), rng.randint(1, 2)),
        )


def test_large_fill_sums_the_cluster_at_most_once(monkeypatch):
    """A guard on work, not time: the O(nodes) read of used memory runs at
    most once per fill, however many containers it places."""
    calls = []
    for name in ("used_memory_mb", "_compute_cluster_memory_utilization"):
        original = getattr(ClusterState, name)
        monkeypatch.setattr(
            ClusterState, name,
            lambda self, _f=original, _n=name: calls.append(_n) or _f(self),
        )
    state = ClusterState(build_cluster(5000, racks=200))
    placed = fill_cluster(state, 0.2)
    assert placed == 8000
    assert len(calls) <= 1


def _reference_membership(state: ClusterState):
    """The per-node construction: ``set_indices_for_node`` for every node
    and every group, padded with the group's "no set" index."""
    topology = state.topology
    node_ids = state.arrays.node_ids
    groups = {}
    slots: list[list[int]] = [[] for _ in node_ids]
    offset = 0
    for name in topology.group_names():
        sets_of = [topology.set_indices_for_node(name, n) for n in node_ids]
        no_set = len(topology.group(name).node_sets)
        width = max(1, max(map(len, sets_of)))
        member = np.array([s + [no_set] * (width - len(s)) for s in sets_of])
        groups[name] = (member, no_set, offset)
        for row, sets in zip(slots, sets_of):
            row.extend(offset + s for s in sets)
        offset += no_set + 1
    return groups, [tuple(row) for row in slots], offset


def _assert_membership_matches(state: ClusterState) -> None:
    built = state._gamma_groups()
    groups, slots, width = _reference_membership(state)
    assert sorted(built) == sorted(groups)
    for name, (member, no_set, offset) in groups.items():
        group = built[name]
        assert group.member.dtype == np.intp
        assert group.member.shape == member.shape, name
        assert (group.member == member).all(), name
        assert (group.no_set, group.offset) == (no_set, offset)
    assert state._slots_of == slots
    assert all(type(s) is int for row in state._slots_of for s in row)
    assert state._width == width
    # γ recounted from the container map, per group and set.
    for name, group in built.items():
        node_sets = state.topology.group(name).node_sets
        tags = {t for c in state.containers.values() for t in c.allocation.tags}
        assert set(group.counts) == tags
        for tag in tags:
            expected = [
                sum(
                    1 for c in state.containers.values()
                    for n in node_set
                    if c.node_id == n and tag in c.allocation.tags
                )
                for node_set in node_sets
            ] + [0]
            assert group.counts[tag].tolist() == expected, (name, tag)


class TestMembershipBuild:
    @settings(max_examples=80, deadline=None)
    @given(seed=_seeds)
    def test_overlapping_groups_and_late_registration(self, seed):
        rng = random.Random(seed)
        num_nodes = rng.randint(1, 12)
        topology = build_cluster(num_nodes, racks=rng.randint(1, 3))
        node_ids = topology.node_ids()
        if num_nodes > 1:
            # Heavily overlapping sets that leave the last node out.
            topology.register_group(
                "zone",
                [
                    sorted(rng.sample(node_ids[:-1], rng.randint(1, num_nodes - 1)))
                    for _ in range(rng.randint(1, 5))
                ],
            )
        state = ClusterState(topology)
        for k in range(rng.randint(0, 30)):
            node_id = rng.choice(node_ids)
            if state.can_fit(node_id, Resource(1024, 1)):
                state.allocate(
                    f"c{k}", node_id, Resource(1024, 1),
                    rng.sample(("hb", "rs", "web"), rng.randint(1, 2)), "app",
                )
        _assert_membership_matches(state)
        # A group registered with containers already placed: shuffled
        # member order, an empty set, a node listed twice in one set.
        topology.register_group(
            "late",
            [
                rng.sample(node_ids, rng.randint(1, num_nodes)),
                [],
                [node_ids[0], node_ids[0]],
            ],
        )
        _assert_membership_matches(state)

    def test_group_with_no_sets(self):
        topology = build_cluster(5, racks=2)
        topology.register_group("none", [])
        state = ClusterState(topology)
        state.allocate("c", "n00001", Resource(1024, 1), ("w",), "app")
        _assert_membership_matches(state)
        assert state._gamma_groups()["none"].member.tolist() == [[0]] * 5


class TestAvailabilityListeners:
    def test_each_state_registers_once_and_weakly(self):
        topology = build_cluster(50, racks=2)
        keep = ClusterState(topology)
        dropped = [weakref.ref(ClusterState(topology)) for _ in range(30)]
        gc.collect()
        assert all(ref() is None for ref in dropped)
        # One shared registry for every node, holding only live states.
        assert all(node._listeners is topology._listeners for node in topology)
        assert list(topology._listeners) == [keep]
        others = [ClusterState(topology) for _ in range(5)]
        assert len(topology._listeners) == 6
        topology.node("n00003").available = False
        for state in [keep, *others]:
            assert state.down_node_ids() == ["n00003"]
        topology.node("n00003").available = True
        assert all(not state.down_node_ids() for state in [keep, *others])

    def test_standalone_node_flips_without_a_topology(self):
        node = Node("solo", Resource(1024, 1))
        node.available = False
        assert not node.available
