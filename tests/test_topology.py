"""Unit tests for nodes, topology and node groups (paper §4.1)."""

from __future__ import annotations

import pytest

from repro import ClusterState, Node, NodeGroup, Resource, build_cluster
from repro.cluster.topology import ClusterTopology


def one_node_state(capacity=Resource(4096, 4), **node_kwargs) -> ClusterState:
    return ClusterState(ClusterTopology([Node("n1", capacity, **node_kwargs)]))


def alloc(state, cid="c1", mem=1024, cores=1, tags=("w",), app="a1"):
    return state.allocate(cid, "n1", Resource(mem, cores), tags, app)


class TestNode:
    """A node's ledger, read and written through :class:`ClusterState`."""

    def test_initial_state(self):
        state = one_node_state()
        assert state.free_resources("n1") == Resource(4096, 4)
        assert state.topology.node("n1").available
        assert state.containers == {}

    def test_allocate_updates_free_and_tags(self):
        state = one_node_state()
        alloc(state)
        assert state.free_resources("n1") == Resource(3072, 3)
        assert state.candidate_index().tag_count("w", "n1") == 1

    def test_release_restores(self):
        state = one_node_state()
        alloc(state)
        state.release("c1")
        assert state.free_resources("n1") == Resource(4096, 4)
        assert state.candidate_index().tag_count("w", "n1") == 0

    def test_duplicate_container_rejected(self):
        state = one_node_state()
        alloc(state)
        with pytest.raises(ValueError):
            alloc(state)
        assert state.free_resources("n1") == Resource(3072, 3)

    def test_overallocation_rejected(self):
        state = one_node_state(Resource(1024, 1))
        with pytest.raises(ValueError):
            alloc(state, mem=2048)
        assert state.containers == {}
        assert state.free_resources("n1") == Resource(1024, 1)

    def test_release_unknown_rejected(self):
        with pytest.raises(KeyError):
            one_node_state(Resource(1, 1)).release("ghost")

    def test_can_fit_respects_availability(self):
        state = one_node_state()
        assert state.can_fit("n1", Resource(1024, 1))
        state.topology.node("n1").available = False
        assert not state.can_fit("n1", Resource(1024, 1))

    def test_static_tags_in_multiset_once(self):
        state = one_node_state(static_tags=["gpu"])
        alloc(state)
        index = state.candidate_index()
        assert index.nodes_with_tag("gpu") == {"n1"}
        assert index.nodes_with_tag("w") == {"n1"}
        # static tags are not dynamic
        assert index.nodes_with_tag("gpu", dynamic_only=True) == set()
        assert index.tag_count("gpu", "n1") == 0

    def test_memory_utilization(self):
        state = one_node_state()
        alloc(state, mem=1024)
        assert state.cluster_memory_utilization() == pytest.approx(0.25)

    def test_fragmentation_definition(self):
        """§7.4: fragmented = less free than threshold AND not fully used."""
        threshold = Resource(2048, 1)
        state = one_node_state(Resource(4096, 2))
        assert state.fragmented_node_fraction(threshold) == 0.0  # plenty free
        alloc(state, cid="a", mem=3072, cores=1)
        assert state.fragmented_node_fraction(threshold) == 1.0  # 1 GB < 2 GB
        alloc(state, cid="b", mem=1024, cores=1)
        assert state.fragmented_node_fraction(threshold) == 0.0  # fully used


class TestNodeGroup:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            NodeGroup("", ((),))

    def test_sets_containing(self):
        group = NodeGroup("g", (("a", "b"), ("b", "c")))
        assert group.sets_containing("b") == [("a", "b"), ("b", "c")]
        assert group.sets_containing("z") == []


class TestTopology:
    def test_predefined_groups(self, small_topology):
        assert small_topology.has_group("node")
        assert small_topology.has_group("rack")
        assert len(small_topology.group("node").node_sets) == 10
        assert len(small_topology.group("rack").node_sets) == 2

    def test_rack_striping(self):
        topo = build_cluster(6, racks=3)
        racks = {}
        for node in topo:
            racks.setdefault(node.rack, []).append(node.node_id)
        assert len(racks) == 3
        assert all(len(ids) == 2 for ids in racks.values())

    def test_register_group(self, small_topology):
        ids = small_topology.node_ids()
        group = small_topology.register_group("ud", [ids[:5], ids[5:]])
        assert len(group.node_sets) == 2
        assert small_topology.has_group("ud")

    def test_register_predefined_name_rejected(self, small_topology):
        with pytest.raises(ValueError):
            small_topology.register_group("node", [["n00000"]])

    def test_register_unknown_node_rejected(self, small_topology):
        with pytest.raises(KeyError):
            small_topology.register_group("g", [["ghost"]])

    def test_overlapping_groups_allowed(self, small_topology):
        ids = small_topology.node_ids()
        group = small_topology.register_group("ov", [ids[:6], ids[4:]])
        assert small_topology.set_indices_for_node("ov", ids[5]) == [0, 1]

    def test_unknown_group_lookup_raises(self, small_topology):
        with pytest.raises(KeyError):
            small_topology.group("nope")
        with pytest.raises(KeyError):
            small_topology.set_indices_for_node("nope", "n00000")

    def test_membership_index_consistent(self, small_topology):
        for node_id in small_topology.node_ids():
            for group_name in small_topology.group_names():
                via_index = small_topology.sets_of_group_containing(group_name, node_id)
                group = small_topology.group(group_name)
                brute = [ns for ns in group.node_sets if node_id in ns]
                assert via_index == brute

    def test_duplicate_node_ids_rejected(self):
        nodes = [Node("same", Resource(1, 1)), Node("same", Resource(1, 1))]
        with pytest.raises(ValueError):
            ClusterTopology(nodes)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology([])

    def test_total_capacity(self):
        topo = build_cluster(4, memory_mb=1000, vcores=2)
        assert topo.total_capacity() == Resource(4000, 8)


class TestBuildCluster:
    def test_domains_partition_all_nodes(self):
        topo = build_cluster(100, racks=4, upgrade_domains=7, fault_domains=3, service_units=5)
        for name, count in [("upgrade_domain", 7), ("fault_domain", 3), ("service_unit", 5)]:
            group = topo.group(name)
            assert len(group.node_sets) == count
            covered = [n for ns in group.node_sets for n in ns]
            assert sorted(covered) == sorted(topo.node_ids())

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            build_cluster(0)
        with pytest.raises(ValueError):
            build_cluster(5, racks=0)

    def test_node_prefix(self):
        topo = build_cluster(2, node_prefix="x")
        assert all(n.node_id.startswith("x") for n in topo)
