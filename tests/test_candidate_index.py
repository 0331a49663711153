"""Property tests for the incrementally-maintained candidate index.

The :class:`~repro.cluster.index.CandidateIndex` is updated through node
mutation hooks on every allocate / release (availability lives on the
state's arrays, which the fit query reads).  These tests drive arbitrary
interleavings of allocate / release / fail / recover (Hypothesis generates
the op sequences) and assert the one invariant everything else rests on:
the incremental index is always *identical* to an index rebuilt from
scratch over the same topology state — same tag counts.

On top of the snapshot invariant, the query surface is cross-checked
against brute-force topology scans: ``fit_node_indices`` must equal the
legacy capacity scan (in the same order), and the tag queries must match
per-node tag recomputation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Resource, anti_affinity, build_cluster
from repro.cluster.index import CandidateIndex
from repro.cluster.state import ClusterState

NUM_NODES = 8
TAGS = ("hbase", "master", "web", "cache")

#: One mutation op: (kind, node index, tag index, size step).
_op = st.tuples(
    st.sampled_from(["alloc", "release", "down", "up"]),
    st.integers(min_value=0, max_value=NUM_NODES - 1),
    st.integers(min_value=0, max_value=len(TAGS) - 1),
    st.integers(min_value=1, max_value=4),
)


def _build_state() -> ClusterState:
    topology = build_cluster(NUM_NODES, racks=2, memory_mb=8 * 1024, vcores=8)
    return ClusterState(topology)


def _interpret(state: ClusterState, ops) -> None:
    """Apply an op sequence; infeasible ops degrade to no-ops so every
    generated sequence is valid."""
    live: list[str] = []
    counter = 0
    nodes = list(state.topology)
    for kind, node_i, tag_i, step in ops:
        node = nodes[node_i]
        if kind == "alloc":
            resource = Resource(step * 512, 1)
            if node.available and node.can_fit(resource):
                counter += 1
                cid = f"c{counter}"
                state.allocate(
                    cid, node.node_id, resource,
                    (TAGS[tag_i], TAGS[(tag_i + step) % len(TAGS)]),
                    f"app-{tag_i}",
                )
                live.append(cid)
        elif kind == "release" and live:
            state.release(live.pop(node_i % len(live)))
        elif kind == "down":
            node.available = False
        elif kind == "up":
            node.available = True


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_incremental_index_equals_rebuild(ops) -> None:
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    rebuilt = CandidateIndex.rebuilt(state.topology)
    assert index.snapshot() == rebuilt.snapshot()


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(_op, max_size=30),
    mem=st.integers(min_value=0, max_value=10 * 1024),
    vcores=st.integers(min_value=0, max_value=10),
)
def test_fit_query_matches_topology_scan(ops, mem: int, vcores: int) -> None:
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    demand = Resource(mem, vcores)
    brute = [
        i
        for i, node in enumerate(state.topology)
        if node.available and node.can_fit(demand)
    ]
    assert index.fit_node_indices(demand) == brute
    assert index.fit_node_ids(demand) == [
        node.node_id
        for node in state.topology
        if node.available and node.can_fit(demand)
    ]


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_tag_queries_match_node_tags(ops) -> None:
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    for tag in TAGS:
        expected_dynamic = {
            node.node_id
            for node in state.topology
            if tag in node.dynamic_tags()
        }
        expected_all = {
            node.node_id
            for node in state.topology
            if tag in node.tag_multiset()
        }
        assert index.nodes_with_tag(tag, dynamic_only=True) == expected_dynamic
        assert index.nodes_with_tag(tag) == expected_all
        for node in state.topology:
            assert index.tag_count(tag, node.node_id) == (
                node.dynamic_tags().cardinality(tag)
            )


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, max_size=25))
def test_index_consistent_after_release_all(ops) -> None:
    """Releasing every container returns the index to its pristine shape."""
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    for cid in list(state.containers):
        state.release(cid)
    pristine = CandidateIndex.rebuilt(state.topology)
    snap = index.snapshot()
    assert snap == pristine.snapshot()
    assert snap["tags"] == {}


def test_membership_arrays_rebuild_on_new_group() -> None:
    """The scorer's node → set membership arrays follow the topology's
    groups: a group registered later is scored, not a ``KeyError``."""
    state = _build_state()
    nodes = [n.node_id for n in state.topology]
    state.allocate("c1", nodes[1], Resource(512, 1), ("web",), "app")
    constraint = anti_affinity("web", "web", "halves")
    everywhere = list(range(NUM_NODES))
    with pytest.raises(KeyError):
        state.placement_deltas([constraint], everywhere, {"web"})
    state.topology.register_group("halves", [nodes[:4], nodes[4:]])
    deltas = state.placement_deltas([constraint], everywhere, {"web"})
    # Forward (the new container sees one ``web``) plus reverse (the placed
    # one would see the new one) in the first half, nothing in the second.
    assert deltas.tolist() == [2.0] * 4 + [0.0] * 4


def test_signatures_follow_the_topology() -> None:
    """``signatures`` is computed on demand, so it equals the state's
    per-node membership and sees a group registered later."""
    state = _build_state()
    index = state.candidate_index()
    nodes = [n.node_id for n in state.topology]
    assert index.signatures(("rack", "node")) == [
        tuple(tuple(state.group_sets_for_node(g, n)) for g in ("rack", "node"))
        for n in nodes
    ]
    # Overlapping sets, and the last node in none of them.
    state.topology.register_group("halves", [nodes[:5], nodes[3:7]])
    assert index.signatures(("halves",)) == (
        [((0,),)] * 3 + [((0, 1),)] * 2 + [((1,),)] * 2 + [((),)]
    )
