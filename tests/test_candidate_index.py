"""Property tests for the candidate queries over the cluster state.

:class:`~repro.cluster.index.CandidateIndex` keeps no record of its own:
fit queries read the state's free and availability columns, tag queries
read γ's ``node`` group column.  These tests drive arbitrary interleavings
of allocate / release / fail / recover (Hypothesis generates the op
sequences) and, after every op, check the columns and every query against
a brute-force recount from the container map (``tests/helpers.py``): the
free and availability columns, ``fit_node_indices`` in topology order, and
the tag queries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Resource, anti_affinity, build_cluster
from repro.cluster.state import ClusterState
from tests.helpers import recount_free

NUM_NODES = 8
TAGS = ("hbase", "master", "web", "cache")
#: Node 0 carries a static attribute that is also a container tag.
STATIC = {0: ("cache",)}

#: One mutation op: (kind, node index, tag index, size step).
_op = st.tuples(
    st.sampled_from(["alloc", "release", "down", "up"]),
    st.integers(min_value=0, max_value=NUM_NODES - 1),
    st.integers(min_value=0, max_value=len(TAGS) - 1),
    st.integers(min_value=1, max_value=4),
)


def _build_state() -> ClusterState:
    topology = build_cluster(NUM_NODES, racks=2, memory_mb=8 * 1024, vcores=8)
    for i, node in enumerate(topology):
        node.static_tags = frozenset(STATIC.get(i, ()))
    return ClusterState(topology)


def _interpret(state: ClusterState, ops, check=lambda state: None) -> None:
    """Apply an op sequence, calling ``check(state)`` after every op;
    infeasible ops degrade to no-ops so every generated sequence is valid."""
    live: list[str] = []
    counter = 0
    nodes = list(state.topology)
    for kind, node_i, tag_i, step in ops:
        node = nodes[node_i]
        if kind == "alloc":
            resource = Resource(step * 512, 1)
            if state.can_fit(node.node_id, resource):
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
        check(state)


def _check_against_recount(state: ClusterState) -> None:
    """The columns and every query equal a brute-force recount from the
    container map and the nodes."""
    index = state.candidate_index()
    nodes = list(state.topology)
    free = recount_free(state)
    arrays = state.arrays
    assert arrays.free_mem.tolist() == [free[n.node_id].memory_mb for n in nodes]
    assert arrays.free_vc.tolist() == [free[n.node_id].vcores for n in nodes]
    assert arrays.avail.tolist() == [n.available for n in nodes]
    for demand in (Resource(512, 1), Resource(2048, 1), Resource(8 * 1024, 8)):
        assert index.fit_node_indices(demand) == [
            i for i, n in enumerate(nodes)
            if n.available and demand.fits(free[n.node_id])
        ]
    for tag in TAGS:
        hosting = [
            placed.node_id for placed in state.containers.values()
            if tag in placed.allocation.tags
        ]
        assert index.nodes_with_tag(tag, dynamic_only=True) == set(hosting)
        assert index.nodes_with_tag(tag) == set(hosting) | {
            n.node_id for n in nodes if tag in n.static_tags
        }
        for node in nodes:
            assert index.tag_count(tag, node.node_id) == hosting.count(node.node_id)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, max_size=40))
def test_queries_match_recount_after_every_op(ops) -> None:
    state = _build_state()
    _check_against_recount(state)
    _interpret(state, ops, _check_against_recount)


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
        if state.can_fit(node.node_id, demand)
    ]
    assert index.fit_node_indices(demand) == brute
    assert index.fit_node_ids(demand) == [
        node.node_id
        for node in state.topology
        if state.can_fit(node.node_id, demand)
    ]


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_op, max_size=30))
def test_tag_queries_match_node_tags(ops) -> None:
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    for tag in TAGS:
        expected_dynamic = {
            placed.node_id for placed in state.containers.values()
            if tag in placed.allocation.tags
        }
        expected_static = {
            node.node_id for node in state.topology if tag in node.static_tags
        }
        assert index.nodes_with_tag(tag, dynamic_only=True) == expected_dynamic
        assert index.nodes_with_tag(tag) == expected_dynamic | expected_static


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, max_size=25))
def test_index_consistent_after_release_all(ops) -> None:
    """Releasing every container returns the queries to their pristine
    answers."""
    state = _build_state()
    index = state.candidate_index()
    _interpret(state, ops)
    for cid in list(state.containers):
        state.release(cid)
    _check_against_recount(state)
    for tag in TAGS:
        assert index.nodes_with_tag(tag, dynamic_only=True) == set()
    up = [i for i, node in enumerate(state.topology) if node.available]
    assert index.fit_node_indices(Resource(8 * 1024, 8)) == up


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
