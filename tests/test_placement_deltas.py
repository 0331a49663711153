"""Differential test of the array scorer against the scalar oracle.

``ClusterState.placement_deltas`` promises floats *bit-identical* to a
node-by-node evaluation, so every comparison here is ``==``, never
``approx``: a last-digit difference would flip a greedy tie-break.  The
oracle (``tests/helpers.py::scalar_placement_delta``) recounts tags from the
container map on every call.

Scenarios are dense on purpose — a re-associated sum only shows in the last
bit when several inexact terms meet: an operator group ``zone`` of heavily
overlapping node sets (most nodes are in three or four of them, the last
node in none), up to three tag constraints per constraint with bounds like
3, 5, 6, 7 (extents such as 2/3 or 4/7), conjunction subjects and targets,
weights 0.3 and 1.7, and a long allocate / release / fail / recover
interleaving.  Swapping the fold's loop order, or weighting inside the fold
instead of after it, fails this test within a few dozen examples.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ClusterState,
    ConstraintManager,
    NodeCandidatesScheduler,
    Resource,
    SerialScheduler,
    TagPopularityScheduler,
    build_cluster,
)
from repro.cluster.state import _EQ8_INITIAL
from repro.core.constraints import UNBOUNDED, PlacementConstraint, TagConstraint
from tests.helpers import make_lra, scalar_placement_delta

TAGS = ("hb", "rs", "web")
_seeds = st.integers(min_value=0, max_value=2**32)


def _some_tags(rng: random.Random) -> list[str]:
    return rng.sample(TAGS, rng.randint(1, 2))


def _tag_constraint(rng: random.Random) -> TagConstraint:
    """Affinity (cmax unbounded), anti-affinity (0, 0) and cardinality mixes."""
    cmin = rng.choice((0, 0, 3, 5, 6, 7))
    cmax = UNBOUNDED if rng.random() < 0.2 else cmin + rng.choice((0, 1, 3))
    return TagConstraint(_some_tags(rng), cmin, cmax)


def _constraints(rng: random.Random) -> list[PlacementConstraint]:
    return [
        PlacementConstraint(
            subject=_some_tags(rng),
            tag_constraints=tuple(
                _tag_constraint(rng) for _ in range(rng.randint(1, 3))
            ),
            node_group=rng.choice(("node", "rack", "zone", "zone", "zone")),
            weight=rng.choice((0.3, 1.0, 1.7)),
        )
        for _ in range(rng.randint(1, 4))
    ]


def _cluster(rng: random.Random) -> ClusterState:
    num_nodes = rng.randint(4, 9)
    topology = build_cluster(
        num_nodes, racks=rng.randint(1, 3), memory_mb=64 * 1024, vcores=64
    )
    node_ids = topology.node_ids()
    topology.register_group(
        "zone",
        [
            sorted(rng.sample(node_ids[:-1], rng.randint(max(1, num_nodes - 3), num_nodes - 1)))
            for _ in range(rng.randint(2, 5))
        ],
    )
    state = ClusterState(topology)
    live: list[str] = []
    for step in range(rng.randint(0, 60)):
        node = topology.node(rng.choice(node_ids))
        roll = rng.random()
        if roll < 0.7:
            if state.can_fit(node.node_id, Resource(1024, 1)):
                state.allocate(
                    f"c{step}", node.node_id, Resource(1024, 1), _some_tags(rng), "app"
                )
                live.append(f"c{step}")
        elif roll < 0.85:
            if live:
                state.release(live.pop(rng.randrange(len(live))))
        else:
            node.available = rng.random() < 0.5
    return state


@settings(max_examples=200, deadline=None)
@given(seed=_seeds)
def test_array_deltas_equal_scalar_oracle_bit_for_bit(seed: int) -> None:
    rng = random.Random(seed)
    state, constraints, subject = _cluster(rng), _constraints(rng), _some_tags(rng)
    node_ids = state.topology.node_ids()
    deltas = state.placement_deltas(constraints, range(len(node_ids)), subject)
    everywhere = state.placement_deltas(constraints, None, subject)
    assert len(everywhere) == len(node_ids)
    for k, node_id in enumerate(node_ids):
        expected = scalar_placement_delta(state, constraints, node_id, subject)
        assert deltas[k] == expected, (node_id, deltas[k], expected)
        assert everywhere[k] == expected, (node_id, everywhere[k], expected)
        assert state.placement_delta_violations(constraints, node_id, subject) == expected
    # Any subset, in any order, gathers the same values.
    subset = list(range(len(node_ids)))[::-2]
    assert state.placement_deltas(constraints, subset, subject).tolist() == [
        deltas[k] for k in subset
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=_seeds,
    scheduler_class=st.sampled_from(
        [SerialScheduler, TagPopularityScheduler, NodeCandidatesScheduler]
    ),
)
def test_audit_does_not_change_placements(seed: int, scheduler_class) -> None:
    """The audit is a view of the arrays the unaudited path ranks."""
    rng = random.Random(seed)
    state = _cluster(rng)
    requests = [
        make_lra(
            f"r{i}", containers=3, tags=set(_some_tags(rng)),
            constraints=_constraints(rng),
        )
        for i in range(2)
    ]
    manager = ConstraintManager(state.topology)
    for request in requests:
        manager.register_application(request)
    plain = scheduler_class().place(requests, state, manager)
    audited = scheduler_class(audit=True).place(requests, state, manager)
    assert audited.placements == plain.placements
    assert audited.rejected_apps == plain.rejected_apps
    for decision in audited.audit.decisions:
        assert decision.considered == len(state.topology)
        assert (
            len(decision.pruned_by("capacity")) + decision.feasible
            <= decision.considered
        )


def _marginal(tc: TagConstraint, gamma: int) -> float:
    """The reverse term ``scalar_placement_delta`` adds per subject."""
    delta = tc.violation_extent(gamma + 1) - tc.violation_extent(gamma)
    return delta if delta > 0 else 0.0


def test_eq8_tables_equal_the_scalar_extent_bit_for_bit() -> None:
    """Every table a state builds, at every length it grows through, holds
    the scalar Eq.-8 values; and the tables cannot be written."""
    grid = [
        TagConstraint("hb", cmin, cmax)
        for cmin in (0, 1, 2, 3, 5, 7)
        for cmax in dict.fromkeys((cmin, cmin + 1, cmin + 3, UNBOUNDED))
    ]
    carriers = 4 * _EQ8_INITIAL
    state = ClusterState(build_cluster(1, memory_mb=carriers * 1024, vcores=carriers))
    lengths: dict[tuple[int, int], list[int]] = {}
    for k in range(1, carriers + 1):
        state.allocate(f"c{k}", "n00000", Resource(1024, 1), {"hb"}, "app")
        for tc in grid:
            table = state._eq8(tc)
            assert len(table) > k  # room for every γ up to k carriers
            seen = lengths.setdefault((tc.cmin, tc.cmax), [])
            if seen and seen[-1] == len(table):
                continue
            seen.append(len(table))
            n = len(table)
            assert table.forward.tolist() == [tc.violation_extent(g) for g in range(n)]
            assert table.marginal.tolist() == [_marginal(tc, g) for g in range(n)]
            assert table.marginal_self.tolist() == [
                _marginal(tc, max(0, g - 1)) for g in range(n)
            ]
            for array in (table.forward, table.marginal, table.marginal_self):
                with pytest.raises(ValueError):
                    array[0] = 1.0
    doublings = [_EQ8_INITIAL * 2**i for i in range(4)]
    assert all(grown == doublings for grown in lengths.values()), lengths


def test_deltas_past_the_initial_table_length_equal_the_oracle() -> None:
    """A set's γ at three times the initial table length: the tables must
    have grown to it — a clipped lookup would read a smaller γ's extent."""
    crowd = 3 * _EQ8_INITIAL
    topology = build_cluster(
        4, racks=2, memory_mb=(crowd + 2) * 1024, vcores=crowd + 2
    )
    state = ClusterState(topology)
    for k in range(crowd):
        state.allocate(f"hb{k}", "n00000", Resource(1024, 1), {"hb"}, "app")
    state.allocate("hb-far", "n00003", Resource(1024, 1), {"hb"}, "app")
    constraints = [
        PlacementConstraint("hb", (TagConstraint("hb", 0, 2),), "node"),
        PlacementConstraint("hb", (TagConstraint("hb", 5, UNBOUNDED),), "rack"),
    ]
    node_ids = topology.node_ids()
    deltas = state.placement_deltas(constraints, range(len(node_ids)), {"hb"})
    assert deltas.tolist() == [
        scalar_placement_delta(state, constraints, node_id, {"hb"})
        for node_id in node_ids
    ]
