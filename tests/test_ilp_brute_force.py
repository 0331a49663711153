"""Brute-force validation of the ILP encoding on tiny instances.

For randomly generated micro-clusters and micro-apps, enumerate *every*
feasible assignment of containers to nodes and check two properties:

1. **Completeness** — whenever some assignment satisfies all constraints
   and capacities, the ILP places the app with zero violations.
2. **Soundness** — the ILP's own placements never violate capacity, and
   its violation audit agrees with the independent checker.

This guards the Fig. 5 encoding (big-D activation, self-exclusion, slack
normalisation) against silent drift.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    Resource,
    build_cluster,
    evaluate_violations,
)
from repro.core.constraints import (
    UNBOUNDED,
    PlacementConstraint,
    affinity,
    anti_affinity,
    cardinality,
)
from tests.helpers import make_lra, place_all, recount_free


def random_instance(seed: int):
    """A tiny cluster plus one app with 2-4 containers and 1-2 constraints."""
    rng = random.Random(seed)
    num_nodes = rng.randint(2, 4)
    topo = build_cluster(
        num_nodes, racks=rng.choice([1, 2]), memory_mb=4 * 1024, vcores=4
    )
    state = ClusterState(topo)
    # Optionally pre-place an 'anchor' container other constraints refer to.
    if rng.random() < 0.5:
        anchor_node = rng.choice(topo.node_ids())
        state.allocate("anchor", anchor_node, Resource(1024, 1), ("anchor",), "x")
    n_containers = rng.randint(2, 4)
    constraint_pool = [
        anti_affinity("w", "w", "node"),
        cardinality("w", "w", 0, 1, "node"),
        affinity("w", "anchor", "node"),
        cardinality("w", "w", 0, 2, "rack"),
        affinity("w", "w", "rack"),
    ]
    constraints = rng.sample(constraint_pool, k=rng.randint(1, 2))
    app = make_lra(
        f"bf-{seed}", containers=n_containers, tags={"w"},
        constraints=constraints, memory_mb=1024, vcores=1,
    )
    return topo, state, app


def assignment_satisfies(state, app, nodes_choice) -> bool:
    """Apply an assignment, audit it, roll back; True if fully clean."""
    placed = []
    try:
        for container, node_id in zip(app.containers, nodes_choice):
            if not state.can_fit(node_id, container.resource):
                return False
            state.allocate(
                container.container_id, node_id, container.resource,
                container.tags, app.app_id,
            )
            placed.append(container.container_id)
        report = evaluate_violations(state, list(app.constraints))
        return report.violating_containers == 0
    finally:
        for cid in placed:
            state.release(cid)


def exists_clean_assignment(state, app) -> bool:
    node_ids = state.topology.node_ids()
    for choice in itertools.product(node_ids, repeat=len(app.containers)):
        if assignment_satisfies(state, app, choice):
            return True
    return False


@pytest.mark.parametrize("seed", range(20))
def test_ilp_finds_clean_placement_when_one_exists(seed):
    topo, state, app = random_instance(seed)
    manager = ConstraintManager(topo)
    manager.register_application(app)
    clean_exists = exists_clean_assignment(state, app)

    result = IlpScheduler().place([app], state, manager)
    place_all(state, result)
    report = evaluate_violations(state, manager=manager)

    if clean_exists:
        assert len(result.placements) == len(app.containers), (
            f"seed {seed}: clean assignment exists but app was rejected"
        )
        assert report.violating_containers == 0, (
            f"seed {seed}: ILP produced violations although a clean "
            f"assignment exists: {[ (r.container_id, r.constraint) for r in report.records ]}"
        )
    # Soundness either way: capacities hold.
    for free in recount_free(state).values():
        assert free.memory_mb >= 0 and free.vcores >= 0
