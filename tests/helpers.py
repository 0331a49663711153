"""Shared test builders (importable, unlike conftest)."""

from __future__ import annotations

import itertools

from repro import ClusterState, ContainerRequest, LRARequest, Resource

_counter = itertools.count(1)


def make_lra(
    app_id: str | None = None,
    *,
    containers: int = 3,
    tags: set[str] | None = None,
    constraints=(),
    compound=(),
    memory_mb: int = 1024,
    vcores: int = 1,
) -> LRARequest:
    """Terse LRA builder for tests."""
    if app_id is None:
        app_id = f"t-{next(_counter):04d}"
    tag_set = frozenset(tags or {"w"})
    reqs = [
        ContainerRequest(f"{app_id}/c{i}", Resource(memory_mb, vcores), tag_set)
        for i in range(containers)
    ]
    return LRARequest(app_id, reqs, constraints, compound)


def place_all(state: ClusterState, result) -> None:
    """Apply a PlacementResult onto the state (test convenience)."""
    for p in result.placements:
        state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)


def scalar_state_metrics(state: ClusterState, threshold: Resource) -> dict:
    """Scalar oracle for ``ClusterState``'s vectorised cluster metrics.

    Plain loops over the topology's nodes — independent of the
    struct-of-arrays mirror production code computes them from.
    """
    nodes = list(state.topology)
    up = [n for n in nodes if n.available]
    capacity_mb = sum(n.capacity.memory_mb for n in nodes)
    free_mb = sum(n.free.memory_mb for n in up)
    utils = [n.memory_utilization() for n in up]
    mean = sum(utils) / len(utils) if utils else 0.0
    variance = sum((u - mean) ** 2 for u in utils) / len(utils) if utils else 0.0
    rack_capacity: dict[str, float] = {}
    rack_used: dict[str, float] = {}
    for n in nodes:
        rack_capacity[n.rack] = rack_capacity.get(n.rack, 0.0) + n.capacity.memory_mb
        if n.available:
            rack_used[n.rack] = rack_used.get(n.rack, 0.0) + n.used.memory_mb
    return {
        "total_free": Resource(free_mb, sum(n.free.vcores for n in up)),
        "utilization": (capacity_mb - free_mb) / capacity_mb if capacity_mb else 0.0,
        "frag": (
            sum(1 for n in up if n.is_fragmented(threshold)) / len(up) if up else 0.0
        ),
        "cv": variance ** 0.5 / mean if mean else 0.0,
        "rack_util": {
            rack: rack_used.get(rack, 0.0) / cap
            for rack, cap in sorted(rack_capacity.items())
            if cap > 0
        },
    }
