"""Shared test builders (importable, unlike conftest)."""

from __future__ import annotations

import itertools
import random

from repro import (
    ClusterState,
    ConstraintManager,
    ContainerRequest,
    LRARequest,
    Resource,
    affinity,
    anti_affinity,
    build_cluster,
)
from repro.core.constraints import PlacementConstraint
from repro.obs import EventKind, ProfileReport
from repro.taskscheduler.base import TASK_TAG
from repro.workloads import GridMixConfig

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


def applies_to_calls(scheduler, unrelated: int, monkeypatch) -> int:
    """``PlacementConstraint.applies_to`` calls while ``scheduler`` places
    one fixed 2-app batch (5 containers, 8 nodes) next to ``unrelated``
    registered applications whose tags the batch never meets."""
    calls = []
    applies_to = PlacementConstraint.applies_to

    def counted(constraint, tags):
        calls.append(1)
        return applies_to(constraint, tags)

    topology = build_cluster(8, racks=2, memory_mb=8 * 1024, vcores=8)
    state, manager = ClusterState(topology), ConstraintManager(topology)
    for i in range(unrelated):
        manager.register_application(make_lra(
            f"u{i}", containers=1, tags={f"u{i}"},
            constraints=[anti_affinity(f"u{i}", f"u{i}", "node"),
                         affinity(f"u{i}", f"v{i}", "rack")],
        ))
    batch = [
        make_lra("w", containers=3, tags={"w"},
                 constraints=[anti_affinity("w", "w", "node")]),
        make_lra("hb", containers=2, tags={"hb"},
                 constraints=[affinity("hb", "w", "rack")]),
    ]
    for request in batch:
        manager.register_application(request)
    with monkeypatch.context() as patch:
        patch.setattr(PlacementConstraint, "applies_to", counted)
        result = scheduler.place(batch, state, manager)
    assert len(result.placements) == 5
    return len(calls)


def span_profile(events) -> ProfileReport:
    """Fold the span events of ``events`` (TraceEvents or decoded dicts)."""
    report = ProfileReport()
    for event in events:
        obj = event if isinstance(event, dict) else event.to_obj()
        if obj["kind"] == EventKind.SPAN:
            report.add(obj)
    return report


def place_all(state: ClusterState, result) -> None:
    """Apply a PlacementResult onto the state (test convenience)."""
    for p in result.placements:
        state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)


def recount_free(state: ClusterState) -> dict[str, Resource]:
    """Per node, capacity minus the containers ``state.containers`` places
    there — recounted from the map, never read from the state's columns."""
    used: dict[str, tuple[int, int]] = {}
    for placed in state.containers.values():
        memory_mb, vcores = used.get(placed.node_id, (0, 0))
        resource = placed.allocation.resource
        used[placed.node_id] = (memory_mb + resource.memory_mb, vcores + resource.vcores)
    free = {}
    for node in state.topology:
        memory_mb, vcores = used.get(node.node_id, (0, 0))
        free[node.node_id] = Resource(
            node.capacity.memory_mb - memory_mb, node.capacity.vcores - vcores
        )
    return free


def gather_constraints(requests, manager) -> list:
    """Oracle for ``ConstraintManager.batch``: active constraints plus those
    of the incoming batch, deduplicated, compound constraints approximated
    by their first conjunct — a plain scan of the manager's lists."""
    seen = set()
    out = []

    def _add(constraint) -> None:
        if constraint not in seen:
            seen.add(constraint)
            out.append(constraint)

    for constraint in manager.active_constraints():
        _add(constraint)
    for compound in manager.active_compound_constraints():
        for constraint in compound.conjuncts[0]:
            _add(constraint)
    for request in requests:
        for constraint in request.constraints:
            _add(constraint)
        for compound in request.compound_constraints:
            for constraint in compound.conjuncts[0]:
                _add(constraint)
    return out


def relevant_constraints(constraints, tags: frozenset[str]) -> list:
    """Oracle for constraint relevance: those whose subject ``tags``
    matches or whose target conjunction it carries, in list order."""
    return [
        c for c in constraints
        if c.applies_to(tags)
        or any(tc.c_tag.tags <= tags for tc in c.tag_constraints)
    ]


def scalar_state_metrics(state: ClusterState, threshold: Resource) -> dict:
    """Scalar oracle for ``ClusterState``'s vectorised cluster metrics.

    Plain loops over the topology's nodes, with per-node free from
    :func:`recount_free` — independent of the struct-of-arrays record
    production code computes them from.
    """
    free = recount_free(state)
    nodes = list(state.topology)
    up = [n for n in nodes if n.available]
    capacity_mb = sum(n.capacity.memory_mb for n in nodes)
    free_mb = sum(free[n.node_id].memory_mb for n in up)
    utils = [
        1.0 - free[n.node_id].memory_mb / n.capacity.memory_mb
        if n.capacity.memory_mb else 0.0
        for n in up
    ]
    mean = sum(utils) / len(utils) if utils else 0.0
    variance = sum((u - mean) ** 2 for u in utils) / len(utils) if utils else 0.0
    rack_capacity: dict[str, float] = {}
    rack_used: dict[str, float] = {}
    for n in nodes:
        rack_capacity[n.rack] = rack_capacity.get(n.rack, 0.0) + n.capacity.memory_mb
        if n.available:
            used_mb = n.capacity.memory_mb - free[n.node_id].memory_mb
            rack_used[n.rack] = rack_used.get(n.rack, 0.0) + used_mb
    # §7.4: fragmented = less free than the threshold and not fully used.
    fragmented = [
        n for n in up
        if not free[n.node_id].is_zero() and not threshold.fits(free[n.node_id])
    ]
    return {
        "total_free": Resource(free_mb, sum(free[n.node_id].vcores for n in up)),
        "utilization": (capacity_mb - free_mb) / capacity_mb if capacity_mb else 0.0,
        "frag": len(fragmented) / len(up) if up else 0.0,
        "cv": variance ** 0.5 / mean if mean else 0.0,
        "rack_util": {
            rack: rack_used.get(rack, 0.0) / cap
            for rack, cap in sorted(rack_capacity.items())
            if cap > 0
        },
    }


def scalar_placement_delta(
    state: ClusterState, constraints, node_id: str, subject_tags
) -> float:
    """Scalar oracle for ``ClusterState.placement_deltas``, one node at a time.

    Tag cardinalities are recounted from ``state.containers`` and the
    topology's group definitions on every call — no γ store, no membership
    arrays, no index — and the extents are accumulated in the order the
    array scorer promises to reproduce bit for bit.
    """
    subject = frozenset(subject_tags)

    def gamma(node_set, tags) -> int:
        return min(
            sum(
                1 for placed in state.containers.values()
                if placed.node_id in node_set and tag in placed.allocation.tags
            )
            for tag in tags
        )

    total = 0.0
    for constraint in constraints:
        node_sets = [
            node_set
            for node_set in state.topology.group(constraint.node_group).node_sets
            if node_id in node_set
        ]
        if constraint.applies_to(subject):
            # Forward: the new container is a subject; Eq.-8 extent on this node.
            extent = float(len(constraint.tag_constraints)) if not node_sets else 0.0
            for node_set in node_sets:
                for tc in constraint.tag_constraints:
                    count = gamma(node_set, tc.c_tag.tags)
                    if not tc.satisfied_by(count):
                        extent += tc.violation_extent(count)
            if extent:
                total += constraint.weight * extent
        # Reverse: the new container raises the target count every subject
        # already in the set observes (minus itself when it is a target too).
        reverse = 0.0
        for node_set in node_sets:
            n_subjects = gamma(node_set, constraint.subject.tags)
            if n_subjects == 0:
                continue
            for tc in constraint.tag_constraints:
                if not tc.c_tag.tags <= subject:
                    continue
                count = gamma(node_set, tc.c_tag.tags)
                if tc.c_tag.tags <= constraint.subject.tags:
                    count = max(0, count - 1)
                delta = tc.violation_extent(count + 1) - tc.violation_extent(count)
                if delta > 0:
                    reverse += n_subjects * delta
        total += constraint.weight * reverse
    return total


def reference_fill_cluster(
    state: ClusterState,
    target_memory_fraction: float,
    *,
    config: GridMixConfig = GridMixConfig(),
    app_id: str = "gridmix-bg",
    fill_resource: Resource = Resource(2048, 1),
) -> int:
    """Oracle for ``repro.workloads.fill_cluster``: the loop as it was
    before it kept used memory itself, re-reading
    ``state.cluster_memory_utilization()`` (an O(nodes) sum after every
    write) before each placement.  Same random draws, same containers."""
    if not 0.0 <= target_memory_fraction < 1.0:
        raise ValueError("target fraction must be in [0, 1)")
    rng = random.Random(config.seed)
    ids = itertools.count(1)
    nodes = [n for n in state.topology if n.available]
    placed = 0
    attempts = 0
    max_attempts = len(nodes) * 1000
    while state.cluster_memory_utilization() < target_memory_fraction:
        attempts += 1
        if attempts > max_attempts:
            break  # cluster cannot be filled further with this container size
        node = rng.choice(nodes)
        if not state.can_fit(node.node_id, fill_resource):
            continue
        state.allocate(
            f"{app_id}/t{next(ids):07d}",
            node.node_id,
            fill_resource,
            (TASK_TAG,),
            app_id,
            long_running=False,
        )
        placed += 1
    return placed
