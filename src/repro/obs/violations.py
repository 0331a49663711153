"""Ground-truth constraint-violation accounting.

The paper's Fig. 9 reports "the percentage of containers that violate
constraints".  This module walks the *actual* cluster state (not scheduler
bookkeeping) and, for every placed LRA container and every active constraint
that applies to it, evaluates the constraint semantics exactly — the same
brute-force check tests use to validate the ILP encoding.

It sits inside ``repro.obs`` next to the metrics registry it records
into.  The cluster/core types only appear as annotations, so this module has no
runtime dependency on them and is safe to import from anywhere in
``repro.obs`` (the online watchdog cross-checks against it every few
heartbeats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from .metrics import Metrics, get_metrics

if TYPE_CHECKING:  # annotation-only: keeps obs free of core/cluster imports
    from ..cluster.state import ClusterState
    from ..core.constraint_manager import ConstraintManager
    from ..core.constraints import CompoundConstraint, PlacementConstraint

__all__ = ["ViolationRecord", "ViolationReport", "evaluate_violations"]


@dataclass
class ViolationRecord:
    container_id: str
    constraint: "PlacementConstraint"
    extent: float


@dataclass
class ViolationReport:
    """Cluster-wide violation summary."""

    #: Number of LRA containers subject to >= 1 constraint.
    subject_containers: int = 0
    #: Containers with at least one violated constraint.
    violating_containers: int = 0
    #: Total violation extent (Eq. 8 units) across all records.
    total_extent: float = 0.0
    records: list[ViolationRecord] = field(default_factory=list)

    @property
    def violation_fraction(self) -> float:
        """Fraction of constrained containers in violation (Fig. 9 y-axis)."""
        if self.subject_containers == 0:
            return 0.0
        return self.violating_containers / self.subject_containers

    def record_to(self, metrics: Metrics, **labels: Any) -> None:
        """Fold this audit into a :class:`~repro.obs.metrics.Metrics`
        registry: an evaluation counter plus ``violations_containers``
        (labelled ``status=subject|violating``) and
        ``violations_total_extent`` gauges."""
        metrics.counter("violations_evaluations_total").inc(**labels)
        containers = metrics.gauge("violations_containers")
        containers.set(self.subject_containers, status="subject", **labels)
        containers.set(self.violating_containers, status="violating", **labels)
        metrics.gauge("violations_total_extent").set(self.total_extent, **labels)


class _ExactCheck:
    """``ClusterState.check_placement(..., placed=True)`` with exact
    conjunction counts.

    The state's γ counts a tag conjunction as the *minimum* of its per-tag
    counts, which overcounts when no single container carries every tag
    (``appID:a ∧ hb_sec`` on a node with ``{appID:a, hb_m}`` and
    ``{appID:b, hb_sec}`` is 1 there, 0 here).  The audit instead counts,
    per (group, set, conjunction), the containers on the set's nodes that
    carry every tag — memoised for one evaluation — and excludes the
    subject container itself.
    """

    def __init__(self, state: "ClusterState") -> None:
        self._state = state
        self._topology = state.topology
        self._counts: dict[tuple[str, int, frozenset[str]], int] = {}
        #: node id -> tag sets of its containers, grouped on first use.
        self._tags_on: dict[str, list[frozenset[str]]] | None = None

    def _count(self, group: str, set_index: int, tags: frozenset[str]) -> int:
        key = (group, set_index, tags)
        count = self._counts.get(key)
        if count is None:
            tags_on = self._tags_on
            if tags_on is None:
                tags_on = self._tags_on = {}
                for placed in self._state.containers.values():
                    tags_on.setdefault(placed.node_id, []).append(
                        placed.allocation.tags
                    )
            count = self._counts[key] = sum(
                tags <= container_tags
                for node_id in self._topology.group(group).node_sets[set_index]
                for container_tags in tags_on.get(node_id, ())
            )
        return count

    def __call__(
        self,
        constraint: "PlacementConstraint",
        node_id: str,
        subject: frozenset[str],
    ) -> tuple[bool, float]:
        """``(satisfied, violation_extent)`` of ``constraint`` for the placed
        subject on ``node_id``, summed like ``check_placement``."""
        if not constraint.applies_to(subject):
            return True, 0.0
        group = constraint.node_group
        set_indices = self._topology.set_indices_for_node(group, node_id)
        if not set_indices:
            return False, float(len(constraint.tag_constraints))
        satisfied = True
        extent = 0.0
        for set_index in set_indices:
            for tc in constraint.tag_constraints:
                tags = tc.c_tag.tags
                # The subject sits in every one of these sets.
                gamma = self._count(group, set_index, tags) - (tags <= subject)
                if not tc.satisfied_by(gamma):
                    satisfied = False
                    extent += tc.violation_extent(gamma)
        return satisfied, extent


def evaluate_violations(
    state: "ClusterState",
    constraints: Sequence["PlacementConstraint"] | None = None,
    manager: "ConstraintManager" | None = None,
    compound: Sequence["CompoundConstraint"] = (),
    *,
    metrics: Metrics | None = None,
) -> ViolationReport:
    """Audit the current placements against the active constraints.

    Pass either an explicit constraint list or a :class:`ConstraintManager`.
    Compound (DNF) constraints count as violated only if *every* conjunct is
    violated for the subject.

    The resulting report is also recorded into ``metrics`` (the ambient
    registry by default) — see :meth:`ViolationReport.record_to` — so
    violation accounting shares the one telemetry channel instead of living
    as a side system.
    """
    if constraints is None:
        if manager is None:
            raise ValueError("need constraints or a constraint manager")
        # Per-container applicability comes from the manager's subject-tag
        # index (same constraints, same order as the linear scan).
        applying_to = manager.constraints_applying_to
        compound = tuple(manager.active_compound_constraints()) or compound
    else:
        def applying_to(tags):
            return [c for c in constraints if c.applies_to(tags)]

    check = _ExactCheck(state)
    report = ViolationReport()
    for placed in state.containers.values():
        if not placed.allocation.long_running:
            continue
        tags = placed.allocation.tags
        applicable = applying_to(tags)
        applicable_compound = [
            comp
            for comp in compound
            if any(c.applies_to(tags) for c in comp.all_constraints())
        ]
        if not applicable and not applicable_compound:
            continue
        report.subject_containers += 1
        violated = False
        for constraint in applicable:
            ok, extent = check(constraint, placed.node_id, tags)
            if not ok:
                violated = True
                report.total_extent += extent
                report.records.append(
                    ViolationRecord(placed.container_id, constraint, extent)
                )
        for comp in applicable_compound:
            best_extent = None
            for conjunct in comp.conjuncts:
                conj_extent = 0.0
                conj_ok = True
                for constraint in conjunct:
                    if not constraint.applies_to(tags):
                        continue
                    ok, extent = check(constraint, placed.node_id, tags)
                    if not ok:
                        conj_ok = False
                        conj_extent += extent
                if conj_ok:
                    best_extent = 0.0
                    break
                if best_extent is None or conj_extent < best_extent:
                    best_extent = conj_extent
            if best_extent:
                violated = True
                report.total_extent += best_extent
        if violated:
            report.violating_containers += 1
    report.record_to(metrics if metrics is not None else get_metrics())
    return report
