"""J-Kube and J-Kube++: the Kubernetes scheduling algorithm inside Medea.

The paper (§7.1) implements Kubernetes' algorithm in Medea's LRA scheduler
to get an architecture-fair comparison:

* **J-Kube** considers *one container request at a time* (no batch
  optimisation) and supports affinity and anti-affinity constraints but
  **not cardinality** — cardinality constraints are approximated by their
  nearest supported form, mirroring what a Kubernetes user would have to do:
  ``cmin >= 1`` becomes affinity, ``cmax == 0`` anti-affinity, and anything
  else is dropped.
* **J-Kube++** is J-Kube extended with cardinality support: constraints are
  evaluated exactly, but still one container at a time.

Node selection follows Kubernetes' filter/score split: filter nodes by
resource feasibility, then score each feasible node with (a) constraint
satisfaction and (b) spreading priorities (least-requested and
balanced-resource), taking the highest-scoring node.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.state import ClusterState
from ..obs.audit import (
    PRUNE_CAPACITY,
    CandidatePruned,
    ContainerDecision,
    DecisionAudit,
)
from .constraint_manager import BatchConstraints, ConstraintManager
from .constraints import (
    UNBOUNDED,
    PlacementConstraint,
    TagConstraint,
)
from .requests import ContainerRequest, LRARequest
from .scheduler import LRAScheduler, PlacementResult, ScratchPlacements

__all__ = ["JKubeScheduler", "JKubePlusPlusScheduler"]

#: Score weights roughly matching Kubernetes' default priority weights:
#: inter-pod (anti-)affinity dominates the spreading priorities.
_CONSTRAINT_WEIGHT = 10.0
_LEAST_REQUESTED_WEIGHT = 1.0
_BALANCED_RESOURCE_WEIGHT = 1.0


def _kube_supported(constraint: PlacementConstraint) -> PlacementConstraint | None:
    """Map a Medea constraint onto what vanilla Kubernetes can express.

    Pure affinity and anti-affinity pass through.  A cardinality constraint
    is *weakened*: a positive ``cmin`` keeps its affinity side (cmin=1), a
    zero-``cmax``-like bound cannot be expressed unless it is exactly 0, so
    finite non-zero ``cmax`` is dropped.  Returns ``None`` when nothing of
    the constraint survives.
    """
    kept: list[TagConstraint] = []
    for tc in constraint.tag_constraints:
        if tc.is_affinity() or tc.is_anti_affinity():
            kept.append(tc)
        elif tc.cmin >= 1:
            # Keep only the affinity flavour of the cardinality constraint.
            kept.append(TagConstraint(tc.c_tag, 1, UNBOUNDED))
        # A finite cmax > 0 has no Kubernetes equivalent: dropped.
    if not kept:
        return None
    return PlacementConstraint(
        subject=constraint.subject,
        tag_constraints=tuple(kept),
        node_group=constraint.node_group,
        weight=constraint.weight,
        hard=constraint.hard,
        origin=constraint.origin,
    )


class JKubeScheduler(LRAScheduler):
    """One-container-at-a-time scheduling with Kubernetes-style scoring."""

    name = "J-KUBE"

    #: Subclass knob: whether cardinality constraints are evaluated exactly.
    supports_cardinality = False

    def __init__(self, *, audit: bool = False) -> None:
        self.audit_enabled = audit

    def place(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        now: float = 0.0,
    ) -> PlacementResult:
        result = PlacementResult()
        if not requests:
            return result
        audit = DecisionAudit(self.name) if self.audit_enabled else None
        batch = manager.batch(requests)
        # tags -> the constraints a container with them can interact with.
        relevant: dict[frozenset[str], list[PlacementConstraint]] = {}
        failed: set[str] = set()
        with ScratchPlacements(state) as scratch:
            for req_index, request in enumerate(requests):
                for container in request.containers:
                    if request.app_id in failed:
                        break
                    decision = (
                        audit.new_decision(request.app_id, container.container_id)
                        if audit is not None
                        else None
                    )
                    subset = relevant.get(container.tags)
                    if subset is None:
                        subset = relevant[container.tags] = self._relevant(
                            batch, container.tags
                        )
                    node_id = self._schedule_one(
                        container, subset, state, decision=decision
                    )
                    if node_id is None:
                        failed.add(request.app_id)
                        scratch.unplace_app(request.app_id)
                        break
                    scratch.place(container, node_id, request.app_id)
            result.placements = list(scratch.placements)
        result.rejected_apps = sorted(failed)
        result.audit = audit
        return result

    def _relevant(
        self, batch: BatchConstraints, tags: frozenset[str]
    ) -> list[PlacementConstraint]:
        """The batch's constraints a container with ``tags`` touches, as
        this scheduler sees them.  Mapping a constraint keeps its subject
        and only drops or weakens targets, so a mapped constraint touches
        ``tags`` only if its source does: mapping the touching ones and
        filtering again equals mapping everything, then filtering."""
        touching = batch.relevant(tags)
        if self.supports_cardinality:
            return touching
        mapped = map(_kube_supported, touching)
        return [m for m in mapped if m is not None and m.touches(tags)]

    # -- the filter/score pipeline ------------------------------------------

    def _schedule_one(
        self,
        container: ContainerRequest,
        constraints: Sequence[PlacementConstraint],
        state: ClusterState,
        *,
        decision: ContainerDecision | None = None,
    ) -> str | None:
        arrays = state.arrays
        fits = arrays.fit_mask(container.resource)  # filter phase
        fit = np.flatnonzero(fits)
        if decision is not None:
            decision.considered += len(fits)
            decision.feasible += fit.size
            decision.pruned.extend(
                CandidatePruned(arrays.node_ids[i], PRUNE_CAPACITY)
                for i in np.flatnonzero(~fits)
            )
        if not fit.size:
            return None
        scores = self._scores(fit, container, constraints, state)
        best = scores.argmax()  # first of equal maxima, as a strict-> scan
        if decision is not None:
            decision.chosen_node = arrays.node_ids[fit[best]]
            decision.score_terms = {"kube_score": float(scores[best])}
        return arrays.node_ids[fit[best]]

    def _scores(
        self,
        nodes: np.ndarray,
        container: ContainerRequest,
        constraints: Sequence[PlacementConstraint],
        state: ClusterState,
    ) -> np.ndarray:
        """Kubernetes-style score of placing ``container`` on each of the
        (fitting) node indices: every term is elementwise over the state
        arrays, in the operation order of the per-node formula."""
        arrays = state.arrays
        violation = state.placement_deltas(constraints, nodes, container.tags)
        cap_mem, cap_vc = arrays.cap_mem[nodes], arrays.cap_vc[nodes]
        # Share of each resource still free after the placement (0 for a
        # node without that resource).
        mem_free = np.divide(
            arrays.free_mem[nodes] - container.resource.memory_mb, cap_mem,
            out=np.zeros(len(nodes)), where=cap_mem > 0,
        )
        cpu_free = np.divide(
            arrays.free_vc[nodes] - container.resource.vcores, cap_vc,
            out=np.zeros(len(nodes)), where=cap_vc > 0,
        )
        least_requested = (mem_free + cpu_free) / 2.0
        mem_frac = np.where(cap_mem > 0, 1.0 - mem_free, 0.0)
        cpu_frac = np.where(cap_vc > 0, 1.0 - cpu_free, 0.0)
        balanced = 1.0 - np.abs(mem_frac - cpu_frac)
        return (
            -_CONSTRAINT_WEIGHT * violation
            + _LEAST_REQUESTED_WEIGHT * least_requested
            + _BALANCED_RESOURCE_WEIGHT * balanced
        )


class JKubePlusPlusScheduler(JKubeScheduler):
    """J-Kube extended with exact cardinality evaluation (still greedy,
    one container at a time)."""

    name = "J-KUBE++"
    supports_cardinality = True
