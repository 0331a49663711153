"""Heuristic-based LRA schedulers (paper §5.3) and the YARN baseline.

All heuristics share one greedy loop: order the batch's containers, then for
each container pick the feasible node with the smallest *additional*
constraint-violation extent (ties broken toward the node with most free
memory, which nudges load balance).  Node selection is one array pass per
container — :meth:`ClusterState.placement_deltas` over every node, with
``+inf`` where the capacity fit mask says the container does not fit — and
the optional decision audit is a view of that same array.  The constraints
come from the manager's tag index (:class:`BatchConstraints`), so a batch
costs what its own tags reach, not the number of live applications.  The
heuristics differ only in the ordering:

* **Serial** — no ordering; containers are placed in submission order.
* **Medea-TP (tag popularity)** — containers whose tags appear in the most
  constraints go first (they are the hardest to place).
* **Medea-NC (node candidates)** — the container with the fewest nodes on
  which it can be placed without violations goes first; Nc values are
  recalculated lazily, only for containers whose placement opportunities the
  previous placement may have affected.

:class:`ConstraintUnawareScheduler` reproduces the YARN baseline: it ignores
placement constraints entirely and picks nodes the way a heartbeat-driven
capacity scheduler would (effectively arbitrary among nodes with space),
which is why the paper observes constraints being "randomly satisfied" under
YARN.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ..cluster.state import ClusterState
from ..obs.audit import (
    PRUNE_CAPACITY,
    PRUNE_CONSTRAINT,
    CandidatePruned,
    ContainerDecision,
    DecisionAudit,
)
from .constraint_manager import BatchConstraints, ConstraintManager
from .constraints import PlacementConstraint
from .dsl import format_constraint
from .requests import ContainerRequest, LRARequest
from .scheduler import (
    ContainerPlacement,
    LRAScheduler,
    PlacementResult,
    ScratchPlacements,
    feasible_nodes,
)

__all__ = [
    "GreedyScheduler",
    "SerialScheduler",
    "TagPopularityScheduler",
    "NodeCandidatesScheduler",
    "ConstraintUnawareScheduler",
]


class GreedyScheduler(LRAScheduler):
    """Shared greedy placement loop; subclasses choose the container order.

    ``audit=True`` attaches a :class:`~repro.obs.DecisionAudit` to every
    result: per container, the candidates considered, the nodes pruned by
    capacity, the constraint-violating candidates (with the responsible
    constraint in canonical notation and its Eq.-8 extent), and the chosen
    node's score terms.  Off by default — auditing does extra
    per-constraint scoring work inside the placement loop.
    """

    name = "greedy"

    def __init__(self, *, audit: bool = False) -> None:
        self.audit_enabled = audit
        self._audit: DecisionAudit | None = None

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
        self._audit = DecisionAudit(self.name) if self.audit_enabled else None
        batch = manager.batch(requests)
        # (request index, container) work items, in the subclass's order;
        # select_next allows dynamic re-prioritisation between placements
        # (Medea-NC refreshes candidate counts after every placement).
        pending = self.order_containers(requests, batch, state)
        failed_apps: set[str] = set()
        with ScratchPlacements(state) as scratch:
            while pending:
                req_index, container = pending.pop(self.select_next(pending))
                request = requests[req_index]
                if request.app_id in failed_apps:
                    continue
                decision = (
                    self._audit.new_decision(request.app_id, container.container_id)
                    if self._audit is not None
                    else None
                )
                node_id = self.pick_node(
                    container, batch.relevant(container.tags), state,
                    decision=decision,
                )
                if node_id is None:
                    failed_apps.add(request.app_id)
                    scratch.unplace_app(request.app_id)
                    continue
                scratch.place(container, node_id, request.app_id)
                self.after_placement(container, node_id)
            result.placements = list(scratch.placements)
        result.rejected_apps = sorted(failed_apps)
        result.audit = self._audit
        self._audit = None
        return result

    # -- extension points --------------------------------------------------

    def order_containers(
        self,
        requests: Sequence[LRARequest],
        batch: BatchConstraints,
        state: ClusterState,
    ) -> list[tuple[int, ContainerRequest]]:
        """Submission order by default (the Serial behaviour)."""
        return [
            (i, container)
            for i, request in enumerate(requests)
            for container in request.containers
        ]

    def select_next(self, pending: list[tuple[int, ContainerRequest]]) -> int:
        """Index of the next work item to place (default: head of the list)."""
        return 0

    def after_placement(self, container: ContainerRequest, node_id: str) -> None:
        """Hook for subclasses that maintain incremental state (Medea-NC)."""

    # -- node selection -------------------------------------------------------

    def pick_node(
        self,
        container: ContainerRequest,
        constraints: Sequence[PlacementConstraint],
        state: ClusterState,
        *,
        decision: ContainerDecision | None = None,
    ) -> str | None:
        """Feasible node minimising additional violation extent against
        ``constraints`` (the batch's relevant ones); ties broken toward the
        node with the most free memory, then toward the first node in
        topology order.

        One array pass: :func:`_scores` over every node, then the
        lexicographic minimum of (delta, −free memory).  The deltas are
        bit-identical to a node-by-node evaluation, so this picks exactly
        the node a strict-``<`` first-wins scan in topology order would.

        When ``decision`` is given, every pruned/penalised candidate is
        recorded into it — a view of the same score array.
        """
        scores = _scores(container, constraints, state)
        if decision is not None:
            self._audit_candidates(decision, constraints, container, state, scores)
        best_score = scores.min(initial=np.inf)
        if best_score == np.inf:
            return None
        arrays = state.arrays
        tied = np.flatnonzero(scores == best_score)
        best = tied[arrays.free_mem[tied].argmax()]  # argmax: first of equal maxima
        chosen = arrays.node_ids[best]
        if decision is not None:
            decision.chosen_node = chosen
            decision.score_terms = {
                "violation_delta": float(best_score),
                "free_memory_mb": int(arrays.free_mem[best]),
            }
        return chosen

    @staticmethod
    def _audit_candidates(
        decision: ContainerDecision,
        relevant: Sequence[PlacementConstraint],
        container: ContainerRequest,
        state: ClusterState,
        scores: np.ndarray,
    ) -> None:
        """Record what ``pick_node`` saw, in topology order: capacity
        misfits, and for every candidate with a positive delta one entry
        per contributing constraint."""
        fits = scores < np.inf
        violating = np.flatnonzero(fits & (scores > 0))
        decision.considered += len(scores)
        decision.feasible += int(np.count_nonzero(fits)) - violating.size
        row_of = {int(i): row for row, i in enumerate(violating)}
        attributed = [
            (
                format_constraint(constraint),
                state.placement_deltas([constraint], violating, container.tags),
            )
            for constraint in relevant
        ]
        for i, node_id in enumerate(state.arrays.node_ids):
            if not fits[i]:
                decision.pruned.append(CandidatePruned(node_id, PRUNE_CAPACITY))
            elif i in row_of:
                for text, extents in attributed:
                    extent = float(extents[row_of[i]])
                    if extent > 0:
                        decision.pruned.append(
                            CandidatePruned(
                                node_id, PRUNE_CONSTRAINT,
                                constraint=text, extent=extent,
                            )
                        )


def _scores(
    container: ContainerRequest,
    constraints: Sequence[PlacementConstraint],
    state: ClusterState,
) -> np.ndarray:
    """Per node, the violation extent placing ``container`` there adds, and
    ``+inf`` where it does not fit: one :meth:`ClusterState.placement_deltas`
    pass over the whole node axis."""
    scores = state.placement_deltas(constraints, None, container.tags)
    scores[~state.arrays.fit_mask(container.resource)] = np.inf
    return scores


class SerialScheduler(GreedyScheduler):
    """Greedy with no request ordering (the paper's *Serial* baseline)."""

    name = "Serial"


class TagPopularityScheduler(GreedyScheduler):
    """Medea-TP: prioritise containers whose tags appear in most constraints."""

    name = "MEDEA-TP"

    def order_containers(
        self,
        requests: Sequence[LRARequest],
        batch: BatchConstraints,
        state: ClusterState,
    ) -> list[tuple[int, ContainerRequest]]:
        def score(container: ContainerRequest) -> int:
            return sum(batch.popularity(tag) for tag in container.tags)

        items = [
            (i, container)
            for i, request in enumerate(requests)
            for container in request.containers
        ]
        # Stable sort keeps submission order among equally popular containers.
        items.sort(key=lambda item: -score(item[1]))
        return items


class NodeCandidatesScheduler(GreedyScheduler):
    """Medea-NC: place the container with the fewest candidate nodes first.

    ``Nc`` — the number of nodes on which a container can go without adding
    violations — is computed per container up front as an explicit
    candidate-node set, then maintained *incrementally*: a placement on
    node X only changes candidacy on X itself (capacity) and on nodes that
    share a constrained node set with X (its rack, service unit, ...), so
    only those entries are re-evaluated — the paper's "recalculating Nc
    only for containers whose placement opportunities were affected".
    """

    name = "MEDEA-NC"

    def __init__(self, *, audit: bool = False) -> None:
        super().__init__(audit=audit)
        self._pending: list[tuple[int, ContainerRequest]] = []
        self._batch: BatchConstraints | None = None
        self._state: ClusterState | None = None
        #: container id -> set of violation-free feasible nodes.
        self._candidates: dict[str, set[str]] = {}

    def place(self, requests, state, manager, *, now=0.0):  # type: ignore[override]
        self._state = state
        try:
            return super().place(requests, state, manager, now=now)
        finally:
            self._state = None
            self._batch = None
            self._pending = []
            self._candidates = {}

    def order_containers(
        self,
        requests: Sequence[LRARequest],
        batch: BatchConstraints,
        state: ClusterState,
    ) -> list[tuple[int, ContainerRequest]]:
        self._batch = batch
        self._pending = [
            (i, container)
            for i, request in enumerate(requests)
            for container in request.containers
        ]
        for _, container in self._pending:
            self._candidates[container.container_id] = self._compute_candidates(
                container
            )
        return list(self._pending)

    def select_next(self, pending: list[tuple[int, ContainerRequest]]) -> int:
        best_index = 0
        best_nc = None
        for index, (_, container) in enumerate(pending):
            nc = len(self._candidates.get(container.container_id, ()))
            if best_nc is None or nc < best_nc:
                best_nc = nc
                best_index = index
        return best_index

    def after_placement(self, container: ContainerRequest, node_id: str) -> None:
        state, batch = self._state, self._batch
        if state is None or batch is None:
            return
        # The placed container is done; only still-pending ones are refreshed.
        self._candidates.pop(container.container_id, None)
        arrays = state.arrays
        node_ids = arrays.node_ids
        placed_node = np.array([arrays.index_of[node_id]])
        affected = self._affected_nodes(container, node_id)
        placed_tags = container.tags
        for _, other in self._pending:
            candidates = self._candidates.get(other.container_id)
            if candidates is None:
                continue
            relevant = batch.relevant(other.tags)
            tag_related = any(
                (constraint.applies_to(other.tags)
                 and any(tc.c_tag.tags & placed_tags for tc in constraint.tag_constraints))
                or any(tc.c_tag.tags <= other.tags for tc in constraint.tag_constraints)
                for constraint in relevant
            )
            # Capacity on the placed node always needs a re-check; constraint
            # effects only when the containers' tags interact.
            nodes = affected if tag_related else placed_node
            still = arrays.fit_mask(other.resource, nodes) & (
                state.placement_deltas(relevant, nodes, other.tags) == 0
            )
            candidates.difference_update(node_ids[i] for i in nodes)
            candidates.update(node_ids[i] for i in nodes[still])

    def _affected_nodes(self, container: ContainerRequest, node_id: str) -> np.ndarray:
        """Indices of the nodes whose candidacy the placement may have
        changed: the node itself plus every node sharing a constrained node
        set with it."""
        assert self._state is not None and self._batch is not None
        affected = {node_id}
        groups = {c.node_group for c in self._batch.relevant(container.tags)}
        for group_name in groups:
            for node_set in self._state.topology.sets_of_group_containing(
                group_name, node_id
            ):
                affected.update(node_set)
        index_of = self._state.arrays.index_of
        return np.fromiter(
            (index_of[n] for n in affected), dtype=np.intp, count=len(affected)
        )

    def _compute_candidates(self, container: ContainerRequest) -> set[str]:
        """Initial violation-free candidate set: the score array
        :meth:`GreedyScheduler.pick_node` ranks, tested for zero."""
        assert self._state is not None and self._batch is not None
        scores = _scores(
            container, self._batch.relevant(container.tags), self._state
        )
        node_ids = self._state.arrays.node_ids
        return {node_ids[i] for i in np.flatnonzero(scores == 0)}


class ConstraintUnawareScheduler(LRAScheduler):
    """The YARN baseline: capacity-aware, constraint-blind placement.

    Nodes are chosen pseudo-randomly among those with room, emulating the
    arbitrariness of heartbeat-driven allocation; the seed makes experiments
    reproducible.
    """

    name = "YARN"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def place(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        now: float = 0.0,
    ) -> PlacementResult:
        result = PlacementResult()
        failed: set[str] = set()
        with ScratchPlacements(state) as scratch:
            for request in requests:
                for container in request.containers:
                    if request.app_id in failed:
                        break
                    candidates = feasible_nodes(state, container.resource)
                    if not candidates:
                        failed.add(request.app_id)
                        scratch.unplace_app(request.app_id)
                        break
                    scratch.place(
                        container, self._rng.choice(candidates), request.app_id
                    )
            result.placements = list(scratch.placements)
        result.rejected_apps = sorted(failed)
        return result
