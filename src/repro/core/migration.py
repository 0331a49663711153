"""Container migration — the paper's §5.4 extension, implemented.

Medea's published design is purely proactive: placements are chosen well
once and never revisited.  §5.4 sketches the natural extension — combine
proactive placement with *reactive* container migration when LRAs enter and
leave at high rates, accounting for migration cost in the objective.  This
module provides that extension as an optional, standalone planner.

The planner walks the cluster's currently-violating LRA containers (worst
extent first) and greedily relocates each to the feasible node that most
reduces total violation extent, charging a configurable per-move cost so
marginal improvements do not trigger churn.  It proposes a
:class:`MigrationPlan`; applying it is a separate, explicit step, because a
real cluster must drain/restart the container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.state import ClusterState
from .constraint_manager import ConstraintManager

__all__ = ["Migration", "MigrationPlan", "MigrationPlanner"]


@dataclass(frozen=True)
class Migration:
    """One proposed container move."""

    container_id: str
    from_node: str
    to_node: str
    #: Violation extent removed by this move (net of what it creates).
    extent_gain: float


@dataclass
class MigrationPlan:
    moves: list[Migration] = field(default_factory=list)

    @property
    def total_gain(self) -> float:
        return sum(m.extent_gain for m in self.moves)

    def __len__(self) -> int:
        return len(self.moves)


class MigrationPlanner:
    """Greedy reactive repair of constraint violations via migration.

    Parameters
    ----------
    migration_cost:
        Extent-equivalent cost of one move; a move is proposed only when
        its net violation-extent gain exceeds this (the §5.4 "migration
        cost in the objective function").
    max_moves:
        Upper bound on moves per plan, limiting churn per repair round.
    """

    def __init__(self, *, migration_cost: float = 0.25, max_moves: int = 10) -> None:
        if migration_cost < 0:
            raise ValueError("migration_cost must be non-negative")
        if max_moves < 1:
            raise ValueError("max_moves must be positive")
        self.migration_cost = migration_cost
        self.max_moves = max_moves

    # -- planning ---------------------------------------------------------------

    def plan(self, state: ClusterState, manager: ConstraintManager) -> MigrationPlan:
        """Compute a migration plan against the live state.

        The state is mutated tentatively while planning (so successive moves
        see each other) and fully restored before returning.
        """
        plan = MigrationPlan()
        applied: list[Migration] = []
        try:
            for _ in range(self.max_moves):
                move = self._best_single_move(state, manager)
                if move is None:
                    break
                self._apply(state, move)
                applied.append(move)
                plan.moves.append(move)
        finally:
            for move in reversed(applied):
                self._apply(state, Migration(
                    move.container_id, move.to_node, move.from_node, 0.0
                ))
        return plan

    def apply(self, state: ClusterState, plan: MigrationPlan) -> None:
        """Execute a plan for real (release + reallocate each container)."""
        for move in plan.moves:
            self._apply(state, move)

    # -- internals -----------------------------------------------------------------

    def _apply(self, state: ClusterState, move: Migration) -> None:
        placed = state.release(move.container_id)
        state.allocate(
            move.container_id,
            move.to_node,
            placed.allocation.resource,
            placed.allocation.tags,
            placed.allocation.app_id,
            long_running=placed.allocation.long_running,
        )

    def _violating_containers(
        self, state: ClusterState, manager: ConstraintManager
    ) -> list[tuple[float, str]]:
        """(extent, container_id) for every violating LRA container, worst
        first; a constraint value two applications hold counts twice."""
        out = []
        for placed in state.containers.values():
            if not placed.allocation.long_running:
                continue
            tags = placed.allocation.tags
            extent = 0.0
            for constraint in manager.constraints_applying_to(tags):
                ok, e = state.check_placement(
                    constraint, placed.node_id, tags, placed=True
                )
                if not ok:
                    extent += e
            if extent > 0:
                out.append((extent, placed.container_id))
        out.sort(reverse=True)
        return out

    def _best_single_move(
        self, state: ClusterState, manager: ConstraintManager
    ) -> Migration | None:
        """The highest-gain single migration, or None if nothing clears the
        migration cost."""
        for extent, container_id in self._violating_containers(state, manager):
            placed = state.container(container_id)
            tags = placed.allocation.tags
            resource = placed.allocation.resource
            relevant = manager.constraints_touching(tags)
            # Evaluate candidate nodes with the container *removed*, so its
            # own tags do not poison the hypothetical counts.
            removal = state.release(container_id)
            try:
                # One scoring pass over the fitting nodes and the origin;
                # the origin's entry is the delta of staying put.
                arrays = state.arrays
                origin = arrays.index_of[placed.node_id]
                fits = arrays.fit_mask(resource)
                fits[origin] = False
                fit = np.flatnonzero(fits)
                deltas = state.placement_deltas(relevant, np.append(fit, origin), tags)
                base_delta = float(deltas[-1])
                deltas = deltas[:-1]
                best_node, best_delta = None, base_delta
                # argmin: the first node in topology order among equal minima.
                if fit.size and deltas.min() < base_delta:
                    best = deltas.argmin()
                    best_node, best_delta = arrays.node_ids[fit[best]], float(deltas[best])
            finally:
                state.allocate(
                    container_id, placed.node_id, removal.allocation.resource,
                    removal.allocation.tags, removal.allocation.app_id,
                    long_running=removal.allocation.long_running,
                )
            if best_node is None:
                continue
            gain = base_delta - best_delta
            if gain > self.migration_cost:
                return Migration(container_id, placed.node_id, best_node, gain)
        return None
