"""Medea-ILP: the optimisation-based LRA scheduler (paper §5.2).

Wraps :class:`repro.core.ilp.IlpFormulation` — builds the MILP for the batch
of LRAs submitted during the last scheduling interval, solves it with the
configured backend, and decodes placements.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..obs.audit import PRUNE_CANDIDATE_POOL, CandidatePruned, DecisionAudit
from ..obs.metrics import SolverStats
from ..solver import BnBOptions, HighsOptions, MilpSolution, check_backend, solve
from ..solver.highs import check_limits
from .constraint_manager import ConstraintManager
from .ilp import IlpFormulation, IlpWeights
from .requests import LRARequest
from .scheduler import LRAScheduler, PlacementResult

__all__ = ["IlpScheduler"]


class IlpScheduler(LRAScheduler):
    """ILP-based batch placement with global objectives.

    Parameters
    ----------
    weights:
        Objective weights (defaults to the paper's w1=1, w2=0.5, w3=0.25).
    backend:
        ``"auto"`` (default): the from-scratch branch-and-bound solver
        first tries to *prove* the batch optimum (or infeasibility) within
        :data:`~repro.solver.CERTIFY_MAX_NODES` nodes at gap 1e-6, and only
        a batch it cannot prove goes to HiGHS, with ``mip_rel_gap`` and the
        rest of ``time_limit_s``.  ``"highs"`` and ``"bnb"`` run one solver
        alone; they are the references tests and ablations compare against.
    rmin:
        Fragmentation threshold of Eq. 5.
    time_limit_s:
        Solver time limit; if it is hit, the best incumbent is used.
    mip_rel_gap:
        Relative optimality gap at which the solver may stop early; batch
        placement rarely benefits from proving the last fraction of a
        percent, so sweeps use a few percent here.  Under ``"auto"`` it
        applies to the HiGHS stage only; under ``"bnb"`` it is the
        :class:`~repro.solver.BnBOptions` ``gap``.
    max_candidate_nodes:
        Optional pruning of the placement-variable space for large
        clusters: the MILP considers only a pool of roughly this many
        nodes, chosen to cover (a) nodes already hosting tags the batch's
        constraints refer to, (b) the emptiest racks taken whole (so rack
        affinity groups stay placeable), and (c) a stride sample across the
        cluster (so anti-affinity spreads stay placeable).  When the pooled
        solve rejects an app one of whose containers fits an available node
        outside the pool, the batch is re-solved once on the full node
        list.  ``None`` (the default) keeps the paper's full formulation.
    """

    name = "MEDEA-ILP"

    def __init__(
        self,
        weights: IlpWeights | None = None,
        *,
        backend: str = "auto",
        rmin: Resource = Resource(2048, 1),
        time_limit_s: float = 60.0,
        mip_rel_gap: float = 1e-6,
        max_candidate_nodes: int | None = None,
        audit: bool = False,
    ) -> None:
        check_backend(backend)
        check_limits(time_limit_s, mip_rel_gap)
        self.weights = weights or IlpWeights()
        self.backend = backend
        self.rmin = rmin
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        self.max_candidate_nodes = max_candidate_nodes
        self.audit_enabled = audit
        #: Diagnostics from the last invocation.
        self.last_formulation: IlpFormulation | None = None
        #: Solver effort breakdown from the last invocation.
        self.last_stats: SolverStats | None = None

    def place(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        now: float = 0.0,
    ) -> PlacementResult:
        if not requests:
            return PlacementResult()
        pool = self._candidate_pool(requests, state, manager)
        formulation, solution, result = self._solve(requests, state, manager, pool)
        if pool is not None and self._fits_outside(pool, requests, result, state):
            # A rejected app has a container that fits a node the pool left
            # out: re-solve once on the full node list, so pruning never
            # loses a placeable app.
            pool = None
            formulation, solution, result = self._solve(requests, state, manager, pool)
        if self.audit_enabled:
            result.audit = self._build_audit(
                requests, state, pool, formulation, solution, result
            )
        return result

    def _solve(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        pool: list[str] | None,
    ) -> tuple[IlpFormulation, MilpSolution, PlacementResult]:
        formulation = IlpFormulation(
            requests,
            state,
            manager,
            weights=self.weights,
            rmin=self.rmin,
            candidate_nodes=pool,
        )
        formulation.build()
        if self.backend == "bnb":
            options = BnBOptions(time_limit_s=self.time_limit_s, gap=self.mip_rel_gap)
        else:
            options = HighsOptions(
                time_limit_s=self.time_limit_s, mip_rel_gap=self.mip_rel_gap
            )
        solution = solve(formulation.model, backend=self.backend, options=options)
        self.last_formulation = formulation
        self.last_stats = solution.stats
        result = formulation.extract(solution)
        return formulation, solution, result

    @staticmethod
    def _fits_outside(
        pool: list[str],
        requests: Sequence[LRARequest],
        result: PlacementResult,
        state: ClusterState,
    ) -> bool:
        """Whether some container of a rejected app fits an available node
        outside ``pool``."""
        arrays = state.arrays
        outside = np.ones(len(arrays.node_ids), dtype=bool)
        outside[[arrays.index_of[node_id] for node_id in pool]] = False
        rejected = set(result.rejected_apps)
        return any(
            (arrays.fit_mask(container.resource) & outside).any()
            for request in requests
            if request.app_id in rejected
            for container in request.containers
        )

    def _build_audit(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        pool: list[str] | None,
        formulation: IlpFormulation,
        solution: MilpSolution,
        result: PlacementResult,
    ) -> DecisionAudit:
        """Explain the batch solve: candidate-pool pruning, the weighted
        objective, and the per-container node assignments."""
        audit = DecisionAudit(self.name)
        considered = len(formulation.nodes)
        audit.objective_terms = {
            "objective": float(result.objective or 0.0),
            "w1_placement": self.weights.w1_placement,
            "w2_violations": self.weights.w2_violations,
            "w3_fragmentation": self.weights.w3_fragmentation,
            "w4_machines": self.weights.w4_machines,
            "candidate_pool": float(considered),
            "milp_variables": float(formulation.model.num_variables),
            "milp_constraints": float(formulation.model.num_constraints),
            "mip_gap": solution.stats.gap,
        }
        pooled_out: list[CandidatePruned] = []
        if pool is not None:
            in_pool = set(pool)
            pooled_out = [
                CandidatePruned(node_id, PRUNE_CANDIDATE_POOL)
                for node_id in state.arrays.node_ids
                if node_id not in in_pool
            ]
        placed_node = {p.container_id: p.node_id for p in result.placements}
        for request in requests:
            for container in request.containers:
                decision = audit.new_decision(request.app_id, container.container_id)
                decision.considered = considered + len(pooled_out)
                decision.feasible = considered
                decision.pruned = list(pooled_out)
                decision.chosen_node = placed_node.get(container.container_id)
                if decision.chosen_node is not None and result.objective is not None:
                    decision.score_terms = {"objective": float(result.objective)}
        return audit

    def _candidate_pool(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
    ) -> list[str] | None:
        if self.max_candidate_nodes is None:
            return None
        limit = self.max_candidate_nodes
        arrays = state.arrays
        rows = np.flatnonzero(arrays.room_mask()).tolist()
        nodes = [arrays.node_ids[i] for i in rows]
        if len(nodes) <= limit:
            return nodes

        # (a) Emptiest racks, taken whole, so rack-affinity groups fit.
        rack_free: dict[str, int] = {}
        rack_members: dict[str, list[str]] = {}
        for i, node_id in zip(rows, nodes):
            rack = state.topology.node(node_id).rack
            rack_free[rack] = rack_free.get(rack, 0) + int(arrays.free_mem[i])
            rack_members.setdefault(rack, []).append(node_id)
        pool: list[str] = []
        seen: set[str] = set()

        def push(node_id: str) -> None:
            if node_id not in seen:
                seen.add(node_id)
                pool.append(node_id)

        for rack in sorted(rack_free, key=rack_free.get, reverse=True):
            for node_id in rack_members[rack]:
                push(node_id)
            if len(pool) >= limit:
                break

        # (b) Nodes hosting tags the batch's constraints target (bounded so
        # they cannot crowd out the rack pool).
        target_tags: set[str] = set()
        constraints = list(manager.active_constraints())
        for request in requests:
            constraints.extend(request.all_simple_constraints())
        for constraint in constraints:
            for tc in constraint.tag_constraints:
                target_tags.update(tc.c_tag.tags)
        extra_budget = max(4, limit // 4)
        added = 0
        # The candidate index answers "which nodes host these tags" without
        # scanning every node's tag multiset; iteration stays over ``nodes``
        # (topology order) so the pool is unchanged.
        tagged = state.candidate_index().nodes_with_any_tag(
            target_tags, dynamic_only=True
        )
        for node_id in nodes:
            if added >= extra_budget:
                break
            if node_id in tagged and node_id not in seen:
                push(node_id)
                added += 1

        # (c) Stride sample for spread (anti-affinity) headroom.
        stride = max(1, len(nodes) // max(1, limit // 4))
        for node_id in nodes[::stride]:
            push(node_id)
        return pool
