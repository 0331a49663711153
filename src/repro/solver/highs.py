"""HiGHS backend: delegate a :class:`MilpModel` to ``scipy.optimize.milp``.

This is the production backend (fast, battle-tested); the branch-and-bound
solver next door provides an independent implementation for
cross-validation.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from ..obs.events import EventKind
from ..obs.metrics import SolverStats
from ..obs.spans import span
from ..obs.trace import get_tracer
from .model import MilpModel, MilpSolution, Sense, SolveStatus

__all__ = ["solve_highs", "HighsOptions"]


def _trace_solve(status: SolveStatus, stats: SolverStats) -> None:
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(
            EventKind.SOLVER_SOLVE,
            data={
                "backend": stats.backend,
                "status": status.value,
                "nodes_explored": stats.nodes_explored,
            },
            wall={"time_total_s": stats.time_total_s},
        )


class HighsOptions:
    """Options accepted by the HiGHS MILP backend."""

    def __init__(self, time_limit_s: float = 120.0, mip_rel_gap: float = 1e-6) -> None:
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap


_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ERROR,       # iteration/time limit without a solution
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_highs(model: MilpModel, options: HighsOptions | None = None) -> MilpSolution:
    """Solve via SciPy's HiGHS backend; traced as a ``solver.highs`` span.

    HiGHS is a black box, so unlike :func:`solve_branch_and_bound` the span
    has no phase children — its self time is the whole solve.
    """
    with span("solver.highs"):
        return _solve_highs(model, options)


def _solve_highs(model: MilpModel, options: HighsOptions | None = None) -> MilpSolution:
    options = options or HighsOptions()
    start = time.perf_counter()
    sign = -1.0 if model.sense is Sense.MAXIMIZE else 1.0
    c = sign * model.objective_vector()
    lower, upper = model.variable_bounds()
    integrality = model.integrality()
    constraints = []
    if model.num_constraints:
        matrix, lb, ub = model.constraint_matrix()
        constraints.append(LinearConstraint(matrix, lb, ub))
    result = milp(
        c=c,
        constraints=constraints,
        bounds=Bounds(lower, upper),
        integrality=integrality,
        options={
            "time_limit": options.time_limit_s,
            "mip_rel_gap": options.mip_rel_gap,
        },
    )
    stats = SolverStats(
        backend="highs",
        nodes_explored=int(getattr(result, "mip_node_count", 0) or 0),
        time_total_s=time.perf_counter() - start,
    )
    if result.x is None:
        status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
        if result.status == 4 and "unbounded" in (result.message or "").lower():
            # HiGHS presolve reports "infeasible or unbounded" without
            # telling which.  A zero-objective re-solve settles it: a
            # feasible rational MILP whose status is one of the two must
            # be unbounded.
            feas = milp(
                c=np.zeros_like(c),
                constraints=constraints,
                bounds=Bounds(lower, upper),
                integrality=integrality,
                options={"time_limit": options.time_limit_s},
            )
            if feas.status == 0:
                status = SolveStatus.UNBOUNDED
            elif feas.status == 2:
                status = SolveStatus.INFEASIBLE
        _trace_solve(status, stats)
        return MilpSolution(status, math.nan, (), stats.nodes_explored, stats)
    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    if status is SolveStatus.ERROR and result.x is not None:
        status = SolveStatus.FEASIBLE  # limit hit but incumbent available
    values = np.asarray(result.x, dtype=float)
    # Snap integer variables to exact integers to shield downstream code
    # from solver tolerance noise.
    integer = integrality == 1
    values[integer] = np.round(values[integer])
    if getattr(result, "mip_gap", None) is not None:
        stats.gap = float(result.mip_gap)
    objective = sign * float(result.fun)
    _trace_solve(status, stats)
    return MilpSolution(status, objective, tuple(values.tolist()), stats.nodes_explored, stats)
