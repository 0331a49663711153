"""The one binding to HiGHS, through SciPy's vendored ``_highspy`` module.

Two helpers hold everything that touches the bindings: :func:`load_highs`
loads a :class:`StandardForm` into one incremental HiGHS instance, and
:func:`run_highs` runs it and maps the outcome to a :class:`SolveStatus`.
The branch-and-bound solver next door solves its node LPs on such an
instance; :func:`solve_highs` is the production MILP backend on another,
and the independent reference the B&B core is cross-validated against.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.optimize._highspy import _core

from ..obs.events import EventKind
from ..obs.metrics import SolverStats
from ..obs.spans import span
from ..obs.trace import get_tracer
from .model import MilpModel, MilpSolution, Sense, SolveStatus
from .presolve import StandardForm, standard_form

__all__ = ["solve_highs", "HighsOptions", "load_highs", "run_highs"]

_MODEL = _core.HighsModelStatus
_STATUS = {
    _MODEL.kOptimal: SolveStatus.OPTIMAL,
    # No columns: the empty point is optimal (objective 0).
    _MODEL.kModelEmpty: SolveStatus.OPTIMAL,
    _MODEL.kInfeasible: SolveStatus.INFEASIBLE,
    _MODEL.kUnbounded: SolveStatus.UNBOUNDED,
}
_LIMITS = (_MODEL.kTimeLimit, _MODEL.kIterationLimit, _MODEL.kSolutionLimit)


def load_highs(form: StandardForm, integer: bool = False, **options) -> _core._Highs:
    """A HiGHS instance holding ``form``; ``integer`` keeps its integrality
    (a MIP), otherwise it is the LP relaxation.  ``options`` are HiGHS
    option values set before the model is passed.

    The model goes in through the array overload of ``passModel``, which
    reads the numpy buffers in place (column-wise matrix, minimisation, no
    objective offset; an LP passes every column as continuous), so each is
    made contiguous in the dtype HiGHS reads and checked for its length."""
    csc = form.a.tocsc()
    cols, rows = form.num_cols, form.num_rows
    columns = [np.ascontiguousarray(v, dtype=np.float64) for v in (form.c, form.col_lb, form.col_ub)]
    row_bounds = [np.ascontiguousarray(v, dtype=np.float64) for v in (form.row_lb, form.row_ub)]
    integrality = np.ascontiguousarray(
        form.integer_mask if integer else np.zeros(cols, dtype=bool), dtype=np.int32
    )
    lengths = [len(v) for v in (*columns, integrality, *row_bounds)]
    if lengths != [cols] * 4 + [rows] * 2 or csc.shape != (rows, cols):
        raise ValueError("standard form arrays disagree with its shape")
    highs = _core._Highs()
    for name, value in options.items():
        highs.setOptionValue(name, value)
    status = highs.passModel(
        cols, rows, csc.nnz, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize, 0.0,
        *columns, *row_bounds,
        np.ascontiguousarray(csc.indptr, dtype=np.int32),
        np.ascontiguousarray(csc.indices, dtype=np.int32),
        np.ascontiguousarray(csc.data, dtype=np.float64),
        integrality,
    )
    if status == _core.HighsStatus.kError:
        raise ValueError("HiGHS rejected the model")
    return highs


def run_highs(highs: _core._Highs) -> SolveStatus:
    """Run ``highs`` and map its model status.

    Presolve may report "infeasible or unbounded" without telling which;
    one run without presolve always can, after which presolve is restored.
    A time, iteration or solution limit counts as ``FEASIBLE`` when an
    incumbent exists; every other outcome is ``ERROR``.
    """
    highs.run()
    status = highs.getModelStatus()
    if status == _MODEL.kUnboundedOrInfeasible:
        highs.setOptionValue("presolve", "off")
        highs.run()
        status = highs.getModelStatus()
        highs.setOptionValue("presolve", "choose")
    if status in _LIMITS:
        found = math.isfinite(highs.getInfo().objective_function_value)
        return SolveStatus.FEASIBLE if found else SolveStatus.ERROR
    return _STATUS.get(status, SolveStatus.ERROR)


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


def solve_highs(model: MilpModel, options: HighsOptions | None = None) -> MilpSolution:
    """Solve with HiGHS's MIP solver; traced as a ``solver.highs`` span.

    HiGHS is a black box, so unlike :func:`solve_branch_and_bound` the span
    has no phase children — its self time is the whole solve.
    """
    with span("solver.highs"):
        return _solve_highs(model, options)


def _solve_highs(model: MilpModel, options: HighsOptions | None = None) -> MilpSolution:
    options = options or HighsOptions()
    start = time.perf_counter()
    form = standard_form(model)
    is_mip = bool(form.integer_mask.any())
    highs = load_highs(
        form,
        integer=is_mip,
        time_limit=options.time_limit_s,
        mip_rel_gap=options.mip_rel_gap,
        log_to_console=False,
    )
    status = run_highs(highs)
    info = highs.getInfo()
    stats = SolverStats(
        backend="highs",
        nodes_explored=max(0, info.mip_node_count),  # -1 for an LP
        time_total_s=time.perf_counter() - start,
    )
    if not status.has_solution():
        _trace_solve(status, stats)
        return MilpSolution(status, math.nan, (), stats.nodes_explored, stats)
    values = np.asarray(highs.getSolution().col_value, dtype=float)
    # Snap integer variables to exact integers to shield downstream code
    # from solver tolerance noise.
    values[form.integer_mask] = np.round(values[form.integer_mask])
    if is_mip:
        stats.gap = float(info.mip_gap)
    sign = -1.0 if model.sense is Sense.MAXIMIZE else 1.0
    objective = sign * float(info.objective_function_value)
    _trace_solve(status, stats)
    return MilpSolution(status, objective, tuple(values.tolist()), stats.nodes_explored, stats)
