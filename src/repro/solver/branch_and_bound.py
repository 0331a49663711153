"""From-scratch branch-and-bound MILP solver (hot-path edition).

The paper's implementation calls CPLEX; we substitute an exact solver built
on HiGHS LP relaxations with best-first branch-and-bound.  The search core
is tuned for the Medea placement models while staying exact within
tolerances, which lets tests cross-validate the HiGHS MILP backend and vice
versa.  Every technique below always runs:

* an exact presolve (:mod:`repro.solver.presolve`) shrinks the model before
  the search — bound tightening, fixed-column substitution, redundant-row
  removal;
* node LPs are **warm started**: the reduced model is loaded into one
  incremental HiGHS instance once per solve, and each node only swaps the
  variable-bound array in place, so dual simplex restarts from the previous
  node's basis instead of refactorizing from scratch;
* branching uses pseudocosts with a reliability fallback: variables whose
  pseudocost history is too thin are scored with the average pseudocost,
  which degrades gracefully to most-fractional branching when no history
  exists yet;
* a rounding-based primal heuristic tries to turn every LP solution into an
  incumbent, tightening the cutoff early;
* the search plunges into the child the LP solution leans toward while that
  child is strictly the best-bound node.

Internally everything is converted to *minimisation*; results are reported
back in the model's declared sense.  A :class:`~repro.obs.metrics.SolverStats`
record (nodes, LP solves, presolve reductions, per-phase wall time) is
attached to every returned solution.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from ..obs.events import EventKind
from ..obs.metrics import SolverStats
from ..obs.spans import span, span_phase
from ..obs.trace import get_tracer
from .highs import load_highs, run_highs
from .model import MilpModel, MilpSolution, Sense, SolveStatus
from .presolve import StandardForm, presolve, standard_form

__all__ = ["solve_branch_and_bound", "BnBOptions"]

_INT_TOL = 1e-6
_FEAS_TOL = 1e-7
#: Branchings per direction before a variable's own pseudocost is trusted
#: over the global average.
_RELIABILITY = 2
#: Maximum depth-first plunge length: after branching, the child on the LP
#: solution's side is explored immediately — but only while it is
#: *strictly* the best-bound node overall, so search order degrades to pure
#: best-first on models with flat LP bounds (like the Medea placement
#: MILPs, whose relaxations are highly degenerate).  Diving keeps
#: consecutive LPs one bound change apart, which is where the warm-started
#: basis pays most.
_PLUNGE_DEPTH = 512


@dataclass(frozen=True)
class BnBOptions:
    """Termination limits of the branch-and-bound solver."""

    max_nodes: int = 200_000
    time_limit_s: float = 120.0
    #: Stop when the relative optimality gap falls below this value.
    gap: float = 1e-6


class _Node:
    __slots__ = ("bound", "lower", "upper", "branch_var", "branch_dir", "frac_dist")

    def __init__(self, bound, lower, upper, branch_var=-1, branch_dir=0, frac_dist=0.0):
        self.bound = bound
        self.lower = lower
        self.upper = upper
        self.branch_var = branch_var       # reduced-space column, -1 at root
        self.branch_dir = branch_dir       # -1 down, +1 up
        self.frac_dist = frac_dist         # fractional distance of the branch


class _LpResult:
    """Node LP outcome; ``fun`` and ``x`` are set only when ``OPTIMAL``."""

    __slots__ = ("status", "fun", "x")

    def __init__(
        self, status: SolveStatus, fun: float = math.nan, x: np.ndarray | None = None
    ) -> None:
        self.status = status
        self.fun = fun
        self.x = x


class _LpContext:
    """Per-solve cache of everything node LPs share, plus warm starts.

    The constraint matrix is passed to one incremental HiGHS instance
    exactly once; a node solve then only changes the column bounds that
    differ from the previous solve's and re-runs, so HiGHS restarts dual
    simplex from the previous node's basis (typically a handful of
    iterations instead of a cold factorization).  Positive/negative splits
    of the range matrix support the LP-free activity check of the rounding
    heuristic.
    """

    def __init__(self, form: StandardForm) -> None:
        self.form = form
        self.c = form.c
        a = form.a.tocsr()
        self.a_pos = a.maximum(0).tocsr()
        self.a_neg = a.minimum(0).tocsr()
        self.lp_solves = 0
        self.lp_time = 0.0
        self._highs = load_highs(form, output_flag=False)
        #: The column bounds the HiGHS instance holds.
        self._lower = np.array(form.col_lb, dtype=float)
        self._upper = np.array(form.col_ub, dtype=float)

    def solve(self, lower: np.ndarray, upper: np.ndarray) -> _LpResult:
        start = time.perf_counter()
        highs = self._highs
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        # HiGHS's cost grows with the columns passed, so only bounds that
        # differ from the previous solve's go in.
        changed = np.flatnonzero((lower != self._lower) | (upper != self._upper))
        highs.changeColsBounds(
            changed.size, changed.astype(np.int32), lower[changed], upper[changed]
        )
        self._lower[changed] = lower[changed]
        self._upper[changed] = upper[changed]
        status = run_highs(highs)
        if status is SolveStatus.OPTIMAL:
            x = np.asarray(highs.getSolution().col_value, dtype=float)
            result = _LpResult(status, highs.getInfo().objective_function_value, x)
        else:
            result = _LpResult(status)
        self.lp_time += time.perf_counter() - start
        self.lp_solves += 1
        return result

    def provably_infeasible(self, lower: np.ndarray, upper: np.ndarray) -> bool:
        """Activity-based infeasibility check: two mat-vecs, no LP."""
        with np.errstate(invalid="ignore"):
            min_act = self.a_pos @ lower + self.a_neg @ upper
            max_act = self.a_pos @ upper + self.a_neg @ lower
        min_act = np.nan_to_num(min_act, nan=-np.inf)
        max_act = np.nan_to_num(max_act, nan=np.inf)
        return bool(
            np.any(min_act > self.form.row_ub + _FEAS_TOL)
            or np.any(max_act < self.form.row_lb - _FEAS_TOL)
        )

    def point_feasible(self, x: np.ndarray) -> bool:
        activity = self.form.a @ x
        return bool(
            np.all(activity >= self.form.row_lb - _FEAS_TOL)
            and np.all(activity <= self.form.row_ub + _FEAS_TOL)
        )


class _Pseudocosts:
    """Per-variable objective-degradation estimates for branching.

    ``update`` records (gain / fractional distance) whenever a child LP is
    solved.  ``select`` combines the up and down estimates with the product
    rule; columns whose history is thinner than :data:`_RELIABILITY` use
    the global average pseudocost instead, so with no history at all the
    score is proportional to ``f·(1-f)`` — i.e. most-fractional branching.
    """

    def __init__(self, n: int) -> None:
        self.sum_up = np.zeros(n)
        self.cnt_up = np.zeros(n, dtype=int)
        self.sum_dn = np.zeros(n)
        self.cnt_dn = np.zeros(n, dtype=int)

    def update(self, var: int, direction: int, gain_per_unit: float) -> None:
        if direction > 0:
            self.sum_up[var] += gain_per_unit
            self.cnt_up[var] += 1
        else:
            self.sum_dn[var] += gain_per_unit
            self.cnt_dn[var] += 1

    def select(self, values: np.ndarray, int_cols: np.ndarray) -> int:
        """Reduced-space column to branch on (best candidate by the product
        rule over up/down estimates), or -1 when ``values`` is integral."""
        vals = values[int_cols]
        candidates = int_cols[np.abs(vals - np.round(vals)) > _INT_TOL]
        if candidates.size == 0:
            return -1
        frac = values[candidates] - np.floor(values[candidates])
        total_cnt = self.cnt_up.sum() + self.cnt_dn.sum()
        avg = (
            (self.sum_up.sum() + self.sum_dn.sum()) / total_cnt
            if total_cnt
            else 1.0
        )
        avg = max(avg, 1e-6)
        cnt_up = self.cnt_up[candidates]
        cnt_dn = self.cnt_dn[candidates]
        est_up = np.where(
            cnt_up >= _RELIABILITY,
            self.sum_up[candidates] / np.maximum(cnt_up, 1),
            avg,
        )
        est_dn = np.where(
            cnt_dn >= _RELIABILITY,
            self.sum_dn[candidates] / np.maximum(cnt_dn, 1),
            avg,
        )
        score = np.maximum(est_up * (1.0 - frac), 1e-9) * np.maximum(
            est_dn * frac, 1e-9
        )
        # Early in the search most scores collapse to the same average-based
        # value; break those ties by fractionality instead of column order.
        best = score.max()
        near = score >= best * 0.9
        tie_break = np.where(near, frac * (1.0 - frac), -1.0)
        return int(candidates[np.argmax(tie_break)])


def _solution(
    status: SolveStatus,
    objective: float,
    values: tuple[float, ...],
    stats: SolverStats,
    start: float,
) -> MilpSolution:
    stats.time_total_s = time.perf_counter() - start
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(
            EventKind.SOLVER_SOLVE,
            data={
                "backend": stats.backend,
                "status": status.value,
                "nodes_explored": stats.nodes_explored,
                "lp_solves": stats.lp_solves,
                "heuristic_incumbents": stats.heuristic_incumbents,
            },
            wall={
                "time_total_s": stats.time_total_s,
                "time_presolve_s": stats.time_presolve_s,
                "time_lp_s": stats.time_lp_s,
                "time_heuristic_s": stats.time_heuristic_s,
            },
        )
    return MilpSolution(status, objective, values, stats.nodes_explored, stats)


def solve_branch_and_bound(
    model: MilpModel, options: BnBOptions | None = None
) -> MilpSolution:
    """Solve ``model`` exactly (within tolerances) by branch-and-bound.

    When tracing is on, the solve runs inside a ``solver.bnb`` span with
    synthetic ``presolve`` / ``lp`` / ``heuristic`` child phases taken from
    the solve's :class:`SolverStats` — the span's *self* time is therefore
    the branching/search remainder.  Per-node LPs are far too hot for real
    child spans; the aggregated phases keep the trace bounded.
    """
    if not get_tracer().enabled:
        return _solve_bnb(model, options)
    with span("solver.bnb"):
        solution = _solve_bnb(model, options)
        stats = solution.stats
        if stats is not None:
            span_phase("presolve", stats.time_presolve_s)
            span_phase("lp", stats.time_lp_s, count=max(1, stats.lp_solves))
            span_phase("heuristic", stats.time_heuristic_s)
    return solution


def _solve_bnb(
    model: MilpModel, options: BnBOptions | None = None
) -> MilpSolution:
    options = options or BnBOptions()
    start = time.perf_counter()
    stats = SolverStats(backend="bnb")
    sign = -1.0 if model.sense is Sense.MAXIMIZE else 1.0

    form = standard_form(model)
    t0 = time.perf_counter()
    reduction = presolve(form)
    stats.time_presolve_s = time.perf_counter() - t0
    stats.presolve_rows_removed = reduction.rows_removed
    stats.presolve_cols_fixed = reduction.cols_fixed
    stats.presolve_bounds_tightened = reduction.bounds_tightened
    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(
            EventKind.SOLVER_PRESOLVE,
            data={
                "rows_removed": reduction.rows_removed,
                "cols_fixed": reduction.cols_fixed,
                "bounds_tightened": reduction.bounds_tightened,
                "cols_before": form.num_cols,
                "infeasible": reduction.status is SolveStatus.INFEASIBLE,
            },
            wall={"time_presolve_s": stats.time_presolve_s},
        )
    if reduction.status is SolveStatus.INFEASIBLE:
        return _solution(SolveStatus.INFEASIBLE, math.nan, (), stats, start)
    form = reduction.form

    def lift(x_reduced: np.ndarray) -> tuple[float, ...]:
        return tuple(reduction.postsolve(x_reduced).tolist())

    # Everything eliminated: the fixed values are the solution (presolve
    # already proved the remaining rows feasible).
    if form.num_cols == 0:
        values = lift(np.zeros(0))
        objective = sign * form.c0
        return _solution(SolveStatus.OPTIMAL, objective, values, stats, start)

    ctx = _LpContext(form)
    int_mask = form.integer_mask
    int_cols = np.nonzero(int_mask)[0]
    root_lower = form.col_lb.copy()
    root_upper = form.col_ub.copy()

    deadline = start + options.time_limit_s
    counter = itertools.count()  # heap tiebreaker

    root = ctx.solve(root_lower, root_upper)
    if root.status is not SolveStatus.OPTIMAL:
        stats.lp_solves, stats.time_lp_s = ctx.lp_solves, ctx.lp_time
        return _solution(root.status, math.nan, (), stats, start)

    incumbent: np.ndarray | None = None
    incumbent_obj = math.inf  # reduced minimisation sense (excludes c0)
    pseudocosts = _Pseudocosts(form.num_cols)

    def cutoff() -> float:
        if incumbent is None:
            return math.inf
        full = incumbent_obj + form.c0
        return incumbent_obj - abs(full) * options.gap - 1e-12

    has_continuous = int_cols.size < form.num_cols
    tried_roundings: set[bytes] = set()

    def try_rounding(values: np.ndarray) -> None:
        """Round the LP point to the integer lattice; adopt if feasible.

        Pure-integer models get a direct feasibility check.  Mixed models
        additionally re-optimise the continuous columns with the rounded
        integers fixed (a one-LP "completion"; counted under the LP phase),
        gated on the LP point being nearly integral so the extra solves
        stay rare.
        """
        nonlocal incumbent, incumbent_obj
        t0 = time.perf_counter()
        candidate = np.where(int_mask, np.round(values), values)
        np.clip(candidate, root_lower, root_upper, out=candidate)
        frac = np.abs(candidate[int_cols] - np.round(candidate[int_cols]))
        if np.any(frac > _INT_TOL):
            # Clipping against fractional bounds broke integrality.
            stats.time_heuristic_s += time.perf_counter() - t0
            return
        key = candidate[int_cols].tobytes()
        if key in tried_roundings:
            stats.time_heuristic_s += time.perf_counter() - t0
            return
        tried_roundings.add(key)
        if not has_continuous:
            obj = float(ctx.c @ candidate)
            if obj < incumbent_obj - 1e-12 and ctx.point_feasible(candidate):
                incumbent = candidate
                incumbent_obj = obj
                stats.heuristic_incumbents += 1
            stats.time_heuristic_s += time.perf_counter() - t0
            return
        # Mixed-integer: the LP's continuous values were optimal for the
        # *fractional* integers, so re-complete them.  Only worth an LP
        # when the point is nearly integral.
        lp_frac = np.abs(values[int_cols] - np.round(values[int_cols]))
        n_frac = int(np.count_nonzero(lp_frac > _INT_TOL))
        if n_frac > max(8, int_cols.size // 5):
            stats.time_heuristic_s += time.perf_counter() - t0
            return
        fixed_lower = root_lower.copy()
        fixed_upper = root_upper.copy()
        fixed_lower[int_cols] = candidate[int_cols]
        fixed_upper[int_cols] = candidate[int_cols]
        if ctx.provably_infeasible(fixed_lower, fixed_upper):
            # The rounded integers leave some row unreachable even with the
            # continuous columns free — skip the completion LP.
            stats.time_heuristic_s += time.perf_counter() - t0
            return
        lp_before = ctx.lp_time
        completion = ctx.solve(fixed_lower, fixed_upper)
        if (
            completion.status is SolveStatus.OPTIMAL
            and completion.fun < incumbent_obj - 1e-12
        ):
            incumbent = np.where(int_mask, np.round(completion.x), completion.x)
            incumbent_obj = completion.fun
            stats.heuristic_incumbents += 1
        # The completion LP's time is booked under the LP phase; the
        # heuristic phase keeps only the rounding overhead.  Clamped: timer
        # resolution can make the LP-time delta exceed the outer elapsed
        # time, and a negative phase would break the ≤ time_total_s
        # invariant the phase accounting promises.
        stats.time_heuristic_s += max(
            0.0, (time.perf_counter() - t0) - (ctx.lp_time - lp_before)
        )

    # The root goes on the heap and is solved a second time when popped.
    # That solve decides placements and must stay: reusing ``root`` gives
    # the same ``x``, but it leaves HiGHS in another warm-start state for
    # the child solves that follow, and ``lra_ilp``'s placements moved.
    heap: list[tuple[float, int, _Node]] = []
    heapq.heappush(
        heap, (root.fun, next(counter), _Node(root.fun, root_lower, root_upper))
    )
    proven_optimal = True
    #: Lowest bound among nodes dropped by the gap cutoff (for stats.gap).
    cut_bound = math.inf
    dive_node: _Node | None = None
    dive_depth = 0

    while heap or dive_node is not None:
        if stats.nodes_explored >= options.max_nodes or time.perf_counter() > deadline:
            proven_optimal = False
            break
        if dive_node is not None:
            node, dive_node = dive_node, None
            bound = node.bound
        else:
            bound, _, node = heapq.heappop(heap)
            dive_depth = 0
        if bound >= cutoff():
            cut_bound = min(cut_bound, bound)
            continue  # cannot beat the incumbent
        result = ctx.solve(node.lower, node.upper)
        stats.nodes_explored += 1
        if result.status is not SolveStatus.OPTIMAL:
            continue  # infeasible subproblem (or numerical failure): prune
        if node.branch_var >= 0 and node.frac_dist > _INT_TOL:
            gain = max(0.0, result.fun - node.bound)
            pseudocosts.update(node.branch_var, node.branch_dir, gain / node.frac_dist)
        if result.fun >= cutoff() or (
            incumbent is not None and result.fun >= incumbent_obj - 1e-12
        ):
            cut_bound = min(cut_bound, result.fun)
            continue
        branch_var = pseudocosts.select(result.x, int_cols)
        if branch_var < 0:
            # Integral solution: new incumbent.
            incumbent = np.where(int_mask, np.round(result.x), result.x)
            incumbent_obj = result.fun
            continue
        try_rounding(result.x)
        if result.fun >= cutoff():
            cut_bound = min(cut_bound, result.fun)
            continue  # the heuristic may have closed the gap
        value = result.x[branch_var]
        floor_val, ceil_val = math.floor(value), math.ceil(value)
        down_child = up_child = None
        # Down branch: x <= floor.
        if node.lower[branch_var] <= floor_val:
            down_upper = node.upper.copy()
            down_upper[branch_var] = floor_val
            down_child = _Node(result.fun, node.lower, down_upper,
                               branch_var, -1, value - floor_val)
        # Up branch: x >= ceil.
        if ceil_val <= node.upper[branch_var]:
            up_lower = node.lower.copy()
            up_lower[branch_var] = ceil_val
            up_child = _Node(result.fun, up_lower, node.upper,
                             branch_var, +1, ceil_val - value)
        # Plunge: keep diving on the child the LP solution leans toward —
        # but only while that child is still the best-bound node overall
        # (otherwise it would not have been popped next anyway, and diving
        # past better nodes inflates the tree).  Everything else goes to
        # the best-first heap in deterministic (down, up) order.
        preferred = (
            up_child if value - floor_val > 0.5 else down_child
        ) or down_child or up_child
        if (
            preferred is not None
            and dive_depth < _PLUNGE_DEPTH
            and (not heap or preferred.bound < heap[0][0] - 1e-9)
        ):
            dive_node = preferred
            dive_depth += 1
        for child in (down_child, up_child):
            if child is not None and child is not dive_node:
                heapq.heappush(heap, (child.bound, next(counter), child))

    stats.lp_solves, stats.time_lp_s = ctx.lp_solves, ctx.lp_time

    if incumbent is None:
        if proven_optimal:
            return _solution(SolveStatus.INFEASIBLE, math.nan, (), stats, start)
        return _solution(SolveStatus.ERROR, math.nan, (), stats, start)

    best_bound = min(
        [incumbent_obj, cut_bound, *(entry[0] for entry in heap)]
        + ([dive_node.bound] if dive_node is not None else [])
    )
    stats.gap = (incumbent_obj - best_bound) / max(abs(incumbent_obj + form.c0), 1e-9)
    objective = sign * (incumbent_obj + form.c0)
    status = SolveStatus.OPTIMAL if proven_optimal else SolveStatus.FEASIBLE
    return _solution(status, objective, lift(incumbent), stats, start)
