"""Exact presolve for the branch-and-bound MILP core.

Operates on a :class:`StandardForm` — the dense-objective / sparse-range-
constraint snapshot of a :class:`~repro.solver.model.MilpModel` — and
applies only *exact* reductions, so the reduced problem has the same
optimal objective as the original and every reduced solution maps back to
an original one via :meth:`PresolveResult.postsolve`:

* integer bound rounding (fractional bounds on integer columns snap
  inward);
* singleton rows folded into variable bounds and removed;
* fixed columns (``lb == ub``) substituted into the rows and the
  objective constant;
* redundant rows (activity range provably inside the row bounds) removed;
* activity-based bound tightening, which also detects infeasibility when
  a row's minimum activity exceeds its upper bound (or vice versa).

The passes loop to a fixpoint: folding a singleton row can fix a column,
which can make another row redundant, and so on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CsrMatrix, MilpModel, Sense, SolveStatus

__all__ = ["StandardForm", "PresolveResult", "presolve", "standard_form"]

_FEAS_TOL = 1e-7
#: Minimum improvement for a bound change to count (avoids float churn).
_TIGHTEN_TOL = 1e-9
_MAX_ROUNDS = 10


@dataclass
class StandardForm:
    """Minimisation-sense MILP: ``min c·x + c0`` s.t.
    ``row_lb <= A x <= row_ub``, ``col_lb <= x <= col_ub``, integrality
    per ``integer_mask``."""

    c: np.ndarray
    c0: float
    a: CsrMatrix
    row_lb: np.ndarray
    row_ub: np.ndarray
    col_lb: np.ndarray
    col_ub: np.ndarray
    integer_mask: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.a.shape[0]

    @property
    def num_cols(self) -> int:
        return len(self.c)


def standard_form(model: MilpModel) -> StandardForm:
    """Snapshot ``model`` into minimisation-sense arrays (sign-flipping a
    maximisation objective)."""
    sign = -1.0 if model.sense is Sense.MAXIMIZE else 1.0
    matrix, row_lb, row_ub = model.constraint_matrix()
    col_lb, col_ub = model.variable_bounds()
    return StandardForm(
        c=sign * model.objective_vector(),
        c0=0.0,
        a=matrix,
        row_lb=np.asarray(row_lb, dtype=float),
        row_ub=np.asarray(row_ub, dtype=float),
        col_lb=np.asarray(col_lb, dtype=float),
        col_ub=np.asarray(col_ub, dtype=float),
        integer_mask=model.integrality().astype(bool),
    )


@dataclass
class PresolveResult:
    """Reduced problem plus the bookkeeping to undo the reduction."""

    #: ``SolveStatus.INFEASIBLE`` when presolve proved infeasibility,
    #: else ``None`` (the reduced problem still needs solving).
    status: SolveStatus | None
    form: StandardForm
    #: Original column index of each reduced column.
    kept_cols: np.ndarray
    #: Full-length vector holding the value of every eliminated column.
    fixed_values: np.ndarray
    rows_removed: int = 0
    cols_fixed: int = 0
    bounds_tightened: int = 0
    rounds: int = 0

    def postsolve(self, x_reduced: np.ndarray) -> np.ndarray:
        """Lift a reduced-space solution back to the original variables."""
        x = self.fixed_values.copy()
        x[self.kept_cols] = x_reduced
        return x


def presolve(form: StandardForm) -> PresolveResult:
    """Apply exact reductions to ``form``; never mutates the input."""
    n = form.num_cols
    m = form.num_rows
    c = form.c.copy()
    c0 = form.c0
    a = form.a
    row_lb, row_ub = form.row_lb.copy(), form.row_ub.copy()
    col_lb, col_ub = form.col_lb.copy(), form.col_ub.copy()
    integer = form.integer_mask.copy()

    row_active = np.ones(m, dtype=bool)
    col_active = np.ones(n, dtype=bool)
    fixed_values = np.zeros(n)
    rows_removed = cols_fixed = bounds_tightened = rounds = 0
    infeasible = False

    # Static structure of ``a`` (never modified; activity masks do the
    # bookkeeping), flattened for vectorized per-entry passes.
    data = a.data
    col_ids = a.indices
    row_ids = a.row_ids()

    def round_integer_bounds() -> bool:
        nonlocal bounds_tightened, infeasible
        active_int = col_active & integer
        new_lo = np.ceil(col_lb - _FEAS_TOL)
        new_hi = np.floor(col_ub + _FEAS_TOL)
        raise_lo = active_int & np.isfinite(col_lb) & (new_lo > col_lb + _TIGHTEN_TOL)
        drop_hi = active_int & np.isfinite(col_ub) & (new_hi < col_ub - _TIGHTEN_TOL)
        col_lb[raise_lo] = new_lo[raise_lo]
        col_ub[drop_hi] = new_hi[drop_hi]
        tightened = int(raise_lo.sum()) + int(drop_hi.sum())
        bounds_tightened += tightened
        if np.any(col_active & (col_lb > col_ub + _FEAS_TOL)):
            infeasible = True
        return tightened > 0

    def tighten_col(j: int, lo: float | None, hi: float | None) -> bool:
        """Apply an implied bound to column ``j``; True when it improved."""
        nonlocal bounds_tightened, infeasible
        changed = False
        if lo is not None and lo > col_lb[j] + _TIGHTEN_TOL:
            col_lb[j] = math.ceil(lo - _FEAS_TOL) if integer[j] else lo
            bounds_tightened += 1
            changed = True
        if hi is not None and hi < col_ub[j] - _TIGHTEN_TOL:
            col_ub[j] = math.floor(hi + _FEAS_TOL) if integer[j] else hi
            bounds_tightened += 1
            changed = True
        if col_lb[j] > col_ub[j] + _FEAS_TOL:
            infeasible = True
        return changed

    def fold_singleton_rows() -> bool:
        nonlocal rows_removed
        changed = False
        mask = row_active[row_ids] & col_active[col_ids] & (data != 0.0)
        counts = np.bincount(row_ids[mask], minlength=m)
        for i in np.nonzero(row_active & (counts == 1))[0]:
            for p in range(a.indptr[i], a.indptr[i + 1]):
                j = col_ids[p]
                coeff = data[p]
                if not col_active[j] or coeff == 0.0:
                    continue
                lo, hi = row_lb[i], row_ub[i]
                if coeff > 0:
                    implied_lo = lo / coeff if not math.isinf(lo) else None
                    implied_hi = hi / coeff if not math.isinf(hi) else None
                else:
                    implied_lo = hi / coeff if not math.isinf(hi) else None
                    implied_hi = lo / coeff if not math.isinf(lo) else None
                tighten_col(j, implied_lo, implied_hi)
                break
            row_active[i] = False
            rows_removed += 1
            changed = True
            if infeasible:
                return changed
        return changed

    def substitute_fixed_cols() -> bool:
        nonlocal cols_fixed, c0
        fix = col_active & (col_ub - col_lb <= _FEAS_TOL)
        if not fix.any():
            return False
        values = np.where(integer, np.round(col_lb), 0.5 * (col_lb + col_ub))
        fixed_values[fix] = values[fix]
        c0 += float(c[fix] @ values[fix])
        # One mat-vec shifts every row's bounds by the fixed contribution.
        v = np.zeros(n)
        v[fix] = values[fix]
        shift = a @ v
        finite_lo = np.isfinite(row_lb)
        finite_hi = np.isfinite(row_ub)
        row_lb[finite_lo] -= shift[finite_lo]
        row_ub[finite_hi] -= shift[finite_hi]
        col_active[fix] = False
        cols_fixed += int(fix.sum())
        return True

    def sweep_rows() -> bool:
        """Redundancy removal + activity-based bound tightening.

        Vectorized over the flattened nonzero entries: per-entry min/max
        contributions, per-row activity sums via ``bincount``, then implied
        column bounds aggregated with ``maximum.at``/``minimum.at``.  All
        implications come from the bound snapshot at sweep start; stale
        (looser) activities only weaken implied bounds, never falsify them,
        and the fixpoint loop picks up what a sequential sweep would have
        caught in-pass.
        """
        nonlocal rows_removed, infeasible, bounds_tightened
        changed = False
        eact = row_active[row_ids] & col_active[col_ids] & (data != 0.0)
        d = np.where(eact, data, 0.0)
        lbv = col_lb[col_ids]
        ubv = col_ub[col_ids]
        pos = d > 0
        neg = d < 0
        with np.errstate(invalid="ignore"):
            cmin = np.where(pos, d * lbv, np.where(neg, d * ubv, 0.0))
            cmax = np.where(pos, d * ubv, np.where(neg, d * lbv, 0.0))
            min_act = np.bincount(row_ids, weights=cmin, minlength=m)
            max_act = np.bincount(row_ids, weights=cmax, minlength=m)
        counts = np.bincount(row_ids[eact], minlength=m)
        # Empty active rows: feasible iff 0 lies inside the range.
        empty = row_active & (counts == 0)
        if empty.any():
            if np.any(empty & ((row_lb > _FEAS_TOL) | (row_ub < -_FEAS_TOL))):
                infeasible = True
                return changed
            row_active[empty] = False
            rows_removed += int(empty.sum())
            changed = True
        live = row_active & (counts > 0)
        # NaN activities (mixed ±inf contributions) compare False
        # everywhere, so they neither prove infeasibility nor redundancy.
        if np.any(live & ((min_act > row_ub + _FEAS_TOL) | (max_act < row_lb - _FEAS_TOL))):
            infeasible = True
            return changed
        redundant = live & (min_act >= row_lb - _FEAS_TOL) & (max_act <= row_ub + _FEAS_TOL)
        if redundant.any():
            row_active[redundant] = False
            rows_removed += int(redundant.sum())
            changed = True
        # Bound tightening from residual activity (row minus the entry's
        # own contribution; only defined when that contribution is finite).
        idx = np.nonzero(eact & row_active[row_ids])[0]
        if idx.size == 0:
            return changed
        de = data[idx]
        rj = row_ids[idx]
        cj = col_ids[idx]
        with np.errstate(invalid="ignore"):
            min_wo = np.where(np.isfinite(cmin[idx]), min_act[rj] - cmin[idx], min_act[rj])
            max_wo = np.where(np.isfinite(cmax[idx]), max_act[rj] - cmax[idx], max_act[rj])
        lo_r = row_lb[rj]
        hi_r = row_ub[rj]
        with np.errstate(invalid="ignore", divide="ignore"):
            res_hi = (hi_r - min_wo) / de
            res_lo = (lo_r - max_wo) / de
        valid_hi = np.isfinite(hi_r) & np.isfinite(min_wo)
        valid_lo = np.isfinite(lo_r) & np.isfinite(max_wo)
        pos_e = de > 0
        imp_hi = np.full(idx.size, np.inf)
        imp_lo = np.full(idx.size, -np.inf)
        take = valid_hi & pos_e
        imp_hi[take] = res_hi[take]
        take = valid_hi & ~pos_e
        imp_lo[take] = res_hi[take]
        take = valid_lo & pos_e
        imp_lo[take] = np.maximum(imp_lo[take], res_lo[take])
        take = valid_lo & ~pos_e
        imp_hi[take] = np.minimum(imp_hi[take], res_lo[take])
        imp_lo = np.where(np.isnan(imp_lo), -np.inf, imp_lo)
        imp_hi = np.where(np.isnan(imp_hi), np.inf, imp_hi)
        best_lo = np.full(n, -np.inf)
        best_hi = np.full(n, np.inf)
        np.maximum.at(best_lo, cj, imp_lo)
        np.minimum.at(best_hi, cj, imp_hi)
        raise_lo = col_active & (best_lo > col_lb + _TIGHTEN_TOL)
        drop_hi = col_active & (best_hi < col_ub - _TIGHTEN_TOL)
        new_lb = np.where(integer, np.ceil(best_lo - _FEAS_TOL), best_lo)
        new_ub = np.where(integer, np.floor(best_hi + _FEAS_TOL), best_hi)
        col_lb[raise_lo] = new_lb[raise_lo]
        col_ub[drop_hi] = new_ub[drop_hi]
        tightened = int(raise_lo.sum()) + int(drop_hi.sum())
        bounds_tightened += tightened
        if tightened:
            changed = True
            if np.any(col_active & (col_lb > col_ub + _FEAS_TOL)):
                infeasible = True
        return changed

    changed = True
    while changed and rounds < _MAX_ROUNDS and not infeasible:
        rounds += 1
        changed = False
        changed |= round_integer_bounds()
        if infeasible:
            break
        changed |= fold_singleton_rows()
        if infeasible:
            break
        changed |= substitute_fixed_cols()
        changed |= sweep_rows()
        if infeasible:
            break

    result_template = dict(
        rows_removed=rows_removed,
        cols_fixed=cols_fixed,
        bounds_tightened=bounds_tightened,
        rounds=rounds,
    )
    if infeasible:
        return PresolveResult(
            status=SolveStatus.INFEASIBLE,
            form=form,
            kept_cols=np.arange(n),
            fixed_values=np.zeros(n),
            **result_template,
        )

    kept_cols = np.nonzero(col_active)[0]
    kept_rows = np.nonzero(row_active)[0]
    reduced = StandardForm(
        c=c[kept_cols],
        c0=c0,
        a=a.select(kept_rows, kept_cols),
        row_lb=row_lb[kept_rows],
        row_ub=row_ub[kept_rows],
        col_lb=col_lb[kept_cols],
        col_ub=col_ub[kept_cols],
        integer_mask=integer[kept_cols],
    )
    return PresolveResult(
        status=None,
        form=reduced,
        kept_cols=kept_cols,
        fixed_values=fixed_values,
        **result_template,
    )
