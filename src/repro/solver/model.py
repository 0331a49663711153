"""A small modelling layer for mixed-integer linear programs.

The Medea ILP scheduler (paper §5.2, Fig. 5) builds its formulation against
this interface, which is then solved by one of two interchangeable backends:
the from-scratch branch-and-bound solver in
:mod:`repro.solver.branch_and_bound` or HiGHS's MIP solver in
:mod:`repro.solver.highs`.  The model stores a *maximisation* or
*minimisation* objective, range constraints ``lb <= a·x <= ub``, and per-
variable bounds with an integrality flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ..obs.metrics import SolverStats

__all__ = ["Sense", "SolveStatus", "MilpModel", "MilpSolution", "CsrMatrix", "INF"]

INF = float("inf")


class Sense(enum.Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    def has_solution(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


class CsrMatrix(NamedTuple):
    """A sparse matrix by rows: row ``r`` holds ``data[indptr[r]:indptr[r + 1]]``
    in the columns ``indices[indptr[r]:indptr[r + 1]]``.  Nothing writes to
    the arrays once the record is built."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def row_ids(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        # Each row sums its entries in order from +0.0, as a CSR mat-vec
        # loop does, so the sums are the same to the bit.
        return np.bincount(self.row_ids(), self.data * x[self.indices], self.shape[0])

    def where(self, keep: np.ndarray) -> CsrMatrix:
        """The entries where ``keep`` is true; the shape stays."""
        indptr = np.concatenate(([0], np.cumsum(keep)))[self.indptr]
        return CsrMatrix(indptr, self.indices[keep], self.data[keep], self.shape)

    def select(self, rows: np.ndarray, cols: np.ndarray) -> CsrMatrix:
        """The submatrix of ``rows`` and ``cols`` (increasing), entries in order."""
        new_col = np.full(self.shape[1], -1)
        new_col[cols] = np.arange(len(cols))
        in_rows = np.zeros(self.shape[0], dtype=bool)
        in_rows[rows] = True
        sub = self.where(in_rows[self.row_ids()] & (new_col[self.indices] >= 0))
        # The rows left out are empty now: a kept row ends where the next starts.
        indptr = np.append(sub.indptr[rows], len(sub.data))
        return CsrMatrix(indptr, new_col[sub.indices], sub.data, (len(rows), len(cols)))

    def by_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, row indices, data)`` of the column-wise form, each
        column's entries in row order."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.searchsorted(self.indices[order], np.arange(self.shape[1] + 1))
        return indptr, self.row_ids()[order], self.data[order]


@dataclass(frozen=True)
class MilpSolution:
    """Result of a solve: status, objective in the *model's* sense, and a
    value per variable (empty when no solution exists)."""

    status: SolveStatus
    objective: float
    values: tuple[float, ...]
    nodes_explored: int = 0
    #: Phase/effort breakdown of the solve that produced this solution.
    stats: SolverStats | None = None

    def value(self, index: int) -> float:
        return self.values[index]

    def rounded(self, index: int) -> int:
        return int(round(self.values[index]))


class MilpModel:
    """Incrementally built MILP.

    Variables live in flat lists, one per attribute.  Rows are appended in
    CSR blocks (:meth:`add_rows`; :meth:`add_constraint` is a one-row block)
    and stored as the blocks' arrays: per block the nonzeros per row, the
    column indices sorted within each row, the values and the row bounds.
    An export concatenates them once and keeps the result as the only block.
    """

    def __init__(self, sense: Sense = Sense.MAXIMIZE, name: str = "milp") -> None:
        self.sense = sense
        self.name = name
        self._var_names: list[str] = []
        self._var_lower: list[float] = []
        self._var_upper: list[float] = []
        self._var_integer: list[bool] = []
        self._row_names: list[str] = []
        self._row_nnz = [np.zeros(0, dtype=np.int64)]
        self._cols = [np.zeros(0, dtype=np.int64)]
        self._vals = [np.zeros(0)]
        self._row_lower = [np.zeros(0)]
        self._row_upper = [np.zeros(0)]
        self._objective: dict[int, float] = {}

    # -- variables -------------------------------------------------------------

    def add_variable(
        self,
        name: str,
        *,
        lower: float = 0.0,
        upper: float = INF,
        integer: bool = False,
    ) -> int:
        """Add a variable and return its column index."""
        return self.add_variables([name], lower=lower, upper=upper, integer=integer)

    def add_variables(
        self,
        names: Sequence[str],
        *,
        lower: float = 0.0,
        upper: float = INF,
        integer: bool = False,
    ) -> int:
        """Add one variable per name, all with the same bounds and
        integrality; returns the column index of the first."""
        if not lower <= upper:  # inverted, or NaN
            name = names[0] if names else ""
            if math.isnan(lower) or math.isnan(upper):
                raise ValueError(f"variable {name!r}: bound is NaN")
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        first = len(self._var_names)
        self._var_names.extend(names)
        self._var_lower.extend([lower] * len(names))
        self._var_upper.extend([upper] * len(names))
        self._var_integer.extend([integer] * len(names))
        return first

    def add_binary(self, name: str) -> int:
        return self.add_variables([name], lower=0.0, upper=1.0, integer=True)

    def add_continuous(self, name: str, *, lower: float = 0.0, upper: float = INF) -> int:
        return self.add_variable(name, lower=lower, upper=upper, integer=False)

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    @property
    def num_constraints(self) -> int:
        return len(self._row_names)

    def variable_name(self, index: int) -> str:
        return self._var_names[index]

    def constraint_name(self, index: int) -> str:
        return self._row_names[index]

    # -- objective ---------------------------------------------------------------

    def set_objective_coefficient(self, index: int, coeff: float) -> None:
        if not math.isfinite(coeff):
            raise ValueError(f"objective coefficient {coeff} of variable {index} is not finite")
        if coeff == 0.0:
            self._objective.pop(index, None)
        else:
            self._objective[index] = coeff

    def add_objective_term(self, index: int, coeff: float) -> None:
        new = self._objective.get(index, 0.0) + coeff
        self.set_objective_coefficient(index, new)

    # -- constraints ---------------------------------------------------------------

    def add_rows(
        self,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        names: Sequence[str],
    ) -> int:
        """Append range rows ``lower[r] <= sum(vals[k] * x[cols[k]]) <= upper[r]``,
        row ``r`` holding the nonzeros ``indptr[r]:indptr[r + 1]`` (CSR);
        returns the index of the first.

        Every row of a model passes through here, so this is the one place
        rows are checked: a row needs a bound, its bounds must not be NaN
        or inverted, its coefficients must be finite, and it may name a
        variable at most once.  Explicit zeros are dropped.  Errors name
        the offending row and leave the model unchanged.
        """
        # Copies: the model must not change when the caller's arrays do.
        indptr = np.asarray(indptr, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)
        lower = np.array(lower, dtype=np.float64)
        upper = np.array(upper, dtype=np.float64)
        rows = len(names)
        if not (len(indptr) == rows + 1 == len(lower) + 1 == len(upper) + 1
                and indptr[0] == 0 and len(cols) == len(vals) == indptr[-1]):
            raise ValueError("row block: indptr, cols, vals, bounds and names disagree in length")
        bad = ~(lower <= upper) | ((lower == -INF) & (upper == INF))  # NaN fails <=
        if bad.any():
            r = int(np.argmax(bad))
            lo, hi, name = float(lower[r]), float(upper[r]), names[r]
            if lo == -INF and hi == INF:
                raise ValueError(f"constraint {name!r} is vacuous (no bounds)")
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"constraint {name!r}: bound is NaN")
            raise ValueError(f"constraint {name!r}: lower {lo} > upper {hi}")
        row_of = np.repeat(np.arange(rows), indptr[1:] - indptr[:-1])
        finite = np.isfinite(vals)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(
                f"constraint {names[row_of[k]]!r}: coefficient {vals[k]} of variable "
                f"{cols[k]} is not finite"
            )
        nonzero = vals != 0.0
        if not nonzero.all():
            cols, vals, row_of = cols[nonzero], vals[nonzero], row_of[nonzero]
        n = len(self._var_names)
        if cols.size and not (0 <= cols.min() and cols.max() < n):
            k = int(np.argmax((cols < 0) | (cols >= n)))
            raise IndexError(
                f"constraint {names[row_of[k]]!r} references unknown variable {cols[k]}"
            )
        # Sort each row's columns; a repeated column shows as an equal key.
        key = row_of * max(n, 1) + cols
        step = key[1:] - key[:-1]
        if not (step > 0).all():
            order = np.argsort(key, kind="stable")
            cols, vals, row_of, key = cols[order], vals[order], row_of[order], key[order]
            step = key[1:] - key[:-1]
            if not (step > 0).all():
                k = int(np.argmin(step > 0))
                raise ValueError(
                    f"constraint {names[row_of[k]]!r} lists variable {cols[k]} twice"
                )
        first = len(self._row_names)
        self._row_names.extend(names)
        self._row_nnz.append(np.bincount(row_of, minlength=rows))
        self._cols.append(cols)
        self._vals.append(vals)
        self._row_lower.append(lower)
        self._row_upper.append(upper)
        return first

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        *,
        lower: float = -INF,
        upper: float = INF,
        name: str = "",
    ) -> int:
        """Add a range constraint ``lower <= sum(coeffs[i] * x_i) <= upper``."""
        size = len(coeffs)
        return self.add_rows(
            np.array([0, size]),
            np.fromiter(coeffs, dtype=np.int64, count=size),
            np.fromiter(coeffs.values(), dtype=np.float64, count=size),
            np.array([lower], dtype=np.float64),
            np.array([upper], dtype=np.float64),
            [name],
        )

    def add_le(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, upper=rhs, name=name)

    def add_ge(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, lower=rhs, name=name)

    def add_eq(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, lower=rhs, upper=rhs, name=name)

    # -- matrix export ------------------------------------------------------------

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self._var_names))
        c[list(self._objective)] = list(self._objective.values())
        return c

    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        """``(nnz per row, cols, vals, lower, upper)`` of every row, the
        blocks concatenated and kept as one."""
        parts = (self._row_nnz, self._cols, self._vals, self._row_lower, self._row_upper)
        if len(self._cols) > 1:
            for part in parts:
                part[:] = [np.concatenate(part)]
        return tuple(part[0] for part in parts)

    def constraint_matrix(self) -> tuple[CsrMatrix, np.ndarray, np.ndarray]:
        """``(A, lb, ub)`` with one row per constraint, column indices
        sorted within each row."""
        nnz, cols, vals, lower, upper = self._row_arrays()
        indptr = np.zeros(len(nnz) + 1, dtype=np.int64)
        np.cumsum(nnz, out=indptr[1:])
        matrix = CsrMatrix(
            indptr, cols.copy(), vals.copy(), (len(self._row_names), len(self._var_names))
        )
        return matrix, lower.copy(), upper.copy()

    def variable_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self._var_lower, dtype=float),
            np.array(self._var_upper, dtype=float),
        )

    def integrality(self) -> np.ndarray:
        """1 where the variable is integer-constrained, else 0."""
        return np.array(self._var_integer, dtype=np.int64)

    def integer_indices(self) -> list[int]:
        return np.flatnonzero(self._var_integer).tolist()

    # -- evaluation -----------------------------------------------------------------

    def objective_value(self, values: Sequence[float]) -> float:
        return float(self.objective_vector() @ np.asarray(values, dtype=float))

    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Check a candidate point against all bounds and constraints."""
        x = np.asarray(values, dtype=float)
        lower, upper = self.variable_bounds()
        snapped = x[self.integrality() == 1]
        if (
            np.any(x < lower - tol)
            or np.any(x > upper + tol)
            or np.any(np.abs(snapped - np.round(snapped)) > tol)
        ):
            return False
        matrix, lb, ub = self.constraint_matrix()
        total = matrix @ x
        return not (np.any(total < lb - tol) or np.any(total > ub + tol))
