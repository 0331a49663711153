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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from ..obs.metrics import SolverStats

__all__ = ["Sense", "SolveStatus", "MilpModel", "MilpSolution", "INF"]

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

    Variables and rows live in flat lists, one per attribute; row ``r``'s
    nonzeros are ``_cols`` / ``_vals`` from ``_row_start[r]`` to
    ``_row_start[r + 1]`` (CSR layout), so every export is one array
    conversion and no object is kept per row.
    """

    def __init__(self, sense: Sense = Sense.MAXIMIZE, name: str = "milp") -> None:
        self.sense = sense
        self.name = name
        self._var_names: list[str] = []
        self._var_lower: list[float] = []
        self._var_upper: list[float] = []
        self._var_integer: list[bool] = []
        self._row_start: list[int] = [0]
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._row_lower: list[float] = []
        self._row_upper: list[float] = []
        self._row_names: list[str] = []
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
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        self._var_names.append(name)
        self._var_lower.append(lower)
        self._var_upper.append(upper)
        self._var_integer.append(integer)
        return len(self._var_names) - 1

    def add_binary(self, name: str) -> int:
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True)

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
        if coeff == 0.0:
            self._objective.pop(index, None)
        else:
            self._objective[index] = coeff

    def add_objective_term(self, index: int, coeff: float) -> None:
        new = self._objective.get(index, 0.0) + coeff
        self.set_objective_coefficient(index, new)

    # -- constraints ---------------------------------------------------------------

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        *,
        lower: float = -INF,
        upper: float = INF,
        name: str = "",
    ) -> int:
        """Add a range constraint ``lower <= sum(coeffs[i] * x_i) <= upper``."""
        if lower == -INF and upper == INF:
            raise ValueError(f"constraint {name!r} is vacuous (no bounds)")
        if lower > upper:
            raise ValueError(f"constraint {name!r}: lower {lower} > upper {upper}")
        cols = [*coeffs]
        vals = [*coeffs.values()]  # made float64 by the matrix export
        if 0.0 in vals:
            cols = [i for i, v in zip(cols, vals) if v != 0.0]
            vals = [v for v in vals if v != 0.0]
        n = len(self._var_names)
        if cols and not (0 <= min(cols) and max(cols) < n):
            bad = next(i for i in cols if not 0 <= i < n)
            raise IndexError(f"constraint {name!r} references unknown variable {bad}")
        self._cols += cols
        self._vals += vals
        self._row_start.append(len(self._cols))
        self._row_lower.append(lower)
        self._row_upper.append(upper)
        self._row_names.append(name)
        return len(self._row_names) - 1

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

    def constraint_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """``(A, lb, ub)`` with one row per constraint, column indices
        sorted within each row."""
        matrix = sparse.csr_matrix(
            (
                np.array(self._vals, dtype=float),
                np.array(self._cols, dtype=np.int64),
                np.array(self._row_start, dtype=np.int64),
            ),
            shape=(len(self._row_names), len(self._var_names)),
        )
        matrix.sort_indices()
        return matrix, np.array(self._row_lower, dtype=float), np.array(
            self._row_upper, dtype=float
        )

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
