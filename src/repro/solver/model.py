"""A small modelling layer for mixed-integer linear programs.

The Medea ILP scheduler (paper §5.2, Fig. 5) builds its formulation against
this interface, which is then solved by one of two interchangeable backends:
the from-scratch branch-and-bound solver in
:mod:`repro.solver.branch_and_bound` or SciPy's HiGHS wrapper in
:mod:`repro.solver.highs`.  The model stores a *maximisation* or
*minimisation* objective, range constraints ``lb <= a·x <= ub``, and per-
variable bounds with an integrality flag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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


@dataclass
class _Variable:
    name: str
    lower: float
    upper: float
    integer: bool


@dataclass
class _Constraint:
    coeffs: dict[int, float]
    lower: float
    upper: float
    name: str


class MilpModel:
    """Incrementally built MILP."""

    def __init__(self, sense: Sense = Sense.MAXIMIZE, name: str = "milp") -> None:
        self.sense = sense
        self.name = name
        self._variables: list[_Variable] = []
        self._constraints: list[_Constraint] = []
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
        self._variables.append(_Variable(name, lower, upper, integer))
        return len(self._variables) - 1

    def add_binary(self, name: str) -> int:
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True)

    def add_continuous(self, name: str, *, lower: float = 0.0, upper: float = INF) -> int:
        return self.add_variable(name, lower=lower, upper=upper, integer=False)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def variable_name(self, index: int) -> str:
        return self._variables[index].name

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
        cleaned = {i: float(c) for i, c in coeffs.items() if c != 0.0}
        for index in cleaned:
            if not 0 <= index < len(self._variables):
                raise IndexError(f"constraint {name!r} references unknown variable {index}")
        self._constraints.append(_Constraint(cleaned, lower, upper, name))
        return len(self._constraints) - 1

    def add_le(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, upper=rhs, name=name)

    def add_ge(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, lower=rhs, name=name)

    def add_eq(self, coeffs: Mapping[int, float], rhs: float, name: str = "") -> int:
        return self.add_constraint(coeffs, lower=rhs, upper=rhs, name=name)

    # -- matrix export ------------------------------------------------------------

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self._variables))
        for index, coeff in self._objective.items():
            c[index] = coeff
        return c

    def constraint_matrix(self) -> tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
        """``(A, lb, ub)`` with one row per constraint."""
        rows, cols, data = [], [], []
        for row, constraint in enumerate(self._constraints):
            for col, coeff in constraint.coeffs.items():
                rows.append(row)
                cols.append(col)
                data.append(coeff)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)),
            shape=(len(self._constraints), len(self._variables)),
        )
        lb = np.array([c.lower for c in self._constraints])
        ub = np.array([c.upper for c in self._constraints])
        return matrix, lb, ub

    def variable_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lower = np.array([v.lower for v in self._variables])
        upper = np.array([v.upper for v in self._variables])
        return lower, upper

    def integrality(self) -> np.ndarray:
        """1 where the variable is integer-constrained, else 0 (scipy
        ``milp`` convention)."""
        return np.array([1 if v.integer else 0 for v in self._variables])

    def integer_indices(self) -> list[int]:
        return [i for i, v in enumerate(self._variables) if v.integer]

    # -- evaluation -----------------------------------------------------------------

    def objective_value(self, values: Sequence[float]) -> float:
        return sum(coeff * values[index] for index, coeff in self._objective.items())

    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Check a candidate point against all bounds and constraints."""
        for i, var in enumerate(self._variables):
            v = values[i]
            if v < var.lower - tol or v > var.upper + tol:
                return False
            if var.integer and abs(v - round(v)) > tol:
                return False
        for constraint in self._constraints:
            total = sum(coeff * values[i] for i, coeff in constraint.coeffs.items())
            if total < constraint.lower - tol or total > constraint.upper + tol:
                return False
        return True
