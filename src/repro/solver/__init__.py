"""MILP solving infrastructure (CPLEX substitute).

Public entry point::

    from repro.solver import MilpModel, Sense, solve
    model = MilpModel(Sense.MAXIMIZE)
    x = model.add_binary("x")
    model.add_objective_term(x, 3.0)
    solution = solve(model)              # HiGHS backend (default)
    solution = solve(model, backend="bnb")  # from-scratch branch & bound
"""

from __future__ import annotations

from .branch_and_bound import BnBOptions, solve_branch_and_bound
from .highs import HighsOptions, solve_highs
from .model import INF, MilpModel, MilpSolution, Sense, SolveStatus
from .presolve import PresolveResult, StandardForm, presolve, standard_form

__all__ = [
    "INF",
    "MilpModel",
    "MilpSolution",
    "Sense",
    "SolveStatus",
    "BnBOptions",
    "HighsOptions",
    "PresolveResult",
    "StandardForm",
    "presolve",
    "standard_form",
    "solve",
    "solve_branch_and_bound",
    "solve_highs",
]


_BACKENDS = {
    "highs": lambda model, options: solve_highs(model, options),
    "bnb": lambda model, options: solve_branch_and_bound(model, options),
}


def solve(
    model: MilpModel,
    backend: str = "highs",
    options: HighsOptions | BnBOptions | None = None,
) -> MilpSolution:
    """Solve ``model`` with the named backend (``highs`` or ``bnb``)."""
    try:
        runner = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(_BACKENDS)}"
        ) from None
    return runner(model, options)
