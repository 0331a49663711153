"""MILP solving infrastructure (CPLEX substitute).

Public entry point::

    from repro.solver import MilpModel, Sense, solve
    model = MilpModel(Sense.MAXIMIZE)
    x = model.add_binary("x")
    model.add_objective_term(x, 3.0)
    solution = solve(model)              # HiGHS backend (default)
    solution = solve(model, backend="bnb")  # from-scratch branch & bound
    solution = solve(model, backend="auto")  # B&B certifies, HiGHS otherwise
"""

from __future__ import annotations

from dataclasses import replace

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
    "check_backend",
    "solve_branch_and_bound",
    "solve_highs",
    "CERTIFY_MAX_NODES",
]

#: Node budget of the ``"auto"`` backend's certify stage.  The batches of the
#: ``lra_ilp`` benchmark that B&B proves optimal close in at most 41 nodes;
#: a model that needs more than 64 is one HiGHS's cuts and heuristics
#: serve better.
CERTIFY_MAX_NODES = 64


def _solve_auto(model: MilpModel, options: HighsOptions | None = None) -> MilpSolution:
    """Certify with a node-bounded B&B; delegate to HiGHS what it cannot prove.

    The branch-and-bound search runs at its default gap (1e-6) for at most
    :data:`CERTIFY_MAX_NODES` nodes, and its answer stands only when the
    search proved it (``OPTIMAL`` or ``INFEASIBLE``).  Otherwise HiGHS solves
    the unchanged model with ``options``' gap and whatever the certify stage
    left of ``options``' time limit; the two :class:`SolverStats` merge, so
    the backend reads ``"bnb+highs"``.  Should HiGHS run out of time without
    a point, B&B's incumbent (if any) is kept.
    """
    options = options or HighsOptions()
    certified = solve_branch_and_bound(
        model,
        BnBOptions(max_nodes=CERTIFY_MAX_NODES, time_limit_s=options.time_limit_s),
    )
    if certified.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        return certified
    stats = certified.stats
    delegated = solve_highs(
        model,
        HighsOptions(
            time_limit_s=max(0.0, options.time_limit_s - stats.time_total_s),
            mip_rel_gap=options.mip_rel_gap,
        ),
    )
    kept = (
        certified
        if certified.status.has_solution() and not delegated.status.has_solution()
        else delegated
    )
    gap = kept.stats.gap
    stats.merge(delegated.stats)
    stats.gap = gap
    return replace(kept, nodes_explored=stats.nodes_explored, stats=stats)


_BACKENDS = {
    "highs": lambda model, options: solve_highs(model, options),
    "bnb": lambda model, options: solve_branch_and_bound(model, options),
    "auto": lambda model, options: _solve_auto(model, options),
}


def solve(
    model: MilpModel,
    backend: str = "highs",
    options: HighsOptions | BnBOptions | None = None,
) -> MilpSolution:
    """Solve ``model`` with the named backend (``highs``, ``bnb`` or ``auto``)."""
    check_backend(backend)
    return _BACKENDS[backend](model, options)


def check_backend(backend: str) -> None:
    """Reject a backend name :func:`solve` does not know."""
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {sorted(_BACKENDS)}"
        )
