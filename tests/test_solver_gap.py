"""``SolverStats.gap``: the achieved relative MIP gap each backend reports."""

from __future__ import annotations

import math
import random

from repro.solver import BnBOptions, HighsOptions, MilpModel, Sense, SolveStatus, solve


def knapsack(n: int = 30, seed: int = 3) -> MilpModel:
    """Three-row 0/1 knapsack: root LP fractional, optimum needs a tree."""
    rng = random.Random(seed)
    model = MilpModel(Sense.MAXIMIZE)
    xs = [model.add_binary(f"x{i}") for i in range(n)]
    for x in xs:
        model.add_objective_term(x, rng.randint(10, 60))
    for row in range(3):
        model.add_le({x: rng.randint(5, 40) for x in xs}, 150.0, name=f"cap{row}")
    return model


def test_highs_gap_within_tolerance_on_optimal_solve():
    solution = solve(knapsack(), backend="highs", options=HighsOptions(mip_rel_gap=0.01))
    assert solution.status is SolveStatus.OPTIMAL
    assert 0.0 <= solution.stats.gap <= 0.01


def test_bnb_gap_within_tolerance_on_optimal_solve():
    solution = solve(knapsack(), backend="bnb", options=BnBOptions(gap=0.01))
    assert solution.status is SolveStatus.OPTIMAL
    assert 0.0 <= solution.stats.gap <= 0.01


def test_bnb_gap_finite_when_stopped_with_an_incumbent():
    """A node limit stops the search on the same path a time limit does
    (open nodes left, optimality unproven), but deterministically."""
    solution = solve(knapsack(), backend="bnb", options=BnBOptions(max_nodes=20))
    assert solution.status is SolveStatus.FEASIBLE
    assert math.isfinite(solution.stats.gap) and solution.stats.gap > 0.0
    optimum = solve(knapsack(), backend="highs").objective
    # The reported bound is a true bound: the optimum lies inside it.
    assert optimum <= solution.objective * (1 + solution.stats.gap) + 1e-9
