"""Tests for the MILP modelling layer and both solver backends."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.solver import (
    INF,
    BnBOptions,
    HighsOptions,
    MilpModel,
    Sense,
    SolveStatus,
    solve,
    solve_branch_and_bound,
    solve_highs,
    standard_form,
)
from repro.solver.highs import load_highs


def knapsack_model():
    """max 10x + 6y + 4z s.t. x+y+z<=2, 5x+4y+3z<=8, binary."""
    model = MilpModel(Sense.MAXIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    z = model.add_binary("z")
    model.add_objective_term(x, 10)
    model.add_objective_term(y, 6)
    model.add_objective_term(z, 4)
    model.add_le({x: 1, y: 1, z: 1}, 2)
    model.add_le({x: 5, y: 4, z: 3}, 8)
    return model, (x, y, z)


class TestModel:
    def test_variable_indices_sequential(self):
        model = MilpModel()
        assert model.add_binary("a") == 0
        assert model.add_continuous("b") == 1
        assert model.num_variables == 2
        assert model.variable_name(1) == "b"

    def test_invalid_bounds_rejected(self):
        model = MilpModel()
        with pytest.raises(ValueError):
            model.add_variable("x", lower=2, upper=1)

    def test_vacuous_constraint_rejected(self):
        model = MilpModel()
        model.add_binary("x")
        with pytest.raises(ValueError):
            model.add_constraint({0: 1.0})

    def test_inverted_constraint_bounds_rejected(self):
        model = MilpModel()
        model.add_binary("x")
        with pytest.raises(ValueError):
            model.add_constraint({0: 1.0}, lower=2, upper=1)

    def test_unknown_variable_rejected(self):
        model = MilpModel()
        with pytest.raises(IndexError):
            model.add_le({5: 1.0}, 1.0)

    def test_objective_accumulates(self):
        model = MilpModel()
        x = model.add_binary("x")
        model.add_objective_term(x, 2.0)
        model.add_objective_term(x, 3.0)
        assert model.objective_vector()[x] == 5.0

    def test_zero_coefficient_removed(self):
        model = MilpModel()
        x = model.add_binary("x")
        model.add_objective_term(x, 2.0)
        model.set_objective_coefficient(x, 0.0)
        assert model.objective_vector()[x] == 0.0

    def test_matrix_export(self):
        model, (x, y, z) = knapsack_model()
        matrix, lb, ub = model.constraint_matrix()
        assert matrix.shape == (2, 3)
        assert ub.tolist() == [2.0, 8.0]
        assert all(b == -INF for b in lb)

    def test_integrality_vector(self):
        model = MilpModel()
        model.add_binary("x")
        model.add_continuous("y")
        assert model.integrality().tolist() == [1, 0]
        assert model.integer_indices() == [0]

    def test_is_feasible(self):
        model, _ = knapsack_model()
        assert model.is_feasible([1, 0, 1])
        assert not model.is_feasible([1, 1, 1])      # count constraint
        assert not model.is_feasible([0.5, 0, 0])    # integrality
        assert not model.is_feasible([2, 0, 0])      # bounds

    def test_objective_value(self):
        model, _ = knapsack_model()
        assert model.objective_value([1, 0, 1]) == 14.0


@pytest.mark.parametrize("backend", ["highs", "bnb"])
class TestBackends:
    def test_knapsack_optimum(self, backend):
        model, (x, y, z) = knapsack_model()
        solution = solve(model, backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        # x+y needs weight 9 > 8, so the optimum is x+z = 14.
        assert solution.objective == pytest.approx(14.0)
        assert solution.rounded(x) == 1 and solution.rounded(z) == 1

    def test_minimization(self, backend):
        model = MilpModel(Sense.MINIMIZE)
        x = model.add_variable("x", lower=0, upper=10, integer=True)
        model.add_objective_term(x, 1.0)
        model.add_ge({x: 1.0}, 3.2)
        solution = solve(model, backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.rounded(x) == 4

    def test_infeasible(self, backend):
        model = MilpModel()
        x = model.add_binary("x")
        model.add_ge({x: 1.0}, 2.0)
        solution = solve(model, backend=backend)
        assert solution.status is SolveStatus.INFEASIBLE
        assert not solution.status.has_solution()

    def test_equality_constraint(self, backend):
        model = MilpModel(Sense.MAXIMIZE)
        x = model.add_variable("x", lower=0, upper=5, integer=True)
        y = model.add_variable("y", lower=0, upper=5, integer=True)
        model.add_objective_term(x, 1.0)
        model.add_eq({x: 1.0, y: 1.0}, 4.0)
        solution = solve(model, backend=backend)
        assert solution.objective == pytest.approx(4.0)
        assert solution.rounded(x) == 4

    def test_range_constraint(self, backend):
        model = MilpModel(Sense.MINIMIZE)
        x = model.add_variable("x", lower=0, upper=100, integer=True)
        model.add_objective_term(x, 1.0)
        model.add_constraint({x: 1.0}, lower=7, upper=9)
        solution = solve(model, backend=backend)
        assert solution.rounded(x) == 7

    def test_continuous_mix(self, backend):
        """MIP with continuous slack: min x + 10*s, x int, x + s >= 2.5."""
        model = MilpModel(Sense.MINIMIZE)
        x = model.add_variable("x", lower=0, upper=10, integer=True)
        s = model.add_continuous("s")
        model.add_objective_term(x, 1.0)
        model.add_objective_term(s, 10.0)
        model.add_ge({x: 1.0, s: 1.0}, 2.5)
        solution = solve(model, backend=backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert solution.rounded(x) == 3

    def test_solution_is_feasible(self, backend):
        model, _ = knapsack_model()
        solution = solve(model, backend=backend)
        assert model.is_feasible(solution.values)


class TestBnBSpecifics:
    def test_unbounded(self):
        model = MilpModel(Sense.MAXIMIZE)
        x = model.add_variable("x", lower=0, upper=INF, integer=True)
        model.add_objective_term(x, 1.0)
        model.add_ge({x: 1.0}, 0.0)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.UNBOUNDED

    def test_node_limit_returns_feasible_or_error(self):
        model, _ = knapsack_model()
        solution = solve_branch_and_bound(model, BnBOptions(max_nodes=1))
        assert solution.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.ERROR,
        )

    def test_explores_nodes(self):
        model, _ = knapsack_model()
        solution = solve_branch_and_bound(model)
        assert solution.nodes_explored >= 1

    def test_unknown_backend_rejected(self):
        model, _ = knapsack_model()
        with pytest.raises(ValueError):
            solve(model, backend="cplex")


@pytest.mark.parametrize("backend", ["highs", "bnb", "auto"])
def test_empty_model_is_optimal(backend):
    solution = solve(MilpModel(Sense.MAXIMIZE), backend=backend)
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == 0.0
    assert solution.values == ()


def test_retired_solver_paths_stay_retired():
    """One HiGHS binding and one B&B configuration: the technique switches,
    the A/B baseline and SciPy's ``linprog``/``milp`` wrappers must not
    regrow."""
    import repro.solver.branch_and_bound as branch_and_bound
    import repro.solver.highs as highs
    from repro import IlpScheduler

    fields = {field.name for field in dataclasses.fields(BnBOptions)}
    assert fields == {"max_nodes", "time_limit_s", "gap"}
    assert not hasattr(BnBOptions, "naive")
    with pytest.raises(TypeError):
        IlpScheduler(bnb_options=BnBOptions())
    for module in (branch_and_bound, highs):
        for name in ("linprog", "milp"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestLimits:
    """A limit HiGHS would ignore or misread is an error, not a silent default."""

    @pytest.mark.parametrize("limit", [-5.0, math.nan])
    def test_options_reject_a_negative_or_nan_time_limit(self, limit):
        with pytest.raises(ValueError, match="time_limit_s"):
            HighsOptions(time_limit_s=limit)
        with pytest.raises(ValueError, match="time_limit_s"):
            BnBOptions(time_limit_s=limit)

    @pytest.mark.parametrize("gap", [-0.01, math.nan])
    def test_options_reject_a_negative_or_nan_gap(self, gap):
        with pytest.raises(ValueError, match="gap"):
            HighsOptions(mip_rel_gap=gap)
        with pytest.raises(ValueError, match="gap"):
            BnBOptions(gap=gap)

    def test_zero_and_infinite_limits_are_accepted(self):
        HighsOptions(time_limit_s=0.0, mip_rel_gap=0.0)
        BnBOptions(time_limit_s=INF, gap=INF)

    @pytest.mark.parametrize(
        "option, value", [("time_limit", -5.0), ("no_such_option", 1.0)]
    )
    def test_load_highs_raises_on_a_rejected_option(self, option, value):
        form = standard_form(knapsack_model()[0])
        with pytest.raises(ValueError, match=option):
            load_highs(form, log_to_console=False, **{option: value})

    def test_ilp_scheduler_with_a_negative_time_limit_does_not_solve(self):
        """A bad limit or backend is refused when the scheduler is built,
        before any batch reaches the solver."""
        from repro import IlpScheduler

        for kwargs, match in (
            ({"time_limit_s": -5}, "time_limit_s"),
            ({"time_limit_s": float("nan")}, "time_limit_s"),
            ({"mip_rel_gap": float("nan")}, "gap"),
            ({"mip_rel_gap": -1e-3}, "gap"),
            ({"backend": "gurobi"}, "unknown backend"),
        ):
            with pytest.raises(ValueError, match=match):
                IlpScheduler(**kwargs)


class TestCrossValidation:
    """The two backends must agree on random small MILPs."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_milp_agreement(self, seed):
        rng = random.Random(seed)
        n_vars, n_cons = rng.randint(2, 6), rng.randint(1, 5)
        model = MilpModel(Sense.MAXIMIZE)
        for i in range(n_vars):
            model.add_variable(f"x{i}", lower=0, upper=rng.randint(1, 4), integer=True)
        for i in range(n_vars):
            model.add_objective_term(i, rng.randint(-5, 10))
        for _ in range(n_cons):
            coeffs = {
                i: rng.randint(-3, 5)
                for i in range(n_vars)
                if rng.random() < 0.7
            }
            if not coeffs:
                continue
            model.add_le(coeffs, rng.randint(2, 12))
        a = solve_highs(model)
        b = solve_branch_and_bound(model)
        assert a.status == b.status
        if a.status.has_solution():
            assert a.objective == pytest.approx(b.objective, abs=1e-6)
            assert model.is_feasible(a.values)
            assert model.is_feasible(b.values)
