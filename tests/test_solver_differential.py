"""Differential test: branch-and-bound vs HiGHS on seeded random MILPs.

Two independent solver implementations (HiGHS's MIP solver and the
from-scratch branch-and-bound core) are run over a few hundred randomly
generated models — mixed binary / general-integer / continuous columns,
both objective senses, equality / inequality / range rows, deliberately
including infeasible and unbounded instances — and must agree on the solve
status and, when optimal, on the objective value.  Every optimal solution
the branch-and-bound solver returns is re-checked for feasibility against
the model.  The two-stage ``auto`` backend (node-bounded B&B, HiGHS for what it cannot
prove) is held to the same agreement on every model.

A disagreement here means one of the solvers is wrong; historically this
kind of fuzz harness is what catches tolerance bugs, bad prunes, and
presolve reductions that are not actually exact.
"""

from __future__ import annotations

import random

import pytest

from repro.solver import BnBOptions, solve
from repro.solver.model import INF, MilpModel, Sense, SolveStatus

_OBJ_TOL = 1e-5
_SEEDS_PER_CHUNK = 50
_CHUNKS = 4  # 200 models overall


def random_model(rng: random.Random) -> MilpModel:
    """A small random MILP; roughly half the draws are feasible."""
    sense = rng.choice([Sense.MINIMIZE, Sense.MAXIMIZE])
    model = MilpModel(sense=sense, name="fuzz")
    n = rng.randint(1, 7)
    for j in range(n):
        kind = rng.random()
        if kind < 0.5:
            model.add_binary(f"b{j}")
        elif kind < 0.75:
            lo = rng.randint(-3, 0)
            model.add_variable(
                f"i{j}", lower=lo, upper=lo + rng.randint(1, 7), integer=True
            )
        else:
            upper = rng.choice([2.0, 5.0, 10.0, INF])
            model.add_continuous(f"c{j}", lower=0.0, upper=upper)
    for j in range(n):
        if rng.random() < 0.85:
            model.add_objective_term(j, rng.randint(-5, 5))
    for i in range(rng.randint(0, 2 * n)):
        support = rng.sample(range(n), rng.randint(1, n))
        coeffs = {j: rng.randint(-4, 4) for j in support}
        coeffs = {j: c for j, c in coeffs.items() if c}
        if not coeffs:
            continue
        kind = rng.random()
        rhs = rng.randint(-6, 10)
        if kind < 0.40:
            model.add_le(coeffs, rhs, name=f"r{i}")
        elif kind < 0.70:
            model.add_ge(coeffs, rhs - rng.randint(0, 8), name=f"r{i}")
        elif kind < 0.85:
            model.add_eq(coeffs, rng.randint(-3, 6), name=f"r{i}")
        else:
            model.add_constraint(
                coeffs, lower=rhs - rng.randint(1, 6), upper=rhs, name=f"r{i}"
            )
    return model


def assert_agreement(model: MilpModel, bnb_options: BnBOptions, seed: int) -> None:
    """B&B (with ``bnb_options``) and the two-stage ``auto`` backend must
    each agree with HiGHS."""
    reference = solve(model, backend="highs")
    assert reference.status is not SolveStatus.ERROR, f"seed={seed}"
    for backend, options in (("bnb", bnb_options), ("auto", None)):
        candidate = solve(model, backend=backend, options=options)
        context = f"seed={seed} backend={backend}"
        assert candidate.status is not SolveStatus.ERROR, context
        assert candidate.status == reference.status, (
            f"{context}: {backend}={candidate.status} highs={reference.status}"
        )
        if reference.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
            assert abs(candidate.objective - reference.objective) < _OBJ_TOL, (
                f"{context}: {backend} obj {candidate.objective} "
                f"!= highs obj {reference.objective}"
            )
            # The returned point must actually attain the claimed objective.
            assert model.is_feasible(candidate.values), context
            recomputed = model.objective_value(candidate.values)
            assert abs(recomputed - candidate.objective) < _OBJ_TOL, context


@pytest.mark.parametrize("chunk", range(_CHUNKS))
def test_random_milps_agree(chunk: int) -> None:
    options = BnBOptions(time_limit_s=30.0)
    for offset in range(_SEEDS_PER_CHUNK):
        seed = chunk * _SEEDS_PER_CHUNK + offset
        model = random_model(random.Random(seed))
        assert_agreement(model, options, seed)


def test_handcrafted_infeasible() -> None:
    model = MilpModel(sense=Sense.MINIMIZE)
    x = model.add_binary("x")
    y = model.add_binary("y")
    model.add_ge({x: 1.0, y: 1.0}, 3.0)  # two binaries cannot sum to 3
    assert_agreement(model, BnBOptions(), seed=-1)


def test_handcrafted_unbounded() -> None:
    model = MilpModel(sense=Sense.MAXIMIZE)
    x = model.add_continuous("x", lower=0.0, upper=INF)
    b = model.add_binary("b")
    model.add_objective_term(x, 1.0)
    model.add_ge({x: 1.0, b: 1.0}, 0.0)
    assert_agreement(model, BnBOptions(), seed=-2)


def test_handcrafted_integer_ray() -> None:
    model = MilpModel(sense=Sense.MINIMIZE)
    z = model.add_variable("z", lower=-INF, upper=0.0, integer=True)
    model.add_objective_term(z, 1.0)
    model.add_le({z: 1.0}, 0.0)
    assert_agreement(model, BnBOptions(), seed=-3)
