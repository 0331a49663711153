"""The two-stage ``auto`` backend on Medea-shaped models.

``auto`` runs branch-and-bound for at most ``CERTIFY_MAX_NODES`` nodes at
gap 1e-6 and keeps its answer only when the search proved it; every other
model goes to HiGHS with the caller's gap and the time the first stage
left.  These tests pin both sides of that selection: the ``lra_ilp``
benchmark batches are proved by B&B alone, never below what HiGHS commits,
and a tight Fig. 9 batch at 90 % utilisation is handed to HiGHS within the
time limit.
"""

from __future__ import annotations

import time

import pytest

import repro.solver
from benchmarks.pipeline.workloads import ILP_GAP, ILP_TIME_LIMIT_S
from repro import ClusterState, ConstraintManager, IlpScheduler, build_cluster
from repro.obs.metrics import SolverStats
from repro.solver import (
    CERTIFY_MAX_NODES,
    BnBOptions,
    HighsOptions,
    MilpSolution,
    SolveStatus,
    solve,
)
from repro.workloads import population_for_utilization
from tests.test_ilp_model_pinned import SEEDS, lra_ilp_batches
from tests.test_solver_gap import knapsack

#: The Fig. 9/10 sweep's ILP settings (``benchmarks/harness.py``).
FIG9_LIMIT_S = 5.0
FIG9_GAP = 0.02


def test_auto_certifies_lra_ilp_batches():
    """The 16 pinned ``lra_ilp`` models: proved optimal, by B&B alone on all
    but at most one, and never worse than the batch HiGHS committed."""
    batches = [batch for seed in SEEDS for batch in lra_ilp_batches(seed)]
    assert len(batches) == 16
    options = HighsOptions(time_limit_s=ILP_TIME_LIMIT_S, mip_rel_gap=ILP_GAP)
    delegated = 0
    for model, highs_objective in batches:
        solution = solve(model, backend="auto", options=options)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective >= highs_objective - 1e-9
        assert model.is_feasible(solution.values)
        delegated += solution.stats.backend != "bnb"
    assert delegated <= 1


def first_delegated_fig9_batch():
    """Commit the Fig. 9 sweep's 90 % population batch by batch under the
    sweep's ILP settings and return the first model ``auto`` handed to
    HiGHS (``None`` if no batch was)."""
    topology = build_cluster(100, racks=10, memory_mb=16 * 1024, vcores=8)
    state, manager = ClusterState(topology), ConstraintManager(topology)
    population = population_for_utilization(topology, 0.9, max_rs_per_node=4)
    scheduler = IlpScheduler(
        max_candidate_nodes=60, time_limit_s=FIG9_LIMIT_S, mip_rel_gap=FIG9_GAP
    )
    for start in range(0, len(population), 2):
        batch = population[start:start + 2]
        for request in batch:
            manager.register_application(request)
        result = scheduler.place(batch, state, manager, now=float(start))
        if scheduler.last_stats.backend == "bnb+highs":
            return scheduler.last_formulation.model
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
        for app_id in result.rejected_apps:
            manager.unregister_application(app_id)
    return None


def test_auto_delegates_what_bnb_cannot_prove():
    model = first_delegated_fig9_batch()
    assert model is not None, "no 90 % batch reached HiGHS"
    certify = solve(model, backend="bnb", options=BnBOptions(max_nodes=CERTIFY_MAX_NODES))
    assert certify.status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)

    start = time.perf_counter()
    solution = solve(
        model,
        backend="auto",
        options=HighsOptions(time_limit_s=FIG9_LIMIT_S, mip_rel_gap=FIG9_GAP),
    )
    wall = time.perf_counter() - start
    assert solution.stats.backend == "bnb+highs"
    assert solution.stats.solves == 2
    assert solution.status is SolveStatus.OPTIMAL
    assert model.is_feasible(solution.values)
    assert wall <= FIG9_LIMIT_S + 0.5


def test_auto_keeps_bnb_incumbent_when_highs_finds_none(monkeypatch):
    """HiGHS out of time without a point: the certify stage's unproven
    incumbent is still a placement, so it is kept."""

    def highs_out_of_time(model, options=None):
        stats = SolverStats(backend="highs")
        return MilpSolution(SolveStatus.ERROR, float("nan"), (), 0, stats)

    monkeypatch.setattr(repro.solver, "solve_highs", highs_out_of_time)
    model = knapsack()
    certify = solve(model, backend="bnb", options=BnBOptions(max_nodes=CERTIFY_MAX_NODES))
    assert certify.status is SolveStatus.FEASIBLE
    solution = solve(model, backend="auto")
    assert solution.status is SolveStatus.FEASIBLE
    assert solution.objective == pytest.approx(certify.objective)
    assert solution.stats.backend == "bnb+highs"
    assert solution.stats.gap == pytest.approx(certify.stats.gap)
