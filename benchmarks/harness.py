"""Shared experiment driver for the benchmark suite.

Every Fig. 9/10-style experiment has the same skeleton: build a cluster,
optionally add background task load, feed an LRA population to a scheduler
in fixed-size batches (the paper's scheduling-interval batching), apply the
resulting placements, and measure violations / fragmentation / load balance
on the final state.  :func:`run_placement_experiment` is that skeleton.

Scale note: the paper simulates 500 machines; the benchmarks default to a
100–200 machine cluster so the full suite stays in CI-friendly time.  The
shapes being reproduced (orderings, trends) are scale-invariant here; bump
``BENCH_SCALE`` via the environment to run closer to paper scale.

Solver telemetry: when the scheduler under test is the ILP, every cycle's
:class:`~repro.obs.SolverStats` (nodes, LP solves, presolve reductions,
per-phase wall time) is aggregated into ``ExperimentResult.solver_stats``;
set ``SOLVER_STATS=1`` in the environment to also print the totals and the
ambient metrics-registry snapshot after each experiment.  ``MEDEA_TRACE=1``
(honoured by ``benchmarks/conftest.py``) additionally records the
structured event trace to ``MEDEA_TRACE_OUT`` — with per-batch
``lra.place`` / ``sim.state_hash`` checkpoints emitted here so the trace
replays and cross-checks like a simulation trace does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from repro import (
    ClusterState,
    ConstraintManager,
    ConstraintUnawareScheduler,
    IlpScheduler,
    JKubeScheduler,
    LRAScheduler,
    NodeCandidatesScheduler,
    SerialScheduler,
    TagPopularityScheduler,
    build_cluster,
)
from repro.core.requests import LRARequest
from repro.obs.violations import evaluate_violations
from repro.obs import SolverStats
from repro.workloads import fill_cluster

#: Global scale multiplier for benchmark cluster sizes (1.0 = default).
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(4, int(n * BENCH_SCALE))


def make_schedulers(max_candidate_nodes: int = 60) -> dict[str, LRAScheduler]:
    """The five algorithms compared throughout §7.4 (Fig. 9/10 legends).

    The ILP runs with candidate pruning, a 2% optimality gap and a short
    time limit: sweep benchmarks need hundreds of cycles, and proving exact
    optimality on each adds nothing to placement quality.
    """
    return {
        "MEDEA-ILP": IlpScheduler(
            max_candidate_nodes=max_candidate_nodes,
            time_limit_s=5.0,
            mip_rel_gap=0.02,
        ),
        "MEDEA-NC": NodeCandidatesScheduler(),
        "MEDEA-TP": TagPopularityScheduler(),
        "J-KUBE": JKubeScheduler(),
        "Serial": SerialScheduler(),
    }


@dataclass
class ExperimentResult:
    violation_fraction: float
    fragmentation_fraction: float
    utilization_cv: float
    placed_apps: int
    rejected_apps: int
    mean_cycle_s: float
    cycles: int = 0
    #: Aggregated MILP effort across all cycles (``None`` when the
    #: scheduler never reported solver stats, i.e. for the heuristics).
    solver_stats: SolverStats | None = None


def run_placement_experiment(
    scheduler: LRAScheduler,
    population: Sequence[LRARequest],
    *,
    num_nodes: int = 100,
    racks: int = 10,
    memory_mb: int = 16 * 1024,
    vcores: int = 8,
    batch_size: int = 2,
    task_memory_fraction: float = 0.0,
    seed: int = 0,
    experiment: str | None = None,
) -> ExperimentResult:
    """Feed ``population`` to ``scheduler`` in batches and audit the result.

    ``experiment`` labels this run's ``bench.experiment`` trace event
    (default: the scheduler's name).
    """
    from repro.obs import EventKind, get_tracer

    topology = build_cluster(num_nodes, racks=racks, memory_mb=memory_mb, vcores=vcores)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    if task_memory_fraction > 0:
        from repro.workloads import GridMixConfig

        fill_cluster(state, task_memory_fraction, config=GridMixConfig(seed=seed))

    tracer = get_tracer()
    if tracer.enabled:
        tracer.emit(
            EventKind.BENCH_EXPERIMENT,
            time=0.0,
            data={
                "experiment": experiment or scheduler.name,
                "scheduler": scheduler.name,
                "nodes": num_nodes,
                "apps": len(population),
            },
        )
    placed = rejected = 0
    cycle_times: list[float] = []
    solver_totals: SolverStats | None = None
    for start in range(0, len(population), batch_size):
        batch = list(population[start:start + batch_size])
        for request in batch:
            manager.register_application(request)
        result = scheduler.timed_place(batch, state, manager, now=float(start))
        cycle_times.append(result.solve_time_s)
        if result.solver_stats is not None:
            if solver_totals is None:
                solver_totals = SolverStats(solves=0)
            solver_totals.merge(result.solver_stats)
        for placement in result.placements:
            state.allocate(
                placement.container_id,
                placement.node_id,
                placement.resource,
                placement.tags,
                placement.app_id,
            )
        placed += len(result.placed_apps())
        rejected += len(result.rejected_apps)
        for app_id in result.rejected_apps:
            manager.unregister_application(app_id)
        if tracer.enabled:
            # Mirror the simulation's replayable event shape: the applied
            # placements, then a state-hash checkpoint over the new state.
            tracer.emit(
                EventKind.LRA_PLACE,
                time=float(start),
                data={
                    "scheduler": scheduler.name,
                    "containers": len(result.placements),
                    "placements": sorted(
                        [p.container_id, p.node_id] for p in result.placements
                    ),
                },
            )
            tracer.emit(
                EventKind.SIM_STATE_HASH,
                time=float(start),
                data={
                    "hash": state.fingerprint(),
                    "containers": len(state.containers),
                    "utilization": round(state.cluster_memory_utilization(), 6),
                },
            )

    report = evaluate_violations(state, manager=manager)
    if solver_totals is not None and os.environ.get("SOLVER_STATS"):
        from repro.obs.metrics import get_metrics
        from repro.obs.report import metrics_view
        from repro.obs.view import to_text

        print(f"[{scheduler.name}] {solver_totals.summary()}")
        print(to_text(metrics_view(get_metrics().snapshot())))
    return ExperimentResult(
        violation_fraction=report.violation_fraction,
        fragmentation_fraction=state.fragmented_node_fraction(),
        utilization_cv=state.memory_utilization_cv(),
        placed_apps=placed,
        rejected_apps=rejected,
        mean_cycle_s=sum(cycle_times) / max(1, len(cycle_times)),
        cycles=len(cycle_times),
        solver_stats=solver_totals,
    )
