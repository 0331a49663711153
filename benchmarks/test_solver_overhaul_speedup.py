"""Solver hot-path overhaul — A/B latency on the Fig. 11a workload.

Places the k=10 HBase population in two-LRA batches (the paper's
scheduling-interval batching) on a 50-node cluster with candidate pruning,
once with the pre-overhaul branch-and-bound configuration
(:meth:`BnBOptions.naive`: cold ``linprog`` LPs, most-fractional branching,
pure best-first, no presolve/propagation/heuristic) and once with the full
configuration (warm-started incremental HiGHS LPs, exact presolve,
pseudocost branching, rounding heuristic, bound-aware plunging).

Both configurations are exact, so every batch must reach the same optimal
objective; the overhaul is required to cut the median batch solve time at
least in half.  Per-phase :class:`~repro.obs.SolverStats` totals are
printed for both runs.
"""

from __future__ import annotations

import statistics
import time

from repro import ClusterState, ConstraintManager, IlpScheduler, build_cluster
from repro.obs import SolverStats
from repro.reporting import banner, render_series
from repro.solver import BnBOptions
from repro.workloads import hbase_population

NUM_LRAS = 10
BATCH_SIZE = 2
NUM_NODES = 50
CANDIDATE_NODES = 16


def run_workload(options: BnBOptions):
    """Place the population batch-by-batch; per-batch times + objectives."""
    population = hbase_population(NUM_LRAS, region_servers=4, max_rs_per_node=2)
    topology = build_cluster(NUM_NODES, racks=5)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    scheduler = IlpScheduler(
        backend="bnb",
        max_candidate_nodes=CANDIDATE_NODES,
        time_limit_s=60.0,
        bnb_options=options,
    )
    times: list[float] = []
    objectives: list[float] = []
    totals = SolverStats(solves=0)
    for start in range(0, len(population), BATCH_SIZE):
        batch = list(population[start:start + BATCH_SIZE])
        for request in batch:
            manager.register_application(request)
        begin = time.perf_counter()
        result = scheduler.place(batch, state, manager)
        times.append(time.perf_counter() - begin)
        assert result.objective is not None, "every batch is solvable here"
        objectives.append(result.objective)
        totals.merge(scheduler.last_stats)
        for placement in result.placements:
            state.allocate(
                placement.container_id,
                placement.node_id,
                placement.resource,
                placement.tags,
                placement.app_id,
            )
        for app_id in result.rejected_apps:
            manager.unregister_application(app_id)
    return times, objectives, totals


def run_ab():
    run_workload(BnBOptions())  # warm numpy/scipy caches off the clock
    naive = run_workload(BnBOptions.naive())
    full = run_workload(BnBOptions())
    return naive, full


def test_solver_overhaul_speedup(benchmark):
    (t_naive, obj_naive, stats_naive), (t_full, obj_full, stats_full) = (
        benchmark.pedantic(run_ab, rounds=1, iterations=1)
    )
    batches = list(range(1, len(t_naive) + 1))
    print(banner("Solver overhaul: per-batch solve time (ms), k=10 workload"))
    print(
        render_series(
            "batch",
            batches,
            {
                "naive": [t * 1000 for t in t_naive],
                "overhauled": [t * 1000 for t in t_full],
            },
        )
    )
    print(f"naive      {stats_naive.summary()}")
    print(f"overhauled {stats_full.summary()}")

    # Exactness: both configurations prove the same optima.
    assert len(obj_naive) == len(obj_full)
    for a, b in zip(obj_naive, obj_full):
        assert abs(a - b) < 1e-6, f"objective drift: {a} vs {b}"

    median_naive = statistics.median(t_naive)
    median_full = statistics.median(t_full)
    speedup = median_naive / median_full
    print(f"median speedup: {speedup:.2f}x")
    assert speedup >= 2.0, f"expected >=2x median speedup, got {speedup:.2f}x"
