"""Ablation — candidate-node pruning (DESIGN.md §4).

The full Fig. 5 formulation considers every node; our implementation can
prune the variable space to a constraint-aware candidate pool
(`IlpScheduler(max_candidate_nodes=...)`) for large clusters.  This bench
quantifies the trade: solve time must drop substantially while placement
quality (violations) stays intact.  Time is the process's CPU time, so
other load on a shared host does not decide the comparison.
"""

from __future__ import annotations

import time

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    build_cluster,
    evaluate_violations,
)
from repro.reporting import banner, render_table
from repro.workloads import hbase_population

NUM_NODES = 150


def run_variant(max_candidate_nodes):
    topology = build_cluster(NUM_NODES, racks=10, memory_mb=16 * 1024, vcores=8)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    population = hbase_population(6, max_rs_per_node=4)
    scheduler = IlpScheduler(
        max_candidate_nodes=max_candidate_nodes,
        time_limit_s=60.0,
        mip_rel_gap=0.02,
    )
    start = time.process_time()
    for index in range(0, len(population), 2):
        batch = population[index:index + 2]
        for request in batch:
            manager.register_application(request)
        result = scheduler.place(batch, state, manager)
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    elapsed = time.process_time() - start
    report = evaluate_violations(state, manager=manager)
    return {
        "time_s": elapsed,
        "violating": report.violating_containers,
        "placed": len(state.containers),
    }


def run_ablation():
    return {
        "full formulation": run_variant(None),
        "pruned (60-node pool)": run_variant(60),
    }


def test_ablation_candidate_pruning(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print(banner("Ablation: candidate-node pruning (150-node cluster, 6 LRAs)"))
    print(render_table(
        ["variant", "containers placed", "violating", "CPU time (s)"],
        [
            [name, r["placed"], r["violating"], r["time_s"]]
            for name, r in results.items()
        ],
    ))
    full = results["full formulation"]
    pruned = results["pruned (60-node pool)"]
    # Same workload fully placed either way.
    assert pruned["placed"] == full["placed"]
    # Pruning must not cost placement quality on this satisfiable workload.
    assert pruned["violating"] <= full["violating"] + 2
    # And it must actually be faster.
    assert pruned["time_s"] < full["time_s"]
