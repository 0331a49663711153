"""Ablation — MILP backend: HiGHS, the from-scratch branch-and-bound, and
the two-stage ``auto`` default (B&B certifies, HiGHS takes what it cannot).

Not a paper figure; validates the DESIGN.md claim that the solver backends
are interchangeable for the Medea formulation, and measures their cost.
All three must produce placements of equal quality (same placed-container
count, no violations) on identical inputs.
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
from repro.apps import hbase_instance
from repro.reporting import banner, render_table


def run_backend(backend: str):
    topology = build_cluster(12, racks=3, memory_mb=16 * 1024, vcores=8)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    requests = [
        hbase_instance(f"hb-{backend}-{i}", region_servers=4, max_rs_per_node=2)
        for i in range(3)
    ]
    scheduler = IlpScheduler(backend=backend, time_limit_s=60.0)
    start = time.perf_counter()
    for request in requests:
        manager.register_application(request)
        result = scheduler.place([request], state, manager)
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    elapsed = time.perf_counter() - start
    report = evaluate_violations(state, manager=manager)
    return {
        "placed": len(state.containers),
        "violations": report.violating_containers,
        "time_s": elapsed,
    }


def run_ablation():
    return {backend: run_backend(backend) for backend in ("highs", "bnb", "auto")}


def test_ablation_solver_backends(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print(banner("Ablation: MILP solver backends on the Medea formulation"))
    print(render_table(
        ["backend", "containers placed", "violations", "time (s)"],
        [[b, r["placed"], r["violations"], r["time_s"]] for b, r in results.items()],
    ))
    # Interchangeable: equal placement quality.
    assert len({r["placed"] for r in results.values()}) == 1
    assert all(r["violations"] == 0 for r in results.values())
