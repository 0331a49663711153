"""Figure 11a — LRA scheduling latency vs. cluster size (§7.5).

Clusters from 50 to 2000 nodes at 20% LRA load; each algorithm places one
two-LRA batch and the wall-clock time to place all containers is reported.

Shape targets: heuristics cheapest with Medea-TP below Medea-NC; J-Kube
above the cheap heuristics (it scores every node several ways per
container); Medea-ILP the most expensive but still sub-seconds — low
relative to LRA lifetimes.
"""

from __future__ import annotations

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    JKubeScheduler,
    NodeCandidatesScheduler,
    SerialScheduler,
    TagPopularityScheduler,
    build_cluster,
)
from repro.apps import hbase_instance
from repro.reporting import banner, render_series
from repro.workloads import fill_cluster

from .harness import scaled

CLUSTER_SIZES = [scaled(n) for n in (50, 200, 500, 1000)]


def schedulers():
    return {
        "MEDEA-ILP": IlpScheduler(max_candidate_nodes=60, time_limit_s=10.0,
                                  mip_rel_gap=0.02),
        "MEDEA-NC": NodeCandidatesScheduler(),
        "MEDEA-TP": TagPopularityScheduler(),
        "J-KUBE": JKubeScheduler(),
    }


def latency_ms(scheduler, num_nodes: int) -> float:
    topology = build_cluster(
        num_nodes, racks=max(2, num_nodes // 50), memory_mb=16 * 1024, vcores=8
    )
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    fill_cluster(state, 0.20)
    batch = [
        hbase_instance(f"hb-{num_nodes}-{i}", max_rs_per_node=2)
        for i in range(2)
    ]
    for request in batch:
        manager.register_application(request)
    result = scheduler.timed_place(batch, state, manager)
    assert result.placements, "expected the batch to be placeable at 20% load"
    return result.solve_time_s * 1000.0


def run_fig11a():
    return {
        name: [latency_ms(sched, n) for n in CLUSTER_SIZES]
        for name, sched in schedulers().items()
    }


def test_fig11a_latency_scale(benchmark):
    series = benchmark.pedantic(run_fig11a, rounds=1, iterations=1)
    print(banner("Figure 11a: LRA scheduling latency (ms) vs cluster size"))
    print(render_series("nodes", CLUSTER_SIZES, series))

    largest = {name: values[-1] for name, values in series.items()}
    # ILP is the most expensive algorithm at scale.
    assert largest["MEDEA-ILP"] == max(largest.values())
    # TP is cheaper than NC (NC recomputes candidate counts).
    assert largest["MEDEA-TP"] < largest["MEDEA-NC"]
    # Latency stays in interactive territory even at 2000 nodes: "low
    # compared to the typical execution times of LRAs".
    assert largest["MEDEA-ILP"] < 30_000  # seconds-scale, low vs LRA lifetimes
