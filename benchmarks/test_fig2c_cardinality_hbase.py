"""Figure 2c — HBase total YCSB runtime vs. max region servers per node.

Ten region servers deployed at exact collocation levels {1, 2, 4, 8, 10}
(see the Fig. 2d bench for why the sweep pins collocation rather than
merely capping it), on a low-utilised (5%) and a highly-utilised (70%)
cluster with skewed background load.

Shape targets: full affinity (all 10 on a node) is the worst configuration
under load; the loaded cluster is slower overall; the optimal collocation
level under load is at least the idle cluster's.
"""

from __future__ import annotations

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    Resource,
    build_cluster,
)
from repro.apps import same_rack_group, worker_containers
from repro.core.constraints import cardinality
from repro.core.requests import LRARequest
from repro.perf import extract_features, serving_runtime
from repro.reporting import banner, render_series
from repro.taskscheduler.base import TASK_TAG

CARDINALITIES = [1, 2, 4, 8, 10]
BASE_RUNTIME_MIN = 18.0  # minutes for the full YCSB suite, uncontended
REGION_SERVERS = 10


def skewed_fill(state: ClusterState, mean_fraction: float) -> None:
    nodes = sorted(state.topology, key=lambda n: n.node_id)
    count = len(nodes)
    for index, node in enumerate(nodes):
        fraction = min(0.92, mean_fraction * 2 * index / max(1, count - 1))
        target_mb = int(fraction * node.capacity.memory_mb)
        blocks, block = 0, Resource(6144, 1)
        fits = state.can_fit
        while (blocks + 1) * block.memory_mb <= target_mb and fits(node.node_id, block):
            state.allocate(
                f"bg/{node.node_id}/{blocks}", node.node_id, block,
                (TASK_TAG,), "bg", long_running=False,
            )
            blocks += 1


def exact_cardinality_hbase(app_id: str, per_node: int) -> LRARequest:
    containers = worker_containers(
        app_id, "hb_rs", "hb", REGION_SERVERS, Resource(2048, 1)
    )
    constraints = [
        cardinality("hb_rs", "hb_rs", per_node - 1, per_node - 1, "node"),
    ]
    if per_node < REGION_SERVERS:
        constraints.append(same_rack_group(("hb", "hb_rs"), REGION_SERVERS))
    return LRARequest(app_id, containers, constraints)


def runtime_for(per_node: int, background_util: float) -> float:
    topology = build_cluster(40, racks=4, memory_mb=64 * 1024, vcores=24)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    skewed_fill(state, background_util)
    request = exact_cardinality_hbase("hb", per_node)
    manager.register_application(request)
    result = IlpScheduler(
        max_candidate_nodes=40, time_limit_s=10.0, mip_rel_gap=0.02
    ).place([request], state, manager)
    for p in result.placements:
        state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    feats = extract_features(state, "hb", "hb_rs")
    return serving_runtime(BASE_RUNTIME_MIN, feats)


def run_fig2c():
    return {
        "low": [runtime_for(k, 0.05) for k in CARDINALITIES],
        "high": [runtime_for(k, 0.70) for k in CARDINALITIES],
    }


def test_fig2c_cardinality_hbase(benchmark):
    series = benchmark.pedantic(run_fig2c, rounds=1, iterations=1)
    print(banner("Figure 2c: HBase runtime (min) vs max region servers per node"))
    print(render_series(
        "max RS/node", CARDINALITIES,
        {"Low utilized cluster": series["low"], "High utilized cluster": series["high"]},
    ))
    low, high = series["low"], series["high"]
    best_low = CARDINALITIES[low.index(min(low))]
    best_high = CARDINALITIES[high.index(min(high))]
    # Full affinity (10 RS on one node) is the worst choice under load.
    assert high[-1] == max(high)
    # Collocation tolerance rises (or holds) with load.
    assert best_high >= best_low
    # The loaded cluster is slower on average.
    assert sum(high) / len(high) > sum(low) / len(low)
