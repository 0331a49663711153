"""Figure 2d — TensorFlow runtime vs. max workers per node (§2.2).

A 32-worker TensorFlow job deployed at exact collocation levels
{1, 4, 8, 16, 32} workers per node, in a low-utilised (5%) and
highly-utilised (70%) cluster.

Two experiment-fidelity notes:

* The sweep pins collocation with an *exact* cardinality constraint
  (cmin = cmax = K-1): the paper's knob is the deployment's collocation
  level, whereas a bare cmax cap would let the scheduler spread every
  configuration identically.
* Background load is skewed across nodes (bursty batch load), matching
  production: with perfectly uniform 70% fill no node could host 32
  2 GB workers at all.

Calibration targets from the paper: in the highly-utilised cluster the
optimum is 16 workers/node — ~42% faster than full affinity (32) and ~34%
faster than full anti-affinity (1) — while the less-utilised cluster's
optimum is lower (4).
"""

from __future__ import annotations

import pytest

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
from repro.perf import extract_features, iterative_runtime
from repro.reporting import banner, render_series
from repro.taskscheduler.base import TASK_TAG

CARDINALITIES = [1, 4, 8, 16, 32]
BASE_RUNTIME_MIN = 95.0  # one million iterations, uncontended
WORKERS = 32


def skewed_fill(state: ClusterState, mean_fraction: float) -> None:
    """Per-node background load ramping linearly from ~0 to ~2x the mean
    (clamped), so the cluster average hits ``mean_fraction`` while a few
    nodes stay lightly loaded — the texture of real batch load."""
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


def exact_cardinality_tf(app_id: str, per_node: int) -> LRARequest:
    containers = worker_containers(app_id, "tf_w", "tf", WORKERS, Resource(2048, 1))
    constraints = [
        cardinality("tf_w", "tf_w", per_node - 1, per_node - 1, "node"),
    ]
    # Rack affinity only where a single 10-node rack can hold the spread:
    # at K=1/K=2 the job necessarily spans racks, and that cross-rack
    # traffic is part of what the sweep measures (§7.1 uses rack affinity
    # for its 4-per-node deployments).
    nodes_needed = (WORKERS + per_node - 1) // per_node
    if 1 < nodes_needed <= 10:
        constraints.append(same_rack_group(("tf", "tf_w"), WORKERS))
    return LRARequest(app_id, containers, constraints)


def runtime_for(per_node: int, background_util: float) -> float:
    # 128 GB / 40-core machines so 32 x <2 GB, 1 core> workers can share a
    # node, as in the paper's testbed.
    topology = build_cluster(40, racks=4, memory_mb=128 * 1024, vcores=40)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    skewed_fill(state, background_util)
    request = exact_cardinality_tf("tf", per_node)
    manager.register_application(request)
    result = IlpScheduler(
        max_candidate_nodes=40, time_limit_s=10.0, mip_rel_gap=0.02
    ).place([request], state, manager)
    for p in result.placements:
        state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    feats = extract_features(state, "tf", "tf_w")
    return iterative_runtime(BASE_RUNTIME_MIN, feats)


def run_fig2d():
    return {
        "low": [runtime_for(k, 0.05) for k in CARDINALITIES],
        "high": [runtime_for(k, 0.70) for k in CARDINALITIES],
    }


def test_fig2d_cardinality_tf(benchmark):
    series = benchmark.pedantic(run_fig2d, rounds=1, iterations=1)
    print(banner("Figure 2d: TensorFlow runtime (min) vs max workers per node"))
    print(render_series(
        "max workers/node", CARDINALITIES,
        {"Low utilized cluster": series["low"], "High utilized cluster": series["high"]},
    ))
    low, high = series["low"], series["high"]
    best_low = CARDINALITIES[low.index(min(low))]
    best_high = CARDINALITIES[high.index(min(high))]
    # Paper: optimum 16 under load, 4 when idle.  Our interference model
    # puts the loaded-cluster optimum in the 8-16 band (8 and 16 are within
    # ~2% of each other); the key shape — an interior optimum that shifts
    # *up* with load — holds.
    assert best_high in (8, 16)
    assert best_low in (4, 8)
    assert best_high >= best_low
    assert min(high) < high[0] and min(high) < high[-1]
    i16 = CARDINALITIES.index(16)
    assert high[i16] / high[-1] == pytest.approx(0.58, abs=0.2)
    assert high[i16] / high[0] == pytest.approx(0.66, abs=0.2)
