"""Figure 8 — application resilience over 15 days (§7.3).

LRAs whose containers must be spread across service units (intra-app
cardinality on the ``service_unit`` group) are placed by Medea-ILP and by
J-Kube; a 15-day unavailability trace is then replayed against both
placements and the per-hour worst container-unavailability across LRAs is
compared.

J-Kube cannot express the cardinality spread (it drops the constraint), so
under skewed background load it concentrates containers in the emptiest
service units — and pays when one of those units fails.  Shape targets:
Medea's CDF dominates (lower median and lower maximum unavailability).
"""

from __future__ import annotations

import random

from repro import (
    ClusterState,
    ConstraintManager,
    IlpScheduler,
    JKubeScheduler,
    Resource,
    build_cluster,
)
from repro.apps import max_collocated, worker_containers
from repro.core.requests import LRARequest
from repro.failures import generate_trace, max_unavailability_series, su_distribution
from repro.obs.stats import percentile
from repro.reporting import banner, render_table

SERVICE_UNITS = 25
NODES = 125  # 5 nodes per service unit
LRAS = 5
CONTAINERS = 50
#: <= 3 containers of one LRA per service unit (2 "others" + the subject).
MAX_PER_SU = 3


def spread_lra(app_id: str) -> LRARequest:
    containers = worker_containers(
        app_id, "svc_w", "svc", CONTAINERS, Resource(2048, 1)
    )
    from repro.tags import app_id_tag
    from repro.core.constraints import cardinality

    constraint = cardinality(
        (app_id_tag(app_id), "svc_w"),
        (app_id_tag(app_id), "svc_w"),
        0,
        MAX_PER_SU - 1,
        "service_unit",
    )
    return LRARequest(app_id, containers, [constraint])


def skewed_background(state: ClusterState, seed: int = 5) -> None:
    """Batch load concentrated in low-index service units, so a
    constraint-blind scheduler drifts toward the high-index units."""
    rng = random.Random(seed)
    nodes = list(state.topology)
    weights = [
        3.0 if int(node.node_id[1:]) < NODES // 2 else 0.3 for node in nodes
    ]
    for i in range(420):
        node = rng.choices(nodes, weights)[0]
        if state.can_fit(node.node_id, Resource(2048, 1)):
            state.allocate(
                f"bg/{i}", node.node_id, Resource(2048, 1), ("task",), "bg",
                long_running=False,
            )


def place_all(scheduler) -> dict[str, dict[int, int]]:
    topology = build_cluster(
        NODES, racks=SERVICE_UNITS, memory_mb=16 * 1024, vcores=8,
        service_units=SERVICE_UNITS,
    )
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    skewed_background(state)
    for i in range(LRAS):
        request = spread_lra(f"lra-{i}")
        manager.register_application(request)
        result = scheduler.place([request], state, manager)
        for p in result.placements:
            state.allocate(p.container_id, p.node_id, p.resource, p.tags, p.app_id)
    return {
        f"lra-{i}": su_distribution(state, f"lra-{i}") for i in range(LRAS)
    }


def run_fig8():
    trace = generate_trace(SERVICE_UNITS, 15 * 24, seed=1)
    medea = place_all(IlpScheduler(time_limit_s=30.0, mip_rel_gap=0.02))
    jkube = place_all(JKubeScheduler())
    return {
        "MEDEA": max_unavailability_series(medea, trace),
        "J-KUBE": max_unavailability_series(jkube, trace),
    }, medea, jkube


def test_fig8_resilience(benchmark):
    series, medea_dist, jkube_dist = benchmark.pedantic(
        run_fig8, rounds=1, iterations=1
    )
    print(banner("Figure 8: max container unavailability per LRA over 15 days (%)"))
    rows = []
    for name, values in series.items():
        rows.append([
            name, 100 * percentile(values, 50), 100 * percentile(values, 95),
            100 * max(values),
        ])
    print(render_table(["system", "median %", "p95 %", "max %"], rows))
    worst_medea = max(max(d.values()) for d in medea_dist.values())
    worst_jkube = max(max(d.values()) for d in jkube_dist.values())
    print(f"worst per-SU concentration: MEDEA={worst_medea}, J-KUBE={worst_jkube}")

    # Medea honours the spread; J-Kube concentrates somewhere.
    assert worst_medea <= MAX_PER_SU
    assert worst_jkube > MAX_PER_SU
    # Resilience: lower median and max unavailability (paper: 16% / 24%).
    medea, jkube = series["MEDEA"], series["J-KUBE"]
    assert percentile(medea, 50) <= percentile(jkube, 50)
    assert max(medea) < max(jkube)
