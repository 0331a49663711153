"""Golden-fixture equivalence suite for the scale-out core.

The vectorised cluster state, the incrementally-maintained candidate
index, and the skip-idle-ticks heartbeat/cycle series replaced a
dict-of-``Node`` state backend and a fire-every-tick engine mode.  Before
those were deleted, the observable output of the retired ``(object,
periodic)`` configuration was frozen into
``tests/fixtures/scale_core_golden.json`` for every scenario generator the
repo ships — HBase populations, utilisation-mix populations, complexity
groups, GridMix and Google-trace task streams, with node failures thrown
in.  This suite runs each scenario once and compares it to that fixture.

Anything observable must match exactly: the per-cycle placement trace,
task-allocation latencies, the final container→node map, the placement
fingerprint, and the ground-truth violation audit.  Statistical floats
(utilisation CV, per-rack utilisation) were summed in a different order by
the scalar backend, so they are compared at ``rel=1e-12`` — they never
feed the canonical trace.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    ConstraintUnawareScheduler,
    NodeCandidatesScheduler,
    TagPopularityScheduler,
    build_cluster,
)
from repro.cluster.resources import Resource
from repro.core.requests import TaskRequest
from repro.obs.violations import evaluate_violations
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.googletrace import GoogleTraceConfig, generate_trace
from repro.workloads.gridmix import GridMixConfig, generate_tasks
from repro.workloads.lra_gen import (
    complexity_population,
    hbase_population,
    population_for_utilization,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "scale_core_golden.json").read_text()
)

def _task_stream(name: str) -> list[tuple[float, TaskRequest]]:
    if name == "hbase-gridmix":
        stream = generate_tasks(
            GridMixConfig(seed=7, mean_interarrival_s=1.0), count=60
        )
    elif name == "utilization-google":
        stream = generate_trace(GoogleTraceConfig(seed=29), count=50)
    elif name == "unaware-gridmix":
        stream = generate_tasks(
            GridMixConfig(seed=11, mean_interarrival_s=0.8), count=50
        )
    else:
        stream = iter(())
    return list(stream)


def run_scenario(name: str) -> dict:
    """Run one named scenario end to end; returns everything observable."""
    topology = build_cluster(24, racks=4, memory_mb=16 * 1024, vcores=16)
    horizon = 150.0
    tasks = _task_stream(name)

    if name == "hbase-gridmix":
        scheduler = TagPopularityScheduler()
        lras = hbase_population(4, region_servers=6, max_rs_per_node=2)
        failures = [("n00003", False, 40.0), ("n00011", False, 55.0),
                    ("n00003", True, 90.0)]
    elif name == "utilization-google":
        scheduler = NodeCandidatesScheduler()
        lras = population_for_utilization(topology, 0.4, region_servers=6)
        failures = [("n00017", False, 70.0)]
    elif name == "complexity":
        scheduler = TagPopularityScheduler()
        lras = complexity_population(2, 3, containers_per_lra=6, seed=3)
        failures = []
    elif name == "unaware-gridmix":
        scheduler = ConstraintUnawareScheduler(seed=42)
        lras = hbase_population(3, region_servers=5)
        failures = []
    else:  # pragma: no cover
        raise ValueError(name)

    sim = ClusterSimulation(
        topology,
        scheduler,
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
    )
    trace: list[str] = []
    sim.cycle_observers.append(
        lambda s, result: trace.append(
            f"t={s.engine.now:.3f}"
            f" placed={sorted(p.container_id + '@' + p.node_id for p in result.placements)}"
            f" rejected={sorted(result.rejected_apps)}"
        )
        # Only cycles that did something are recorded: no-op ticks are
        # skipped, where the retired periodic engine fired them.
        if result.placements or result.rejected_apps
        else None
    )
    for i, lra in enumerate(lras):
        sim.submit_lra(lra, at=float(2 * i), duration_s=80.0 if i % 3 == 0 else None)
    for arrival, task in tasks:
        sim.submit_task(task, at=arrival)
    for node_id, up, at in failures:
        sim.set_node_availability(node_id, up, at=at)
    sim.run()

    state = sim.state
    report = evaluate_violations(state, manager=sim.medea.manager)
    return {
        "trace": "\n".join(line for line in trace if line is not None),
        "fingerprint": state.fingerprint(),
        "final": sorted(
            (cid, placed.node_id) for cid, placed in state.containers.items()
        ),
        "task_latencies": [
            (a.task_id, a.latency_s)
            for a in sim.task_scheduler.completed_allocations
        ],
        "down": state.down_node_ids(),
        "violations": (
            report.subject_containers,
            report.violating_containers,
            round(report.total_extent, 9),
        ),
        "total_free": state.total_free(),
        "utilization": state.cluster_memory_utilization(),
        "rack_util": state.rack_memory_utilization(),
        "frag": state.fragmented_node_fraction(),
        "cv": state.memory_utilization_cv(),
    }


#: Keys that must match the fixture value for value.
EXACT_KEYS = (
    "trace", "fingerprint", "final", "task_latencies", "down",
    "violations", "total_free", "utilization", "frag",
)


def _encode(value):
    """The fixture's JSON encoding: ``Resource`` as ``[memory_mb, vcores]``,
    floats via ``repr`` (an exact round trip), tuples as lists."""
    if isinstance(value, Resource):
        return [value.memory_mb, value.vcores]
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_matches_retired_reference(scenario: str) -> None:
    golden = GOLDEN[scenario]
    # Sanity: the scenario actually exercised the scheduler.
    assert golden["final"], scenario
    assert golden["trace"], scenario
    candidate = run_scenario(scenario)
    for key in EXACT_KEYS:
        assert _encode(candidate[key]) == golden[key], f"{scenario}: {key} diverged"
    # Vectorised float reductions may differ from scalar ones in ulps.
    assert candidate["cv"] == pytest.approx(float(golden["cv"]), rel=1e-12)
    assert candidate["rack_util"] == pytest.approx(
        {rack: float(util) for rack, util in golden["rack_util"].items()},
        rel=1e-12,
    )
