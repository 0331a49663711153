"""Observability-overhead gate: telemetry must not tax the run it observes.

The budget is concrete — a traced scale run finishes within 1.05x the
untraced run.  This benchmark measures exactly that ratio on a mid-size
simulation: the same deterministic workload runs with telemetry fully off
(disabled tracer) and with the full scale plane on (sampling tracer,
JSONL sink, streaming rollup sink).

The estimator is a **paired median ratio**: each repeat runs both arms
back to back (order alternating between repeats), yielding one on/off
ratio per pair, and the reported ``obs_overhead_ratio`` is the median of
the pair ratios.  Pairing matters on shared runners — per-arm minima can
come from different load epochs and compare a lucky run against an
unlucky one, while adjacent pairs see the same machine state so slow
drift divides out.

The ratio is computed from **process CPU time**, not wall time: telemetry
cost is CPU work, and on shared runners wall time is dominated by
scheduling noise from co-tenants (observed swings of ±25% dwarf the 5%
effect being gated).  CPU time measures the same overhead with much
smaller spread; on an idle machine the two ratios coincide.

The test asserts the ratio against :data:`OVERHEAD_LIMIT` itself, so the
build fails only when telemetry costs more than 5% past the 1.05 budget
(with a small absolute floor soaking up timer jitter on fast runs).

Environment knobs::

    OBS_BENCH_NODES    cluster size             (default 200)
    OBS_BENCH_TASKS    total task lifecycles    (default 12000)
    OBS_BENCH_RATE     task arrivals per sim-s  (default 600)
    OBS_BENCH_REPEATS  paired repeats           (default 5)
"""

from __future__ import annotations

import os
import statistics
import time

from repro import Resource, TagPopularityScheduler, build_cluster
from repro.core.requests import TaskRequest
from repro.obs.metrics import Metrics
from repro.obs.rollup import RollupSink
from repro.obs.sample import SamplingPolicy, TraceSampler
from repro.obs.trace import JsonlSink, Tracer, set_tracer
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population

NODES = int(os.environ.get("OBS_BENCH_NODES", "200"))
TASKS = int(os.environ.get("OBS_BENCH_TASKS", "12000"))
RATE = int(os.environ.get("OBS_BENCH_RATE", "600"))
REPEATS = int(os.environ.get("OBS_BENCH_REPEATS", "5"))

#: The scale-plane sampling policy the run-books recommend at 10k nodes:
#: engine dispatch off (pure engine internals, the densest stream — the
#: engine latches the rate-0 policy once per run and skips the whole
#: tracing block), task lifecycles head-sampled at 2%, everything
#: structural kept.
SAMPLE_SPEC = "engine.dispatch=0,task=0.02,seed=7"

#: The gate: the 1.05 telemetry budget, times a 1.05 regression tolerance,
#: plus a 0.02 floor for timer jitter.
OVERHEAD_LIMIT = 1.05 * 1.05 + 0.02


def _run_workload(tracer: Tracer) -> float:
    """One deterministic simulation run with ``tracer`` installed for its
    duration; returns process-CPU seconds."""
    active_s = (TASKS + RATE - 1) // RATE
    horizon = float(active_s + 30)
    topology = build_cluster(
        NODES, racks=max(2, NODES // 20), memory_mb=16 * 1024, vcores=16
    )
    sim = ClusterSimulation(
        topology,
        TagPopularityScheduler(),
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
        metrics=Metrics(),
    )
    sim.task_scheduler.retain_completed = False
    for i, lra in enumerate(hbase_population(max(2, NODES // 50))):
        sim.submit_lra(lra, at=float(2 * i))

    submitted = 0

    def submit_batch(engine) -> None:
        nonlocal submitted
        second = int(engine.now)
        batch = min(RATE, TASKS - submitted)
        for j in range(batch):
            sim.submit_task_now(
                TaskRequest(
                    task_id=f"s{second}-{j}",
                    app_id=f"job-{second % 13}",
                    resource=Resource(1024, 1),
                    duration_s=2.0 + ((second + j) % 7),
                )
            )
        submitted += batch

    sim.engine.schedule_periodic(1.0, submit_batch, until=float(active_s))

    previous = set_tracer(tracer)
    try:
        start = time.process_time()
        sim.run()
        cpu = time.process_time() - start
    finally:
        set_tracer(previous)
    assert submitted == TASKS
    assert sim.task_scheduler.pending_tasks() == 0
    return cpu


def _telemetry_off() -> Tracer:
    return Tracer(enabled=False)


def _telemetry_on(tmp_path, rep: int) -> Tracer:
    sampler = TraceSampler(SamplingPolicy.parse(SAMPLE_SPEC))
    return Tracer(
        [
            JsonlSink(tmp_path / f"obs_overhead_{rep}.jsonl"),
            RollupSink(tmp_path / f"ROLLUP_obs_overhead_{rep}.json"),
        ],
        sampler=sampler,
    )


def test_observability_overhead_ratio(tmp_path) -> None:
    # Warm-up run outside the measurement: JIT-free Python still benefits
    # from warmed allocators, imports, and branch caches.
    _run_workload(_telemetry_off())

    ratios: list[float] = []
    off_cpu: list[float] = []
    on_cpu: list[float] = []
    emitted = dropped = 0
    overhead_s = 0.0
    for rep in range(REPEATS):
        # Paired design: both arms back to back, order alternating, one
        # ratio per pair — adjacent runs see the same machine state, so
        # slow drift (co-tenant load, thermal, page cache) divides out.
        tracer = _telemetry_on(tmp_path, rep)
        if rep % 2:
            on_s = _run_workload(tracer)
            off_s = _run_workload(_telemetry_off())
        else:
            off_s = _run_workload(_telemetry_off())
            on_s = _run_workload(tracer)
        tracer.close()
        off_cpu.append(off_s)
        on_cpu.append(on_s)
        ratios.append(on_s / off_s)
        stats = tracer.self_stats()
        emitted = stats["events_emitted"]
        dropped = stats["events_dropped"]
        overhead_s = stats["overhead_s"]

    ratio = statistics.median(ratios)
    best_off = min(off_cpu)
    best_on = min(on_cpu)
    assert emitted > 0  # telemetry arm actually traced something
    print(
        f"\nobs overhead: ratio={ratio:.3f} "
        f"(pairs={[round(r, 3) for r in ratios]}, "
        f"best off={best_off:.3f}s on={best_on:.3f}s, emitted={emitted}, "
        f"sampled out={dropped}, tracer self-accounted {overhead_s:.3f}s)"
    )
    assert ratio <= OVERHEAD_LIMIT, (
        f"telemetry-on run took {ratio:.3f}x the untraced run CPU, over "
        f"the {OVERHEAD_LIMIT:.4f} limit "
        f"(pair ratios {[round(r, 3) for r in ratios]})"
    )
