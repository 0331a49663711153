"""Scale benchmark: a 10,000-node cluster pushing >= 1M container lifecycles.

This is the tentpole's proof-of-scale: the vectorised cluster state, the
candidate index, and the on-demand event engine together must carry a
cluster 20x the paper's simulated 500 machines through a million full
task lifecycles (submit -> queue -> allocate -> run -> release) in
benchmark-able wall time.  The run streams arrivals through
:meth:`ClusterSimulation.submit_task_now` (one generator event per
simulated second, never a million events in the heap) and disables
``retain_completed`` so memory stays bounded by the in-flight set.

Environment knobs (CI runs a reduced-scale smoke; defaults are the full
10k-node configuration)::

    SCALE_BENCH_NODES   cluster size            (default 10000)
    SCALE_BENCH_TASKS   total task lifecycles   (default 1000000)
    SCALE_BENCH_RATE    task arrivals per sim-s (default 2500)

The test asserts the lifecycle accounting and prints wall time and
lifecycles per wall second; the gated numbers for this path are the
``sim_tasks`` workload of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time

from repro import Resource, TagPopularityScheduler, build_cluster
from repro.core.requests import TaskRequest
from repro.obs.metrics import Metrics
from repro.sim import ClusterSimulation, SimConfig
from repro.workloads.lra_gen import hbase_population

NODES = int(os.environ.get("SCALE_BENCH_NODES", "10000"))
TASKS = int(os.environ.get("SCALE_BENCH_TASKS", "1000000"))
RATE = int(os.environ.get("SCALE_BENCH_RATE", "2500"))


def test_scale_million_lifecycles() -> None:
    active_s = (TASKS + RATE - 1) // RATE
    horizon = float(active_s + 40)  # drain window: max duration is 9 s
    metrics = Metrics()
    topology = build_cluster(
        NODES, racks=max(2, NODES // 50), memory_mb=16 * 1024, vcores=16
    )
    sim = ClusterSimulation(
        topology,
        TagPopularityScheduler(),
        config=SimConfig(
            scheduling_interval_s=10.0,
            heartbeat_interval_s=1.0,
            horizon_s=horizon,
        ),
        metrics=metrics,
    )
    # Million-lifecycle runs cannot afford the per-allocation record list.
    sim.task_scheduler.retain_completed = False

    # A sprinkling of constrained LRAs keeps the cycle path (candidate
    # index + constraint evaluation) honest at full cluster size.
    for i, lra in enumerate(hbase_population(max(2, NODES // 1000))):
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

    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start

    scheduler = sim.task_scheduler
    assert submitted == TASKS
    assert scheduler.completed_count >= TASKS
    assert scheduler.completed_allocations == []  # retain_completed off
    released = metrics.counter("task_released_total").value()
    assert released >= TASKS  # full lifecycles, not just allocations
    assert scheduler.pending_tasks() == 0
    # The heartbeat series actually skipped the idle drain-phase ticks.
    assert sim.heartbeat_handle.fired < sim.heartbeat_handle.ticks

    print(
        f"\nscale bench: {NODES} nodes, {TASKS} lifecycles in {wall:.1f}s wall "
        f"({TASKS / wall:,.0f} lifecycles/s), "
        f"{sim.heartbeat_handle.fired}/{sim.heartbeat_handle.ticks} "
        "heartbeat ticks did work"
    )
