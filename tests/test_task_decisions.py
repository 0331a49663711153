"""Task-scheduler decisions pinned across commits.

The ``sim_tasks`` benchmark workload runs one queue and no locality, so its
fingerprint cannot see the queue order of the Capacity and Fair schedulers
or delay scheduling.  ``tests/fixtures/task_decisions.json`` holds, for
three seeded heartbeat-driven runs, a digest of every allocation as
``(time, task_id, node_id)`` in the order made, plus the run's end state
and its metrics snapshot; this test asserts the current code makes exactly
those decisions and records exactly those numbers:

* ``capacity_locality`` — a 3-queue :class:`CapacityScheduler` where a
  third of the tasks prefer a node or a rack, so delay scheduling skips
  and relaxes;
* ``fair`` — a 3-queue :class:`FairScheduler`, one queue capped;
* ``fifo`` — a :class:`FifoScheduler` over the default queue.

Every run churns node availability and releases tasks when they finish.
Run as a module, this file writes the fixture; that is only ever done from
a checkout of the commit whose decisions are to be pinned::

    PYTHONPATH=src:. python -m tests.test_task_decisions OUT.json
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import sys

import pytest

from repro import (
    CapacityScheduler,
    ClusterState,
    FairScheduler,
    FifoScheduler,
    MedeaScheduler,
    Resource,
    SerialScheduler,
    TaskRequest,
    build_cluster,
)
from repro.obs.metrics import Metrics
from repro.taskscheduler import QueueConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "task_decisions.json")

#: name -> (scheduler class, queue configs, share of tasks with locality).
RUNS = {
    "capacity_locality": (
        CapacityScheduler,
        (QueueConfig("q0", 0.5), QueueConfig("q1", 0.3, 0.6), QueueConfig("q2", 0.2)),
        1 / 3,
    ),
    "fair": (
        FairScheduler,
        (QueueConfig("q0", 0.5), QueueConfig("q1", 0.3), QueueConfig("q2", 0.2, 0.4)),
        0.0,
    ),
    "fifo": (FifoScheduler, (), 0.0),
}
SIZES = ((512, 1), (1024, 1), (1024, 4), (2048, 2), (4096, 1), (6144, 3))
NODES = 24
RACKS = 3
TICKS = 60
SEED = 11


def run_trail(name: str) -> tuple[list[tuple[float, str, str]], dict]:
    """Drive one run; returns its allocation trail and its end summary."""
    cls, queues, locality_share = RUNS[name]
    rng = random.Random(f"{SEED}-{name}")
    topology = build_cluster(NODES, racks=RACKS, memory_mb=16 * 1024, vcores=8)
    node_ids = [node.node_id for node in topology]
    places = node_ids + sorted({node.rack for node in topology})
    state = ClusterState(topology)
    metrics = Metrics()
    task_scheduler = cls(state, queues, metrics=metrics)
    queue_names = list(task_scheduler.queues.queues)
    medea = MedeaScheduler(state, SerialScheduler(), task_scheduler)
    running: list[tuple[float, str]] = []
    durations: dict[str, float] = {}
    localities: dict[str, tuple[str, ...]] = {}
    met = relaxed = 0
    trail: list[tuple[float, str, str]] = []
    serial = 0
    for tick in range(1, TICKS + 1):
        now = float(tick)
        while running and running[0][0] <= now:
            _, task_id = heapq.heappop(running)
            task_scheduler.release_task(task_id, now=now)
        if tick % 7 == 0:
            node = topology.node(rng.choice(node_ids))
            node.available = not node.available
        for _ in range(rng.randint(5, 30)):
            locality = ()
            if rng.random() < locality_share:
                locality = tuple(rng.sample(places, rng.randint(1, 2)))
            task_id = f"t{serial:05d}"
            serial += 1
            durations[task_id] = float(rng.randint(1, 9))
            localities[task_id] = locality
            task_scheduler.submit(
                TaskRequest(
                    task_id, f"app-{serial % 5}", Resource(*rng.choice(SIZES)),
                    locality, queue=rng.choice(queue_names),
                ),
                now=now - rng.choice((0.0, 0.25, 0.5)),
            )
        for allocation in medea.heartbeat_all(now):
            trail.append((now, allocation.task_id, allocation.node_id))
            locality = localities.pop(allocation.task_id)
            if locality:
                node = topology.node(allocation.node_id)
                if node.node_id in locality or node.rack in locality:
                    met += 1
                else:
                    relaxed += 1
            heapq.heappush(
                running, (now + durations[allocation.task_id], allocation.task_id)
            )
    summary = {
        "allocations": len(trail),
        "pending": task_scheduler.pending_tasks(),
        "fingerprint": state.fingerprint(),
        "locality": {"met": met, "relaxed": relaxed},
        "used_mb": {q: task_scheduler.queues.queue(q).used_mb for q in queue_names},
        "metrics": hashlib.sha256(
            json.dumps(metrics.snapshot(), sort_keys=True).encode()
        ).hexdigest()[:16],
    }
    return trail, summary


def decisions(name: str) -> dict:
    trail, summary = run_trail(name)
    digest = hashlib.sha256()
    for now, task_id, node_id in trail:
        digest.update(f"{now!r} {task_id} {node_id}\n".encode())
    return {"digest": digest.hexdigest()[:16], **summary}


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_task_decisions_equal_pinned(pinned, name: str) -> None:
    assert decisions(name) == pinned[name]


def test_runs_exercise_contention_and_delay_scheduling() -> None:
    """The pinned runs are only worth their digest if queues compete and
    work is left waiting; the locality run must also allocate both on and
    off the preferred places."""
    for name in RUNS:
        trail, summary = run_trail(name)
        assert summary["pending"] > 0, name
        assert len(trail) > 500, name
        if len(RUNS[name][1]) > 1:
            assert all(summary["used_mb"].values()), name
        if RUNS[name][2]:
            assert summary["locality"]["met"] > 0, name
            assert summary["locality"]["relaxed"] > 0, name


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump({name: decisions(name) for name in sorted(RUNS)}, out, indent=1, sort_keys=True)
        out.write("\n")
