"""GridMix-style synthetic batch workload generator.

The paper uses GridMix to generate Tez batch jobs "resembling some of our
production workloads" as background load (5%–70% of cluster memory in the
various experiments).  We reproduce the statistical shape: jobs with a
heavy-tailed number of tasks, lognormal task durations in the tens of
seconds, and small containers (<1 GB, 1 CPU>), arriving in a Poisson
process.

Two entry points:

* :func:`generate_tasks` — an open stream of :class:`TaskRequest` for
  latency experiments (Figs. 7d, 11c);
* :func:`fill_cluster` — immediately allocate batch containers onto a
  cluster state until a target memory utilisation is reached (background
  load for the placement-quality experiments, Figs. 2, 9, 10).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..core.requests import TaskRequest
from ..taskscheduler.base import TASK_TAG

__all__ = ["GridMixConfig", "generate_tasks", "fill_cluster"]

# Task/job ids are numbered per generator invocation, NOT from a
# process-global counter: same seed + same knobs must yield the exact
# same stream (ids included) no matter how many runs preceded it in the
# process — the determinism contract `repro diff` verifies.


@dataclass(frozen=True)
class GridMixConfig:
    """Statistical knobs for the batch workload."""

    seed: int = 13
    #: Mean task inter-arrival time (Poisson process).
    mean_interarrival_s: float = 0.5
    #: Lognormal task duration parameters (median ~20 s, heavy tail).
    duration_mu: float = 3.0
    duration_sigma: float = 0.8
    task_resource: Resource = Resource(1024, 1)
    #: Tasks per job (geometric, mean ~1/p).
    tasks_per_job_p: float = 0.1
    queue: str = "default"


def generate_tasks(
    config: GridMixConfig = GridMixConfig(),
    *,
    count: int | None = None,
    horizon_s: float | None = None,
) -> Iterator[tuple[float, TaskRequest]]:
    """Yield ``(arrival_time, task)`` pairs until ``count`` tasks or the
    time ``horizon_s`` is exhausted (at least one bound is required)."""
    if count is None and horizon_s is None:
        raise ValueError("need count or horizon_s to bound the stream")
    rng = random.Random(config.seed)
    ids = itertools.count(1)
    now = 0.0
    emitted = 0
    job_remaining = 0
    job_id = ""
    while True:
        if count is not None and emitted >= count:
            return
        now += rng.expovariate(1.0 / config.mean_interarrival_s)
        if horizon_s is not None and now > horizon_s:
            return
        if job_remaining == 0:
            job_id = f"gridmix-{next(ids):06d}"
            # Geometric number of tasks per job (>= 1).
            job_remaining = 1
            while rng.random() > config.tasks_per_job_p:
                job_remaining += 1
        duration = rng.lognormvariate(config.duration_mu, config.duration_sigma)
        task = TaskRequest(
            task_id=f"{job_id}/t{next(ids):07d}",
            app_id=job_id,
            resource=config.task_resource,
            duration_s=duration,
            queue=config.queue,
        )
        job_remaining -= 1
        emitted += 1
        yield now, task


def fill_cluster(
    state: ClusterState,
    target_memory_fraction: float,
    *,
    config: GridMixConfig = GridMixConfig(),
    app_id: str = "gridmix-bg",
    fill_resource: Resource = Resource(2048, 1),
) -> int:
    """Allocate batch containers onto random nodes until cluster memory
    utilisation reaches ``target_memory_fraction``.  Returns the number of
    containers placed.  Used to create background load deterministically
    (the paper's "GridMix jobs using X% of the cluster's memory").

    ``fill_resource`` defaults to <2 GB, 1 core> rather than the streaming
    config's 1 GB tasks: on 16 GB / 8-core nodes, 1 GB-per-core tasks
    exhaust vcores at 50% memory and higher targets become unreachable.

    Cost: one O(nodes) read of used memory, then O(1) per attempt.  Every
    placement lands on an available node, so it raises used memory by
    exactly ``fill_resource.memory_mb``; the loop keeps that integer
    itself and tests ``used / total`` — the int and the division of
    :meth:`ClusterState.cluster_memory_utilization` — instead of
    re-summing the cluster after every container.
    """
    if not 0.0 <= target_memory_fraction < 1.0:
        raise ValueError("target fraction must be in [0, 1)")
    rng = random.Random(config.seed)
    ids = itertools.count(1)
    node_ids = [n.node_id for n in state.topology if n.available]
    tags = frozenset((TASK_TAG,))
    placed = 0
    attempts = 0
    max_attempts = len(node_ids) * 1000
    total = state.arrays.total_cap_mem
    used = state.used_memory_mb()
    while (used / total if total else 0.0) < target_memory_fraction:
        attempts += 1
        if attempts > max_attempts:
            break  # cluster cannot be filled further with this container size
        node_id = rng.choice(node_ids)
        if not state.can_fit(node_id, fill_resource):
            continue
        state.allocate(
            f"{app_id}/t{next(ids):07d}",
            node_id,
            fill_resource,
            tags,
            app_id,
            long_running=False,
        )
        used += fill_resource.memory_mb
        placed += 1
    return placed
