"""Seeded inputs: plain request lists, a task profile and an arrival schedule.

Everything here is a pure function of its arguments, so the same ``--seed``
gives the same inputs in every process.  The program under test never sees
the seed, only what is generated from it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence

from repro.apps import (
    hbase_instance,
    memcached_instance,
    storm_instance,
    tensorflow_instance,
)
from repro.cluster.resources import Resource
from repro.core.requests import LRARequest

__all__ = [
    "DECADE_BATCHES",
    "rng_for",
    "build_lra",
    "lra_mix",
    "task_profile",
    "arrival_offsets",
    "digest",
    "describe",
]

#: Task container sizes (MB) drawn uniformly: 1/1/2/4 GB.
TASK_MEMORY_MB = (1024, 1024, 2048, 4096)


def rng_for(seed: int, *scope: object) -> random.Random:
    """An independent generator per (seed, scope); string seeding is stable
    across processes, unlike ``hash()``."""
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def build_lra(kind: str, app_id: str, *, small: bool) -> LRARequest:
    """One application of ``kind`` from the §7.1 templates."""
    if kind == "hbase":
        return hbase_instance(app_id, region_servers=4 if small else 10)
    if kind == "tensorflow":
        if small:
            return tensorflow_instance(app_id, workers=4, parameter_servers=1)
        return tensorflow_instance(app_id)
    if kind == "storm":
        # "intra": the five supervisors of one topology share a node (§2.2).
        return storm_instance(app_id, placement="intra")
    return memcached_instance(app_id)


#: One decade of the paper's §7.1 mix (HBase / TensorFlow / Storm / Memcached
#: at 40/30/20/10 %) cut into batches of two.  The pattern is the
#: same for every seed, so two seeds run the same kinds of batch.
DECADE_BATCHES = (
    ("hbase", "tensorflow"),
    ("hbase", "tensorflow"),
    ("hbase", "storm"),
    ("hbase", "memcached"),
    ("tensorflow", "storm"),
)


def lra_mix(
    rng: random.Random, count: int, prefix: str, *, small: bool
) -> list[LRARequest]:
    """``count`` LRA requests in the §7.1 mix, in seeded order.

    The kinds are dealt in whole decades of the 40/30/20/10 mix, each decade
    cut into the batches of :data:`DECADE_BATCHES`; the seed orders the
    batches of a decade and the two applications of a batch.  Two seeds
    therefore differ in order and in where applications land, not in
    composition or in which kinds share a batch.  ``small`` selects the
    smaller variants: HBase with 4 region servers, TensorFlow with 4
    workers and 1 parameter server.
    """
    kinds: list[str] = []
    while len(kinds) < count:
        batches = [list(pair) for pair in DECADE_BATCHES]
        rng.shuffle(batches)
        for pair in batches:
            rng.shuffle(pair)
            kinds.extend(pair)
    return [
        build_lra(kind, f"{prefix}-{i:04d}", small=small)
        for i, kind in enumerate(kinds[:count])
    ]


def task_profile(rng: random.Random, count: int) -> list[tuple[Resource, float]]:
    """``count`` (resource, duration) pairs: 1/1/2/4 GB, 1 core, 2-8 s."""
    sizes = [Resource(mb, 1) for mb in TASK_MEMORY_MB]
    return [
        (sizes[rng.randrange(len(sizes))], rng.uniform(2.0, 8.0))
        for _ in range(count)
    ]


def arrival_offsets(rng: random.Random, count: int, rate: float) -> list[float]:
    """``count`` arrival times at ``rate`` per second: one arrival at a
    uniformly drawn moment inside each slot of ``1 / rate`` seconds.

    Gaps vary between 0 and two slots, so requests do meet in the queue, but
    every seed offers the same load over every stretch of the schedule; with
    exponential gaps the tail latency of a short schedule is set by where
    that seed happened to bunch its arrivals.
    """
    return [(slot + rng.random()) / rate for slot in range(count)]


def digest(parts: Iterable[object]) -> str:
    """Short stable digest of generated inputs (or of outputs)."""
    sha = hashlib.sha1()
    for part in parts:
        sha.update(repr(part).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()[:16]


def describe(requests: Sequence[LRARequest]) -> list[tuple]:
    """What :func:`digest` hashes for a request list."""
    return [
        (r.app_id, tuple(c.container_id for c in r.containers), len(r.constraints))
        for r in requests
    ]
