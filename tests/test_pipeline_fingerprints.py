"""Scheduler decisions pinned across commits.

The pipeline benchmark compares output fingerprints between the passes and
repeats of *one* commit; nothing there notices a commit that changes what
the schedulers decide.  ``tests/fixtures/pipeline_fingerprints.json`` holds
the decisions of the commit a scoring change started from, and this test
asserts the current code still makes exactly those: the four benchmark
workloads' smoke fingerprints, the placement lists of the side heuristics,
one migration plan, and two full decision audits (byte-equal as JSON, so
the order of ``pruned`` entries and the float bits of every extent count).

Run as a module, this file writes the fixture; that is only ever done from
a checkout of the parent commit (the command is recorded in CHANGES.md)::

    PYTHONPATH=src:. python -m tests.test_pipeline_fingerprints OUT.json
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import repro
from benchmarks.pipeline.workloads import BATCH, SIDE_BATCHES, Window, make_workload
from repro import (
    ClusterState,
    ConstraintManager,
    Resource,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
)
from repro.core.migration import MigrationPlanner
from tests.helpers import make_lra

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "pipeline_fingerprints.json"
)
WORKLOADS = ("lra_ilp", "lra_heuristic", "sim_tasks", "serve_open")
SEEDS = (0, 1, 2)
SIDE_SCHEDULERS = (
    "NodeCandidatesScheduler",
    "SerialScheduler",
    "JKubeScheduler",
    "JKubePlusPlusScheduler",
)
AUDITED = ("TagPopularityScheduler", "NodeCandidatesScheduler")


def workload_fingerprint(name: str, seed: int) -> str:
    window = make_workload(name, seed, smoke=True).run(1, None)
    assert not window.errors, window.errors
    return window.fingerprint


def _first_batches(make_scheduler):
    """The ``lra_heuristic`` smoke inputs' first batches through one
    scheduler on a fresh filled cluster, committed batch by batch."""
    workload = make_workload("lra_heuristic", 0, smoke=True)
    state, manager, apps, scheduler = workload._setup(Window(), make_scheduler)
    placements = []
    for start in range(0, SIDE_BATCHES * BATCH, BATCH):
        result, _, _ = workload._place_batch(
            state, manager, scheduler, apps[start:start + BATCH], float(start)
        )
        placements.extend([p.container_id, p.node_id] for p in result.placements)
    return state, manager, placements


def side_placements(class_name: str) -> list:
    return _first_batches(getattr(repro, class_name))[2]


def migration_moves() -> list:
    """Repair plan for the same batches placed constraint-blind."""
    state, manager, _ = _first_batches(
        lambda: repro.ConstraintUnawareScheduler(seed=7)
    )
    plan = MigrationPlanner(max_moves=6).plan(state, manager)
    return [
        [m.container_id, m.from_node, m.to_node, repr(m.extent_gain)]
        for m in plan.moves
    ]


def audited_batch(class_name: str) -> dict:
    """One audited batch on 12 nodes where candidates are pruned by
    capacity (three nearly full nodes) and by constraints in both
    directions, with weights that are not sums of powers of two."""
    topology = build_cluster(12, racks=3, memory_mb=8 * 1024, vcores=8)
    state = ClusterState(topology)
    manager = ConstraintManager(topology)
    for i in (0, 5, 7):
        state.allocate(
            f"bg/{i}", f"n{i:05d}", Resource(7 * 1024, 7), ("bg",), "bg",
            long_running=False,
        )
    old = make_lra(
        "old", containers=2, tags={"db"},
        constraints=[anti_affinity("db", "web", "node", weight=1.7)],
    )
    manager.register_application(old)
    for container, node_id in zip(old.containers, ("n00001", "n00008")):
        state.allocate(
            container.container_id, node_id, container.resource,
            container.tags, "old",
        )
    batch = [
        make_lra(
            "a", containers=7, tags={"web"}, memory_mb=2048,
            constraints=[
                anti_affinity("web", "web", "node", weight=0.3),
                cardinality("web", "web", 0, 1, "rack", weight=1.7),
            ],
        ),
        make_lra(
            "b", containers=3, tags={"cache"},
            constraints=[
                affinity("cache", "web", "rack", weight=1.7),
                cardinality("cache", "cache", 0, 1, "node", weight=0.3),
            ],
        ),
    ]
    for request in batch:
        manager.register_application(request)
    result = getattr(repro, class_name)(audit=True).place(batch, state, manager)
    return {
        "placements": [[p.container_id, p.node_id] for p in result.placements],
        "audit": result.audit.to_dict(),
    }


def compute_all() -> dict:
    return {
        "fingerprints": {
            name: {str(seed): workload_fingerprint(name, seed) for seed in SEEDS}
            for name in WORKLOADS
        },
        "side_placements": {name: side_placements(name) for name in SIDE_SCHEDULERS},
        "migration": migration_moves(),
        "audits": {name: audited_batch(name) for name in AUDITED},
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_fingerprint_equals_parent(pinned, name: str, seed: int) -> None:
    assert workload_fingerprint(name, seed) == pinned["fingerprints"][name][str(seed)]


@pytest.mark.parametrize("class_name", SIDE_SCHEDULERS)
def test_side_heuristic_placements_equal_parent(pinned, class_name: str) -> None:
    placements = side_placements(class_name)
    assert placements, class_name
    assert placements == pinned["side_placements"][class_name]


def test_migration_plan_equals_parent(pinned) -> None:
    assert pinned["migration"], "the pinned plan must contain moves"
    assert migration_moves() == pinned["migration"]


@pytest.mark.parametrize("class_name", AUDITED)
def test_decision_audit_is_byte_equal_to_parent(pinned, class_name: str) -> None:
    golden = pinned["audits"][class_name]
    reasons = {
        p["reason"] for d in golden["audit"]["decisions"] for p in d["pruned"]
    }
    assert reasons == {"capacity", "constraint"}
    assert _canonical(audited_batch(class_name)) == _canonical(golden)


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(compute_all(), out, indent=1, sort_keys=True)
        out.write("\n")
