"""Tests for the task-based schedulers (Capacity / Fair / FIFO) and the
LRA-placement handoff (the two-scheduler contract)."""

from __future__ import annotations

import pytest

from repro import (
    CapacityScheduler,
    ClusterState,
    ContainerPlacement,
    FairScheduler,
    FifoScheduler,
    Resource,
    TaskRequest,
    build_cluster,
)
from repro.taskscheduler import PlacementConflictError, QueueConfig
from repro.taskscheduler.queues import QueueSystem


def task(tid, mem=1024, queue="default", locality=(), app=None):
    return TaskRequest(
        task_id=tid,
        app_id=app or f"app-{tid}",
        resource=Resource(mem, 1),
        locality=tuple(locality),
        queue=queue,
    )


def build(num_nodes=4, mem=4 * 1024, cores=4):
    topo = build_cluster(num_nodes, memory_mb=mem, vcores=cores)
    return topo, ClusterState(topo)


class TestQueueSystem:
    def test_default_queue_created(self):
        qs = QueueSystem([], 1000)
        assert "default" in qs.queues

    def test_capacity_accounting(self):
        qs = QueueSystem([QueueConfig("q", 0.5)], 1000)
        queue = qs.queue("q")
        assert queue.guaranteed_mb == 500
        queue.charge(Resource(200, 1))
        assert queue.utilization() == pytest.approx(0.4)
        queue.refund(Resource(200, 1))
        assert queue.used_mb == 0

    def test_max_capacity_enforced(self):
        qs = QueueSystem([QueueConfig("q", 0.5, 0.6)], 1000)
        queue = qs.queue("q")
        queue.charge(Resource(500, 1))
        assert not queue.can_use(Resource(200, 1))
        assert queue.can_use(Resource(100, 1))

    def test_oversubscribed_capacities_rejected(self):
        with pytest.raises(ValueError):
            QueueSystem([QueueConfig("a", 0.7), QueueConfig("b", 0.7)], 1000)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            QueueConfig("q", 0.0)
        with pytest.raises(ValueError):
            QueueConfig("q", 0.5, 0.4)

    def test_unknown_queue_raises(self):
        with pytest.raises(KeyError):
            QueueSystem([], 1000).queue("nope")


class TestHeartbeatAllocation:
    def test_task_allocated_on_heartbeat(self):
        _, state = build()
        sched = FifoScheduler(state)
        sched.submit(task("t1"), now=0.0)
        allocations = sched.handle_heartbeat("n00000", now=2.0)
        assert len(allocations) == 1
        assert allocations[0].latency_s == pytest.approx(2.0)
        assert "t1" in state.containers

    def test_node_filled_until_capacity(self):
        _, state = build(num_nodes=1, mem=4 * 1024, cores=4)
        sched = FifoScheduler(state)
        for i in range(6):
            sched.submit(task(f"t{i}"), now=0.0)
        allocations = sched.handle_heartbeat("n00000", now=1.0)
        assert len(allocations) == 4  # 4 GB / 4 cores
        assert sched.pending_tasks() == 2

    def test_release_refunds_queue_and_node(self):
        _, state = build()
        sched = FifoScheduler(state)
        sched.submit(task("t1"), now=0.0)
        sched.handle_heartbeat("n00000", now=1.0)
        sched.release_task("t1", now=0.0)
        assert "t1" not in state.containers
        assert sched.queues.queue("default").used_mb == 0

    def test_unavailable_node_gets_nothing(self):
        topo, state = build()
        topo.node("n00000").available = False
        sched = FifoScheduler(state)
        sched.submit(task("t1"))
        assert sched.handle_heartbeat("n00000", now=1.0) == []

    def test_task_tagged_as_short_running(self):
        _, state = build()
        sched = FifoScheduler(state)
        sched.submit(task("t1"))
        sched.handle_heartbeat("n00000", now=0.0)
        placed = state.container("t1")
        assert not placed.allocation.long_running
        assert "task" in placed.allocation.tags


class TestCapacityScheduler:
    def test_least_served_queue_first(self):
        _, state = build()
        sched = CapacityScheduler(
            state, [QueueConfig("a", 0.5), QueueConfig("b", 0.5)]
        )
        sched.submit(task("a1", queue="a"))
        sched.submit(task("b1", queue="b"))
        # Pre-charge queue a so b is less served.
        sched.queues.queue("a").charge(Resource(4096, 1))
        allocations = sched.handle_heartbeat("n00000", now=0.0)
        assert allocations[0].task_id == "b1"

    def test_locality_delay_then_relax(self):
        _, state = build()
        sched = CapacityScheduler(state)
        sched.submit(task("t1", locality=["n00003"]))
        # Non-matching heartbeats are skipped until the delay expires.
        assert sched.handle_heartbeat("n00000", now=0.0) == []
        assert sched.handle_heartbeat("n00001", now=1.0) == []
        assert sched.handle_heartbeat("n00002", now=2.0) == []
        allocations = sched.handle_heartbeat("n00001", now=3.0)
        assert len(allocations) == 1  # relaxed to any node

    def test_preferred_node_taken_immediately(self):
        _, state = build()
        sched = CapacityScheduler(state)
        sched.submit(task("t1", locality=["n00002"]))
        allocations = sched.handle_heartbeat("n00002", now=0.0)
        assert len(allocations) == 1

    def test_rack_preference_matches(self):
        topo, state = build()
        sched = CapacityScheduler(state)
        rack = topo.node("n00001").rack
        sched.submit(task("t1", locality=[rack]))
        allocations = sched.handle_heartbeat("n00001", now=0.0)
        assert len(allocations) == 1


class TestFairScheduler:
    def test_most_underserved_first(self):
        _, state = build()
        sched = FairScheduler(
            state, [QueueConfig("a", 0.5), QueueConfig("b", 0.5)]
        )
        sched.queues.queue("a").charge(Resource(8192, 1))
        sched.submit(task("a1", queue="a"))
        sched.submit(task("b1", queue="b"))
        allocations = sched.handle_heartbeat("n00000", now=0.0)
        assert allocations[0].task_id == "b1"

    def test_ties_broken_by_name(self):
        _, state = build()
        sched = FairScheduler(
            state, [QueueConfig("a", 0.5), QueueConfig("b", 0.5)]
        )
        sched.submit(task("b1", queue="b"))
        sched.submit(task("a1", queue="a"))
        allocations = sched.handle_heartbeat("n00000", now=0.0)
        assert allocations[0].task_id == "a1"


class TestLraHandoff:
    def placement(self, node="n00000", cid="lra/c0", mem=1024):
        return ContainerPlacement(
            app_id="lra",
            container_id=cid,
            node_id=node,
            resource=Resource(mem, 1),
            tags=frozenset({"w"}),
        )

    def test_apply_placement(self):
        _, state = build()
        sched = FifoScheduler(state)
        sched.apply_lra_placement(self.placement())
        placed = state.container("lra/c0")
        assert placed.allocation.long_running

    def test_conflict_raises(self):
        _, state = build(num_nodes=1, mem=1024)
        sched = FifoScheduler(state)
        sched.apply_lra_placement(self.placement(mem=1024))
        with pytest.raises(PlacementConflictError):
            sched.apply_lra_placement(self.placement(cid="lra/c1", mem=1024))

    def test_batch_rolls_back_on_conflict(self):
        _, state = build(num_nodes=1, mem=2 * 1024)
        sched = FifoScheduler(state)
        placements = [
            self.placement(cid="lra/c0", mem=1024),
            self.placement(cid="lra/c1", mem=1024),
            self.placement(cid="lra/c2", mem=1024),  # does not fit
        ]
        with pytest.raises(PlacementConflictError):
            sched.apply_lra_placements(placements)
        assert len(state.containers) == 0
