"""Tests for the task-based schedulers (Capacity / Fair / FIFO) and the
LRA-placement handoff (the two-scheduler contract)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.cluster.topology import ClusterTopology
from repro.taskscheduler import PlacementConflictError, QueueConfig
from repro.taskscheduler.queues import LeafQueue, QueueSystem


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
        qs.enqueue(task("t1", mem=200, queue="q"))
        qs.take_head("q")
        assert queue.utilization() == pytest.approx(0.4)
        qs.refund("q", Resource(200, 1))
        assert queue.used_mb == 0

    def test_max_capacity_enforced(self):
        qs = QueueSystem([QueueConfig("q", 0.5, 0.6)], 1000)
        queue = qs.queue("q")
        qs.enqueue(task("t1", mem=500, queue="q"))
        qs.take_head("q")
        assert queue.used_mb == 500
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

    def test_released_counter_follows_the_ambient_registry(self, isolate_obs):
        from repro.obs.metrics import Metrics, get_metrics, set_metrics

        _, state = build()
        sched = FifoScheduler(state)
        first = get_metrics()
        for tid in ("t1", "t2"):
            sched.submit(task(tid), now=0.0)
        sched.handle_heartbeat("n00000", now=1.0)
        assert "task_released_total" not in first.snapshot()["counters"]
        sched.release_task("t1", now=2.0)
        second = Metrics()
        set_metrics(second)
        sched.release_task("t2", now=3.0)
        assert first.counter("task_released_total").value() == 1
        assert second.counter("task_released_total").value() == 1

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
        # Run one task of queue a first so b is less served.
        sched.submit(task("a0", mem=4096, queue="a"))
        assert len(sched.handle_heartbeat("n00001", now=0.0)) == 1
        sched.submit(task("a1", queue="a"))
        sched.submit(task("b1", queue="b"))
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
        # Run one task of queue a first so b is more under-served.
        sched.submit(task("a0", mem=4096, queue="a"))
        assert len(sched.handle_heartbeat("n00001", now=0.0)) == 1
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

    def test_total_capacity_read_once(self, monkeypatch):
        """The topology is static: Fair reads the cluster total at
        construction, and allocates in the same order without it."""

        def run(patched):
            topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
            sched = FairScheduler(
                ClusterState(topo),
                [QueueConfig("a", 0.5), QueueConfig("b", 0.3), QueueConfig("c", 0.2)],
            )
            if patched:
                monkeypatch.setattr(
                    ClusterTopology, "total_capacity",
                    lambda self: pytest.fail("total_capacity read after construction"),
                )
            order = []
            for k in range(40):
                sched.submit(
                    task(f"t{k}", mem=512 * (1 + k % 5), queue="abc"[k % 3]), now=0.0
                )
            for tick in range(4):
                for node in topo:
                    allocations = sched.handle_heartbeat(node.node_id, now=tick)
                    order += [(a.task_id, a.node_id) for a in allocations]
                if order:
                    sched.release_task(order[-1][0], now=tick + 0.5)
            return order

        expected = run(patched=False)
        assert run(patched=True) == expected
        assert len(expected) > 20


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


QUEUE_SETS = [
    [QueueConfig("q0", 1.0)],
    [QueueConfig("q0", 0.6), QueueConfig("q1", 0.4, 0.5)],
    [QueueConfig("q0", 0.5), QueueConfig("q1", 0.3), QueueConfig("q2", 0.2, 0.3)],
    [QueueConfig(f"q{i}", 0.25, 0.4) for i in range(4)],
]
OPS = st.one_of(
    st.tuples(
        st.just("submit"), st.integers(0, 3),
        st.sampled_from([512, 1024, 2048, 4096]), st.booleans(),
    ),
    st.tuples(st.just("heartbeat"), st.integers(0, 5)),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("flip"), st.integers(0, 5)),
)


def recount(queues: QueueSystem):
    """pending count, non-empty leaves and min head demand, from the deques."""
    leaves = list(queues.queues.values())
    nonempty = tuple(q for q in leaves if q.pending)
    heads = [q.pending[0].resource for q in nonempty]
    bound = (
        (min(r.memory_mb for r in heads), min(r.vcores for r in heads))
        if heads else None
    )
    return sum(len(q.pending) for q in leaves), nonempty, bound


@settings(max_examples=120, deadline=None)
@given(
    policy=st.sampled_from([CapacityScheduler, FairScheduler, FifoScheduler]),
    configs=st.sampled_from(QUEUE_SETS),
    ops=st.lists(OPS, max_size=60),
)
def test_queue_counters_equal_recount(policy, configs, ops):
    """After every submit, heartbeat, release and availability flip, the
    queue system's kept counters equal a recount from the leaf deques."""
    topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
    sched = policy(ClusterState(topo), configs)
    names = [c.name for c in configs]
    running: list[str] = []
    queue_of: dict[str, str] = {}
    for serial, op in enumerate(ops):
        if op[0] == "submit":
            _, q, memory_mb, local = op
            queue_of[f"t{serial}"] = names[q % len(names)]
            sched.submit(
                task(f"t{serial}", mem=memory_mb, queue=queue_of[f"t{serial}"],
                     locality=["n00001"] if local else ()),
                now=float(serial),
            )
        elif op[0] == "heartbeat":
            allocations = sched.handle_heartbeat(f"n{op[1]:05d}", now=float(serial))
            running += [a.task_id for a in allocations]
        elif op[0] == "release" and running:
            sched.release_task(running.pop(op[1] % len(running)), now=float(serial))
        elif op[0] == "flip":
            node = topo.node(f"n{op[1]:05d}")
            node.available = not node.available
        queues = sched.queues
        pending, nonempty, bound = recount(queues)
        assert queues.pending_count() == sched.pending_tasks() == pending
        assert queues.nonempty_queues() == nonempty
        assert queues.min_head_demand() == sched.min_head_demand() == bound
    used = {name: 0 for name in names}
    for task_id in running:
        allocation = sched.state.container(task_id).allocation
        used[queue_of[task_id]] += allocation.resource.memory_mb
    assert {name: q.used_mb for name, q in sched.queues.queues.items()} == used


def test_leaf_queues_cannot_be_written_around_the_queue_system():
    """Only :class:`QueueSystem` changes a leaf: a leaf has no write
    method and hands out a copy of its pending tasks."""
    for name in ("enqueue", "pop_head", "charge", "refund"):
        assert not hasattr(LeafQueue, name), name
    queues = QueueSystem([], 1000)
    queues.enqueue(task("t1"))
    assert isinstance(queues.queue("default").pending, tuple)
