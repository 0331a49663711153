"""Tests for the discrete-event engine and the cluster simulation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import Resource, SerialScheduler, TaskRequest, build_cluster
from repro.sim import ClusterSimulation, SimConfig, SimulationEngine
from tests.helpers import make_lra


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda e: fired.append(5))
        engine.schedule_at(1.0, lambda e: fired.append(1))
        engine.schedule_at(3.0, lambda e: fired.append(3))
        engine.run()
        assert fired == [1, 3, 5]

    def test_fifo_among_simultaneous(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(1.0, lambda e: fired.append("a"))
        engine.schedule_at(1.0, lambda e: fired.append("b"))
        engine.run()
        assert fired == ["a", "b"]

    def test_past_scheduling_rejected(self):
        # NaN fails ``time >= now`` too: a NaN entry at the heap head would
        # end ``run()`` without dispatching what is queued behind it.
        for bad in (1.0, math.nan):
            engine = SimulationEngine()
            engine.schedule_at(5.0, lambda e, bad=bad: e.schedule_at(bad, lambda _: None))
            with pytest.raises(ValueError):
                engine.run()
            with pytest.raises(ValueError):
                engine.call_at(bad, lambda _: None, None)
            assert engine.pending() == 0

    def test_run_until_stops_clock(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda e: fired.append(5))
        engine.schedule_at(15.0, lambda e: fired.append(15))
        end = engine.run(until=10.0)
        assert fired == [5] and end == 10.0
        engine.run()
        assert fired == [5, 15]

    def test_periodic(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(2.0, lambda e: ticks.append(e.now), until=7.0)
        engine.run()
        assert ticks == [2.0, 4.0, 6.0]

    def test_periodic_bad_interval(self):
        for interval in (0, -1.0, math.nan):
            with pytest.raises(ValueError):
                SimulationEngine().schedule_periodic(interval, lambda e: None)

    def test_periodic_returns_cancellable_handle(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.schedule_periodic(2.0, lambda e: ticks.append(e.now))
        assert handle.active
        engine.run(5.0)
        assert ticks == [2.0, 4.0]
        assert handle.fired == 2
        handle.cancel()
        assert not handle.active
        engine.run(20.0)
        assert ticks == [2.0, 4.0]

    def test_periodic_cancel_mid_run_stops_series(self):
        engine = SimulationEngine()
        ticks = []

        def tick(e):
            ticks.append(e.now)
            if len(ticks) == 3:
                handle.cancel()

        handle = engine.schedule_periodic(1.0, tick)
        engine.run(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    @settings(max_examples=20, deadline=None)
    @given(times=st.lists(st.floats(min_value=0, max_value=1e6), max_size=25))
    def test_arbitrary_schedules_fire_sorted(self, times):
        engine = SimulationEngine()
        fired = []
        for t in times:
            engine.schedule_at(t, lambda e, t=t: fired.append(t))
        engine.run()
        assert fired == sorted(fired)


class TestClusterSimulation:
    def make_sim(self, **kw):
        topo = build_cluster(4, racks=2, memory_mb=8 * 1024, vcores=8)
        config = SimConfig(scheduling_interval_s=5.0, horizon_s=100.0)
        return ClusterSimulation(topo, SerialScheduler(), config=config, **kw)

    def test_lra_placed_at_next_cycle(self):
        sim = self.make_sim()
        sim.submit_lra(make_lra("a", containers=2), at=1.0)
        sim.run(20.0)
        assert len(sim.state.containers_of_app("a")) == 2
        assert sim.lra_latencies() == [pytest.approx(4.0)]

    def test_task_lifecycle_frees_resources(self):
        sim = self.make_sim()
        sim.submit_task(
            TaskRequest("t1", "app", Resource(1024, 1), duration_s=3.0), at=0.5
        )
        sim.run(1.5)
        assert "t1" in sim.state.containers
        sim.run(10.0)
        assert "t1" not in sim.state.containers
        assert sim.task_latencies() == [pytest.approx(0.5)]

    def test_lra_teardown_after_duration(self):
        sim = self.make_sim()
        sim.submit_lra(make_lra("a", containers=2), at=1.0, duration_s=10.0)
        sim.run(10.0)
        assert len(sim.state.containers_of_app("a")) == 2
        sim.run(30.0)
        assert len(sim.state.containers_of_app("a")) == 0

    def test_node_availability_flips(self):
        sim = self.make_sim()
        sim.set_node_availability("n00000", False, at=2.0)
        sim.set_node_availability("n00000", True, at=4.0)
        sim.run(3.0)
        assert not sim.state.topology.node("n00000").available
        sim.run(5.0)
        assert sim.state.topology.node("n00000").available

    def test_cycle_observer_called(self):
        sim = self.make_sim()
        calls = []
        sim.cycle_observers.append(lambda s, r: calls.append(len(r)))
        sim.submit_lra(make_lra("a", containers=2), at=1.0)
        sim.run(11.0)
        assert calls and calls[0] == 2

    def test_foreign_task_scheduler_rejected(self):
        from repro import CapacityScheduler, ClusterState

        topo = build_cluster(2)
        foreign = CapacityScheduler(ClusterState(build_cluster(2)))
        with pytest.raises(ValueError):
            ClusterSimulation(topo, SerialScheduler(), task_scheduler=foreign)

    @pytest.mark.parametrize("policy", ["capacity", "fair", "fifo"])
    def test_given_task_scheduler_runs_until_the_queues_drain(self, policy):
        """A task scheduler of any policy, built over the simulation's
        topology, is the simulation's allocator: over-subscribed queues
        drain, every completion releases its task, and the ledger recounts
        clean (with an LRA torn down on the same completion path)."""
        from repro import CapacityScheduler, ClusterState, FairScheduler, FifoScheduler
        from repro.obs.metrics import Metrics
        from repro.taskscheduler import QueueConfig
        from tests.helpers import recount_free

        topo = build_cluster(6, racks=2, memory_mb=8 * 1024, vcores=8)
        state = ClusterState(topo)
        metrics = Metrics()
        queues = (
            QueueConfig("q0", 0.5), QueueConfig("q1", 0.3, 0.6), QueueConfig("q2", 0.2),
        )
        task_scheduler = {
            "capacity": lambda: CapacityScheduler(state, queues, metrics=metrics),
            "fair": lambda: FairScheduler(state, queues, metrics=metrics),
            "fifo": lambda: FifoScheduler(state, metrics=metrics),
        }[policy]()
        sim = ClusterSimulation(
            topo,
            SerialScheduler(),
            task_scheduler=task_scheduler,
            config=SimConfig(scheduling_interval_s=5.0, horizon_s=200.0),
        )
        assert sim.state is state and sim.medea.state is state
        names = list(task_scheduler.queues.queues)
        tasks = 150
        for i in range(tasks):
            sim.submit_task(
                TaskRequest(
                    f"t{i:03d}", f"app-{i % 4}",
                    Resource(1024 * (1 + i % 3), 1 + i % 2),
                    duration_s=1.0 + i % 5,
                    queue=names[i % len(names)],
                ),
                at=float(i // 10),
            )
        sim.submit_lra(make_lra("lra", containers=2), at=1.0, duration_s=20.0)
        sim.run(15.0)
        # The offered load outruns the cluster: tasks wait in the queues.
        assert max(sim.task_latencies()) >= 1.0
        sim.run(200.0)
        assert task_scheduler.pending_tasks() == 0
        assert task_scheduler.completed_count == tasks
        assert metrics.counter("task_released_total").value() == tasks
        assert sim.lra_latencies() and not state.containers
        assert all(q.used_mb == 0 for q in task_scheduler.queues.queues.values())
        free = recount_free(state)
        for node in topo:
            assert state.free_resources(node.node_id) == free[node.node_id]
            assert free[node.node_id] == node.capacity

    def test_nan_interval_rejected(self):
        # A NaN heartbeat interval would otherwise make a run in which no
        # heartbeat ever happens.
        topo = build_cluster(2)
        for config in (SimConfig(heartbeat_interval_s=math.nan),
                       SimConfig(scheduling_interval_s=math.nan)):
            with pytest.raises(ValueError, match="interval"):
                ClusterSimulation(topo, SerialScheduler(), config=config)

    def test_stop_periodic_activity(self):
        sim = self.make_sim()
        sim.submit_lra(make_lra("a", containers=2), at=1.0)
        sim.run(6.0)
        assert sim.heartbeat_handle is not None and sim.heartbeat_handle.active
        sim.stop_periodic_activity()
        sim.submit_lra(make_lra("b", containers=2), at=7.0)
        sim.run(50.0)
        # No further cycles run, so "b" never gets placed.
        assert len(sim.state.containers_of_app("b")) == 0
        assert not sim.cycle_handle.active
