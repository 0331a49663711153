"""Tests for the Medea two-scheduler facade (§3, Fig. 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    CapacityScheduler,
    ClusterState,
    FairScheduler,
    FifoScheduler,
    IlpScheduler,
    MedeaScheduler,
    Resource,
    SerialScheduler,
    TaskRequest,
    build_cluster,
)
from repro.taskscheduler.queues import QueueConfig
from tests.helpers import make_lra


def build_medea(num_nodes=4, mem=8 * 1024, ilp_all=False, scheduler=None,
                max_attempts=3):
    topo = build_cluster(num_nodes, memory_mb=mem, vcores=8)
    state = ClusterState(topo)
    task_sched = CapacityScheduler(state)
    medea = MedeaScheduler(
        state,
        scheduler or SerialScheduler(),
        task_sched,
        ilp_all=ilp_all,
        max_attempts=max_attempts,
    )
    return medea, state


class TestRouting:
    def test_lra_waits_for_cycle(self):
        medea, state = build_medea()
        medea.submit_lra(make_lra("a", containers=2), now=0.0)
        assert medea.pending_lras() == 1
        assert len(state.containers) == 0
        medea.run_cycle(now=10.0)
        assert medea.pending_lras() == 0
        assert len(state.containers) == 2

    def test_task_goes_straight_to_task_scheduler(self):
        medea, state = build_medea()
        medea.submit_task(
            TaskRequest("t1", "app", Resource(1024, 1)), now=0.0
        )
        assert medea.task_scheduler.pending_tasks() == 1
        medea.heartbeat("n00000", now=1.0)
        assert "t1" in state.containers

    def test_ilp_all_routes_tasks_through_lra_path(self):
        medea, state = build_medea(ilp_all=True)
        medea.submit_task(TaskRequest("t1", "app", Resource(1024, 1)), now=0.0)
        assert medea.task_scheduler.pending_tasks() == 0
        assert medea.pending_lras() == 1
        medea.run_cycle(now=10.0)
        assert "t1" in state.containers

    def test_constraints_registered_at_submit(self):
        from repro import affinity

        medea, _ = build_medea()
        req = make_lra("a", constraints=[affinity("x", "y", "node")])
        medea.submit_lra(req)
        assert medea.manager.constraints_of("a")

    def test_mismatched_state_rejected(self):
        topo = build_cluster(2)
        other = ClusterState(build_cluster(2))
        with pytest.raises(ValueError):
            MedeaScheduler(ClusterState(topo), SerialScheduler(), FifoScheduler(other))


class TestSchedulingCycle:
    def test_latency_measured_from_submit(self):
        medea, _ = build_medea()
        medea.submit_lra(make_lra("a"), now=3.0)
        medea.run_cycle(now=10.0)
        assert medea.placed_lra_latencies() == [pytest.approx(7.0)]

    def test_batch_accumulates_between_cycles(self):
        medea, state = build_medea()
        medea.submit_lra(make_lra("a", containers=1), now=0.0)
        medea.submit_lra(make_lra("b", containers=1), now=5.0)
        medea.run_cycle(now=10.0)
        assert len(state.containers) == 2
        assert len(medea.cycle_solve_times) == 1

    def test_empty_cycle_is_cheap(self):
        medea, _ = build_medea()
        result = medea.run_cycle(now=10.0)
        assert len(result) == 0
        assert medea.cycle_solve_times == []

    def test_max_batch_size_caps_periodicity(self):
        """With max_batch_size=2, five pending LRAs need three cycles."""
        topo = build_cluster(8, memory_mb=8 * 1024, vcores=8)
        state = ClusterState(topo)
        medea = MedeaScheduler(
            state, SerialScheduler(), CapacityScheduler(state), max_batch_size=2
        )
        for i in range(5):
            medea.submit_lra(make_lra(f"b{i}", containers=1), now=0.0)
        sizes = []
        while medea.pending_lras():
            result = medea.run_cycle(now=10.0)
            sizes.append(len(result.placed_apps()))
        assert sizes == [2, 2, 1]

    def test_rejected_app_resubmitted(self):
        """An app that doesn't fit stays pending for later cycles."""
        medea, state = build_medea(num_nodes=1, mem=2 * 1024)
        big = make_lra("big", containers=4, memory_mb=1024, vcores=1)
        medea.submit_lra(big, now=0.0)
        medea.run_cycle(now=10.0)
        assert medea.pending_lras() == 1  # resubmitted
        # Free the cluster: a background container was the blocker?  No —
        # capacity itself; expand by releasing nothing and trying again
        # until attempts run out.
        medea.run_cycle(now=20.0)
        medea.run_cycle(now=30.0)
        assert medea.outcomes["big"].dropped
        assert medea.pending_lras() == 0

    def test_drop_unregisters_constraints(self):
        from repro import anti_affinity

        medea, _ = build_medea(num_nodes=1, mem=1024, max_attempts=1)
        req = make_lra(
            "x", containers=4, memory_mb=1024,
            constraints=[anti_affinity("w", "w", "node")],
        )
        medea.submit_lra(req, now=0.0)
        medea.run_cycle(now=10.0)
        assert medea.outcomes["x"].dropped
        assert medea.manager.constraints_of("x") == []

    def test_placement_conflict_triggers_resubmission(self):
        """§5.4: if the state changes between decision and allocation, the
        LRA is resubmitted."""
        medea, state = build_medea(num_nodes=1, mem=4 * 1024)

        class ConflictingScheduler(SerialScheduler):
            """Emits a placement, then a task grabs the node first."""

            def place(self, requests, state_, manager, *, now=0.0):
                result = super().place(requests, state_, manager, now=now)
                # Simulate the race: a task lands on the target node after
                # the decision but before allocation.
                state_.allocate(
                    "sneaky-task", "n00000", Resource(3 * 1024, 1), ("task",),
                    "bg", long_running=False,
                )
                return result

        medea.lra_scheduler = ConflictingScheduler()
        medea.submit_lra(make_lra("a", containers=2, memory_mb=1024), now=0.0)
        medea.run_cycle(now=10.0)
        assert medea.pending_lras() == 1
        assert medea.outcomes["a"].placed_time is None
        # Remove the interloper; the resubmitted app lands next cycle.
        state.release("sneaky-task")
        medea.lra_scheduler = SerialScheduler()
        medea.run_cycle(now=20.0)
        assert medea.outcomes["a"].placed_time == 20.0


class TestLraLifecycle:
    def test_complete_releases_and_unregisters(self):
        from repro import affinity

        medea, state = build_medea()
        req = make_lra("a", containers=2, constraints=[affinity("x", "y", "node")])
        medea.submit_lra(req)
        medea.run_cycle(now=10.0)
        medea.complete_lra("a")
        assert len(state.containers) == 0
        assert medea.manager.constraints_of("a") == []

    def test_heartbeat_all(self):
        medea, state = build_medea()
        for i in range(3):
            medea.submit_task(TaskRequest(f"t{i}", "app", Resource(1024, 1)))
        allocations = medea.heartbeat_all(now=1.0)
        assert len(allocations) == 3


POLICIES = {"capacity": CapacityScheduler, "fair": FairScheduler, "fifo": FifoScheduler}
#: Leaf queues per policy; Capacity gets unequal guarantees (and one capped
#: queue), so its least-served-first order moves as tasks are charged.
QUEUES = {
    "capacity": [
        [QueueConfig("q0", 0.6), QueueConfig("q1", 0.4)],
        [QueueConfig("q0", 0.5), QueueConfig("q1", 0.3, 0.5), QueueConfig("q2", 0.2)],
    ],
    "fair": [[QueueConfig("q0", 0.7), QueueConfig("q1", 0.3)]],
    "fifo": [[QueueConfig("q0", 1.0)]],
}
SIZES = [(512, 1), (1024, 1), (1024, 4), (2048, 2), (4096, 1), (6144, 3)]


@st.composite
def heartbeat_scenarios(draw):
    """A cluster with background load and down nodes, plus two rounds of
    task arrivals of random sizes (so the queue-head bound both tightens
    and loosens), optionally with locality preferences."""
    policy = draw(st.sampled_from(sorted(POLICIES)))
    queues = draw(st.sampled_from(QUEUES[policy]))
    nodes = draw(st.integers(3, 14))
    node_ids = [f"n{i:05d}" for i in range(nodes)]
    places = node_ids + ["rack-0", "rack-1"]
    with_locality = draw(st.booleans())

    def tasks(prefix):
        out = []
        for k in range(draw(st.integers(1, 30))):
            size = draw(st.sampled_from(SIZES))
            queue = draw(st.sampled_from(queues)).name
            locality = ()
            if with_locality and draw(st.booleans()):
                locality = (draw(st.sampled_from(places)),)
            out.append(TaskRequest(f"{prefix}{k}", "app", Resource(*size), locality, queue=queue))
        return out

    return {
        "policy": policy,
        "queues": queues,
        "nodes": nodes,
        "down": draw(st.sets(st.sampled_from(node_ids), max_size=nodes // 2)),
        "fill": draw(st.lists(st.tuples(st.sampled_from(node_ids), st.sampled_from(SIZES)), max_size=nodes)),
        "rounds": [tasks("a"), tasks("b")],
        "release_every": draw(st.integers(1, 3)),
    }


def reference_heartbeat_all(medea, now):
    """The loop ``heartbeat_all`` stands for: every available node in
    topology order, stopping once the queues drain."""
    allocations = []
    for node in medea.state.topology:
        if medea.task_scheduler.pending_tasks() == 0:
            break
        if node.available:
            allocations.extend(medea.heartbeat(node.node_id, now))
    return allocations


def run_scenario(scenario, heartbeat_all):
    topology = build_cluster(scenario["nodes"], racks=2, memory_mb=8 * 1024, vcores=8)
    state = ClusterState(topology)
    task_scheduler = POLICIES[scenario["policy"]](state, scenario["queues"])
    medea = MedeaScheduler(state, SerialScheduler(), task_scheduler)
    for k, (node_id, size) in enumerate(scenario["fill"]):
        if state.can_fit(node_id, Resource(*size)):
            state.allocate(f"bg{k}", node_id, Resource(*size), ("bg",), "bg")
    for node_id in sorted(scenario["down"]):
        topology.node(node_id).available = False
    trail = []
    for round_no, tasks in enumerate(scenario["rounds"]):
        now = float(round_no + 1)
        for task in tasks:
            medea.submit_task(task, now=now - 0.5)
        # Several heartbeat rounds: tasks left over from one (locality
        # skips, full nodes) are offered again in the next.
        allocated = []
        for tick in range(3):
            allocations = heartbeat_all(medea, now + tick / 10)
            trail.append((allocations, state.fingerprint()))
            allocated.extend(allocations)
        for allocation in allocated[:: scenario["release_every"]]:
            task_scheduler.release_task(allocation.task_id, now=now + 0.5)
    pending = [
        [t.task_id for t in queue.pending]
        for queue in task_scheduler.queues.queues.values()
    ]
    return trail, pending, state.fingerprint()


@settings(max_examples=150, deadline=None)
@given(scenario=heartbeat_scenarios())
def test_heartbeat_all_equals_plain_loop(scenario):
    """``heartbeat_all``'s fast paths (empty-queue exit, drain exit, the
    demand-bound skip mask and its re-screens) allocate exactly what a
    heartbeat to every available node would, in the same order, and leave
    the queues in the same state."""
    fast = run_scenario(scenario, lambda medea, now: medea.heartbeat_all(now))
    plain = run_scenario(scenario, reference_heartbeat_all)
    assert fast == plain


class TestWithIlpScheduler:
    def test_end_to_end_with_constraints(self):
        from repro import anti_affinity, evaluate_violations

        medea, state = build_medea(scheduler=IlpScheduler())
        req = make_lra(
            "a", containers=3, tags={"w"},
            constraints=[anti_affinity("w", "w", "node")],
        )
        medea.submit_lra(req, now=0.0)
        medea.run_cycle(now=10.0)
        report = evaluate_violations(state, manager=medea.manager)
        assert report.subject_containers == 3
        assert report.violating_containers == 0
