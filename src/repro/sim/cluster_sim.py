"""Cluster simulation: Medea running against simulated machines.

Wires the discrete-event engine to the Medea facade: node heartbeats drive
the task-based scheduler, scheduling cycles drive the LRA scheduler, task
containers complete after their duration, and LRAs optionally tear down.
Both series tick on a fixed time grid but skip the work of a tick with no
demand (no queued tasks / no pending LRAs), so idle heartbeats cost one
heap operation; such ticks emit no ``sim.state_hash``.
Machine unavailability traces can be replayed to take nodes down and up
(used by the resilience experiments).

Every layer emits through the installed :class:`~repro.obs.Tracer`: the
engine stamps ``engine.dispatch`` events, the facade the LRA lifecycle, the
schedulers and the solver their decisions, and the simulation itself emits
``sim.state_hash`` (the per-tick placement fingerprint + utilisation
aggregates the replayer and timeline consume), ``task.finish`` and
``sim.node_availability`` transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cluster.state import ClusterState
from ..cluster.topology import ClusterTopology
from ..core.medea import MedeaScheduler
from ..core.requests import LRARequest, TaskRequest
from ..core.scheduler import LRAScheduler
from ..obs.events import EventKind
from ..obs.metrics import Metrics
from ..obs.spans import span
from ..obs.session import default_watchdog
from ..obs.trace import get_tracer
from ..obs.watchdog import Watchdog
from ..taskscheduler.base import TaskBasedScheduler
from ..taskscheduler.capacity import CapacityScheduler
from .engine import PeriodicHandle, SimulationEngine

__all__ = ["ClusterSimulation", "SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Timing knobs for a simulation run."""

    scheduling_interval_s: float = 10.0
    heartbeat_interval_s: float = 1.0
    #: Hard stop for periodic activity; ``run()`` may stop earlier.
    horizon_s: float = 3600.0


class ClusterSimulation:
    """One simulated cluster with a Medea scheduler on top.

    The task-based scheduler defaults to a single-queue
    :class:`CapacityScheduler` over a fresh :class:`ClusterState`.  A
    ``task_scheduler`` built over ``topology`` (any policy, any queues)
    brings its own state, and the simulation runs on that state; one built
    over another topology is rejected.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        lra_scheduler: LRAScheduler,
        *,
        task_scheduler: TaskBasedScheduler | None = None,
        config: SimConfig | None = None,
        ilp_all: bool = False,
        metrics: Metrics | None = None,
        watchdog: Watchdog | None = None,
    ) -> None:
        self.config = config or SimConfig()
        if task_scheduler is None:
            task_scheduler = CapacityScheduler(ClusterState(topology), metrics=metrics)
        elif task_scheduler.state.topology is not topology:
            raise ValueError("task scheduler must be built over the simulation topology")
        self.task_scheduler = task_scheduler
        self.state = task_scheduler.state
        self.medea = MedeaScheduler(
            self.state,
            lra_scheduler,
            self.task_scheduler,
            scheduling_interval_s=self.config.scheduling_interval_s,
            ilp_all=ilp_all,
            metrics=metrics,
        )
        self.engine = SimulationEngine()
        self._task_durations: dict[str, float] = {}
        self._lra_durations: dict[str, float] = {}
        #: Observers called after every LRA scheduling cycle with (sim, result).
        self.cycle_observers: list[Callable] = []
        #: Online invariant monitor; ``None`` (the default, unless the open
        #: observability session arms one) keeps the hot path check-free.
        self.watchdog = watchdog if watchdog is not None else default_watchdog()
        # Heartbeats are installed before cycles: when both series share a
        # timestamp the heap breaks the tie by creation sequence.
        self.heartbeat_handle: PeriodicHandle = self.engine.schedule_periodic(
            self.config.heartbeat_interval_s,
            self._heartbeat_tick,
            until=self.config.horizon_s,
            # An armed watchdog checks invariants every tick, so it counts
            # as demand: corruption on an idle tick is caught at that tick.
            demand=lambda: (
                self.watchdog is not None
                or self.task_scheduler.pending_tasks() > 0
            ),
        )
        self.cycle_handle: PeriodicHandle = self.engine.schedule_periodic(
            self.config.scheduling_interval_s,
            self._cycle_tick,
            until=self.config.horizon_s,
            demand=lambda: self.medea.pending_lras() > 0,
        )

    # -- periodic machinery ------------------------------------------------------

    def stop_periodic_activity(self) -> None:
        """Cancel the heartbeat and scheduling-cycle series (teardown)."""
        self.heartbeat_handle.cancel()
        self.cycle_handle.cancel()

    def _heartbeat_tick(self, engine: SimulationEngine) -> None:
        with span("sim.heartbeat", time=engine.now):
            self._heartbeat_tick_impl(engine)

    def _heartbeat_tick_impl(self, engine: SimulationEngine) -> None:
        allocations = self.medea.heartbeat_all(engine.now)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.SIM_STATE_HASH,
                time=engine.now,
                data=self._state_hash_data(),
            )
        # A completion is a handle-free ``(time, seq, _finish_task, task_id)``
        # queue entry: nothing cancels it, so it needs no closure or handle.
        durations = self._task_durations
        call_at = engine.call_at
        finish = self._finish_task
        now = engine.now
        for allocation in allocations:
            task_id = allocation.task_id
            duration = durations.pop(task_id, None)
            if duration is not None:
                call_at(now + duration, finish, task_id)
        # Online invariant checks ride the same heartbeat that drives the
        # task scheduler: corruption is caught at the tick it happens, not
        # in a post-mortem replay.
        if self.watchdog is not None:
            self.watchdog.check(self, now=engine.now)

    def _cycle_tick(self, engine: SimulationEngine) -> None:
        with span("sim.cycle", time=engine.now):
            self._cycle_tick_impl(engine)

    def _cycle_tick_impl(self, engine: SimulationEngine) -> None:
        result = self.medea.run_cycle(now=engine.now)
        for placement in result.placements:
            app_id = placement.app_id
            duration = self._lra_durations.get(app_id)
            if duration is not None:
                # Schedule teardown once per app (pop marks it scheduled).
                self._lra_durations.pop(app_id)
                engine.call_at(engine.now + duration, self._finish_lra, app_id)
        for observer in self.cycle_observers:
            observer(self, result)

    def _state_hash_data(self) -> dict:
        """Deterministic payload of one ``sim.state_hash`` event: the
        placement-map fingerprint the replayer cross-checks, plus the
        utilisation / queue-depth aggregates the timeline buckets."""
        state = self.state
        down = state.down_node_ids()
        return {
            "hash": state.fingerprint(),
            "containers": len(state.containers),
            "utilization": round(state.cluster_memory_utilization(), 6),
            "utilization_by_rack": {
                rack: round(util, 6)
                for rack, util in state.rack_memory_utilization().items()
            },
            "pending_tasks": self.task_scheduler.pending_tasks(),
            "pending_lras": self.medea.pending_lras(),
            "nodes_down": len(down),
        }

    def _finish_task(self, task_id: str) -> None:
        # The task may already be gone if the run was torn down.
        if task_id in self.state.containers:
            now = self.engine.now
            self.task_scheduler.release_task(task_id, now=now)
            tracer = get_tracer()
            if tracer.enabled and tracer.wants(EventKind.TASK_FINISH, task_id):
                tracer.emit(
                    EventKind.TASK_FINISH,
                    time=now,
                    data={"task_id": task_id},
                )

    def _finish_lra(self, app_id: str) -> None:
        self.medea.complete_lra(app_id, now=self.engine.now)

    # -- submissions ------------------------------------------------------------------

    def submit_lra(
        self, request: LRARequest, *, at: float = 0.0, duration_s: float | None = None
    ) -> None:
        if duration_s is not None:
            self._lra_durations[request.app_id] = duration_s
        self.engine.schedule_at(
            at, lambda engine, r=request: self.medea.submit_lra(r, now=engine.now)
        )

    def submit_task(self, task: TaskRequest, *, at: float = 0.0) -> None:
        self._task_durations[task.task_id] = task.duration_s
        self.engine.schedule_at(
            at, lambda engine, t=task: self.medea.submit_task(t, now=engine.now)
        )

    def submit_task_now(self, task: TaskRequest) -> None:
        """Submit a task at the current simulated time, from *inside* an
        engine callback.  Streaming arrival generators at scale use this
        (one callback submits a whole batch) instead of pre-scheduling one
        event per task, which would hold the entire workload in the heap."""
        self._task_durations[task.task_id] = task.duration_s
        self.medea.submit_task(task, now=self.engine.now)

    def set_node_availability(self, node_id: str, up: bool, *, at: float) -> None:
        """Replay one unavailability transition from a failure trace."""

        def flip(engine: SimulationEngine) -> None:
            self.state.topology.node(node_id).available = up
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    EventKind.NODE_AVAILABILITY,
                    time=engine.now,
                    data={"node_id": node_id, "up": up},
                )

        self.engine.schedule_at(at, flip)

    # -- running ---------------------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        return self.engine.run(until if until is not None else self.config.horizon_s)

    # -- convenience metrics ------------------------------------------------------------

    def task_latencies(self) -> list[float]:
        return [a.latency_s for a in self.task_scheduler.completed_allocations]

    def lra_latencies(self) -> list[float]:
        return self.medea.placed_lra_latencies()
