"""The Medea two-scheduler facade (paper §3, Fig. 4).

Ties together the four design components: the LRA interface (submission
routing), the dedicated LRA scheduler invoked at a configurable interval,
the constraint manager, and the task-based scheduler that performs every
actual allocation.

Flow per scheduling cycle (Fig. 4 steps 1–3):

1. the LRA scheduler computes placements for the LRAs submitted during the
   last interval, reading the live cluster state and the constraint manager;
2. placements are handed, per application, to the task-based scheduler;
3. the task-based scheduler performs the allocation.  If the state changed
   in between (task containers grabbed the resources) the allocation raises
   a conflict and Medea *resubmits the LRA* — the paper's chosen conflict
   policy (§5.4).

The ``ilp_all`` mode removes the two-scheduler split: task requests are
wrapped as single-container LRAs and pushed through the LRA scheduler,
reproducing the ILP-ALL baseline of Fig. 11b.

Observability: the facade emits the LRA lifecycle trace (``lra.submit`` /
``lra.place`` / ``lra.reject`` / ``lra.conflict`` / ``lra.resubmit`` /
``lra.drop`` / ``lra.complete``) and the cycle envelope (``cycle.start`` /
``cycle.end``) — the lifecycle's only record; the metrics registry counts
none of it again.  Clock arguments follow the unified convention —
keyword-only ``now: float``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.state import ClusterState
from ..obs.events import EventKind
from ..obs.metrics import Metrics, get_metrics
from ..obs.spans import span
from ..obs.trace import Tracer, get_tracer
from ..taskscheduler.base import PlacementConflictError, TaskBasedScheduler
from .constraint_manager import ConstraintManager
from .requests import ContainerRequest, LRARequest, TaskRequest
from .scheduler import LRAScheduler, PlacementResult

__all__ = ["MedeaScheduler", "LraOutcome"]


@dataclass
class LraOutcome:
    """Fate of one submitted LRA."""

    app_id: str
    submit_time: float
    placed_time: float | None = None
    attempts: int = 0
    dropped: bool = False

    @property
    def scheduling_latency_s(self) -> float | None:
        if self.placed_time is None:
            return None
        return self.placed_time - self.submit_time


class MedeaScheduler:
    """Orchestrates the LRA scheduler and the task-based scheduler."""

    def __init__(
        self,
        state: ClusterState,
        lra_scheduler: LRAScheduler,
        task_scheduler: TaskBasedScheduler,
        *,
        scheduling_interval_s: float = 10.0,
        max_attempts: int = 3,
        ilp_all: bool = False,
        max_batch_size: int | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        if task_scheduler.state is not state:
            raise ValueError("task scheduler must share the Medea cluster state")
        self.state = state
        self.lra_scheduler = lra_scheduler
        self.task_scheduler = task_scheduler
        self.manager = ConstraintManager(state.topology)
        self.scheduling_interval_s = scheduling_interval_s
        self.max_attempts = max_attempts
        self.ilp_all = ilp_all
        #: Optional cap on LRAs considered per cycle (the paper's
        #: "periodicity" — how many applications one scheduling interval
        #: accumulates).  ``None`` takes everything pending.
        self.max_batch_size = max_batch_size
        self._pending: list[LRARequest] = []
        self.outcomes: dict[str, LraOutcome] = {}
        #: Wall-clock solve time of each LRA scheduling cycle.
        self.cycle_solve_times: list[float] = []
        self._last_cycle_time: float = 0.0
        #: Explicit metrics registry; ``None`` falls back to the ambient one.
        self._metrics = metrics

    @property
    def metrics(self) -> Metrics:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- submission routing (the LRA interface, §3) -----------------------------

    def submit_lra(self, request: LRARequest, *, now: float = 0.0) -> None:
        """Queue an LRA for the next scheduling cycle and register its
        constraints with the constraint manager."""
        self.manager.register_application(request)
        self._pending.append(request)
        self.outcomes.setdefault(request.app_id, LraOutcome(request.app_id, now))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.LRA_SUBMIT,
                time=now,
                data={
                    "app_id": request.app_id,
                    "containers": len(request.containers),
                    "constraints": len(request.constraints)
                    + len(request.compound_constraints),
                },
            )

    def submit_task(self, task: TaskRequest, *, now: float = 0.0) -> None:
        """Route a plain task request.

        Normally it goes straight to the task-based scheduler; under
        ``ilp_all`` it is wrapped as a constraint-free single-container LRA
        and waits for the optimisation cycle like everything else.
        """
        if not self.ilp_all:
            self.task_scheduler.submit(task, now)
            return
        wrapped = LRARequest(
            app_id=f"task-wrap-{task.task_id}",
            containers=[
                ContainerRequest(
                    container_id=task.task_id,
                    resource=task.resource,
                    tags=frozenset({"task"}),
                )
            ],
        )
        self.submit_lra(wrapped, now=now)

    def pending_lras(self) -> int:
        return len(self._pending)

    # -- the scheduling cycle -----------------------------------------------------

    def run_cycle(self, *, now: float = 0.0) -> PlacementResult:
        """Invoke the LRA scheduler on everything queued since the last
        cycle, then allocate through the task-based scheduler."""
        self._last_cycle_time = now
        tracer = get_tracer()
        pending_lras = len(self._pending)
        if tracer.enabled:
            tracer.emit(
                EventKind.SCHEDULER_QUEUE,
                time=now,
                data={
                    "scheduler": self.lra_scheduler.name,
                    "pending_lras": pending_lras,
                    "pending_tasks": self.task_scheduler.pending_tasks(),
                },
            )
        if not self._pending:
            return PlacementResult()
        if self.max_batch_size is None:
            batch, self._pending = self._pending, []
        else:
            batch = self._pending[: self.max_batch_size]
            self._pending = self._pending[self.max_batch_size:]
        with span(
            "medea.cycle",
            time=now,
            scheduler=self.lra_scheduler.name,
        ):
            return self._run_cycle_batch(batch, now, tracer)

    def _run_cycle_batch(
        self, batch: list[LRARequest], now: float, tracer: Tracer
    ) -> PlacementResult:
        if tracer.enabled:
            tracer.emit(
                EventKind.CYCLE_START,
                time=now,
                data={
                    "scheduler": self.lra_scheduler.name,
                    "batch": sorted(r.app_id for r in batch),
                    "still_pending": len(self._pending),
                },
            )
        result = self.lra_scheduler.timed_place(
            batch, self.state, self.manager, now=now, metrics=self.metrics
        )
        self.cycle_solve_times.append(result.solve_time_s)

        by_app: dict[str, list] = {}
        for placement in result.placements:
            by_app.setdefault(placement.app_id, []).append(placement)

        requests_by_id = {r.app_id: r for r in batch}
        placed_apps: list[str] = []
        conflicted_apps: list[str] = []
        for app_id, placements in by_app.items():
            outcome = self.outcomes[app_id]
            outcome.attempts += 1
            try:
                self.task_scheduler.apply_lra_placements(placements)
            except PlacementConflictError:
                conflicted_apps.append(app_id)
                if tracer.enabled:
                    tracer.emit(
                        EventKind.LRA_CONFLICT,
                        time=now,
                        data={"app_id": app_id, "attempt": outcome.attempts},
                    )
                self._resubmit(requests_by_id[app_id], outcome, now)
            else:
                outcome.placed_time = now
                placed_apps.append(app_id)
                if tracer.enabled:
                    tracer.emit(
                        EventKind.LRA_PLACE,
                        time=now,
                        data={
                            "app_id": app_id,
                            "attempt": outcome.attempts,
                            "nodes": sorted({p.node_id for p in placements}),
                            "containers": len(placements),
                            # Full container → node map so the trace alone
                            # suffices to reconstruct cluster state (replay).
                            "placements": sorted(
                                [p.container_id, p.node_id] for p in placements
                            ),
                        },
                    )

        for app_id in result.rejected_apps:
            outcome = self.outcomes[app_id]
            outcome.attempts += 1
            if tracer.enabled:
                tracer.emit(
                    EventKind.LRA_REJECT,
                    time=now,
                    data={"app_id": app_id, "attempt": outcome.attempts},
                )
            self._resubmit(requests_by_id[app_id], outcome, now)
        if tracer.enabled:
            # Audit the live state against the active constraints so every
            # cycle's trace carries the paper's Fig. 9 signal.
            from ..obs.violations import evaluate_violations

            violation_report = evaluate_violations(
                self.state, manager=self.manager, metrics=self.metrics
            )
            tracer.emit(
                EventKind.CYCLE_END,
                time=now,
                data={
                    "scheduler": self.lra_scheduler.name,
                    "placed": sorted(placed_apps),
                    "rejected": sorted(result.rejected_apps),
                    "conflicted": sorted(conflicted_apps),
                    "violations": violation_report.violating_containers,
                    "violation_subjects": violation_report.subject_containers,
                },
                wall={"solve_time_s": result.solve_time_s},
            )
        return result

    def _resubmit(
        self, request: LRARequest, outcome: LraOutcome, now: float = 0.0
    ) -> None:
        tracer = get_tracer()
        if outcome.attempts >= self.max_attempts:
            outcome.dropped = True
            self.manager.unregister_application(request.app_id)
            if tracer.enabled:
                tracer.emit(
                    EventKind.LRA_DROP,
                    time=now,
                    data={"app_id": request.app_id, "attempts": outcome.attempts},
                )
            return
        self._pending.append(request)
        if tracer.enabled:
            tracer.emit(
                EventKind.LRA_RESUBMIT,
                time=now,
                data={"app_id": request.app_id, "attempt": outcome.attempts},
            )

    # -- LRA teardown -----------------------------------------------------------

    def complete_lra(self, app_id: str, *, now: float = 0.0) -> None:
        """Release an LRA's containers and drop its constraints."""
        released = self.state.release_application(app_id)
        self.manager.unregister_application(app_id)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.LRA_COMPLETE,
                time=now,
                data={
                    "app_id": app_id,
                    "containers": len(released),
                    "released": sorted(c.container_id for c in released),
                },
            )

    # -- heartbeats --------------------------------------------------------------

    def heartbeat(self, node_id: str, now: float):
        """Forward a node heartbeat to the task-based scheduler (task
        containers are allocated here, never in the LRA path)."""
        return self.task_scheduler.handle_heartbeat(node_id, now)

    def heartbeat_all(self, now: float):
        """Heartbeat every available node, in topology order.

        Three equivalence-preserving fast paths keep this O(cluster size)
        loop off the hot path at 10k nodes:

        * nothing queued → return immediately (a heartbeat with empty
          queues is a strict no-op);
        * once the queues drain mid-loop, the remaining heartbeats are
          skipped for the same reason;
        * when the task scheduler reports the skip is side-effect-free
          (no delay scheduling in play), nodes whose free vector is below
          the element-wise minimum queue-head demand are skipped — no head
          can fit there, so their heartbeat could not allocate.  The skip
          test is one vectorised compare over the state's free arrays.

        The rest of the cluster is re-screened only when an allocation
        *loosens* the bound (lowers it in memory or vcores).  Otherwise the
        current mask is still a superset of the nodes a head could fit, and
        heartbeats on the extra nodes are strict no-ops while
        ``demand_bound_safe()`` holds: the selected task is a queue head that
        does not fit (no ``_select_task`` has side effects without locality).
        Allocations change only the current node, so the mask over the nodes
        ahead stays valid.
        """
        allocations = []
        task_scheduler = self.task_scheduler
        if task_scheduler.pending_tasks() == 0:
            return allocations
        arrays = self.state.arrays
        node_ids = arrays.node_ids
        if not task_scheduler.demand_bound_safe():
            for idx in arrays.avail.nonzero()[0].tolist():
                allocs = self.heartbeat(node_ids[idx], now)
                if allocs:
                    allocations.extend(allocs)
                    if task_scheduler.pending_tasks() == 0:
                        break
            return allocations
        bound = task_scheduler.min_head_demand()
        total = len(node_ids)
        start = 0
        while start < total:
            mask = (
                arrays.avail[start:]
                & (arrays.free_mem[start:] >= bound[0])
                & (arrays.free_vc[start:] >= bound[1])
            )
            for offset in mask.nonzero()[0]:
                idx = start + int(offset)
                allocs = self.heartbeat(node_ids[idx], now)
                if allocs:
                    allocations.extend(allocs)
                    if task_scheduler.pending_tasks() == 0:
                        return allocations
                    new_bound = task_scheduler.min_head_demand()
                    if new_bound[0] < bound[0] or new_bound[1] < bound[1]:
                        # The bound loosened: nodes after this one that the
                        # mask left out may now fit a head.
                        bound = new_bound
                        start = idx + 1
                        break
            else:
                break
        return allocations

    # -- introspection ---------------------------------------------------------------

    def placed_lra_latencies(self) -> list[float]:
        return [
            outcome.scheduling_latency_s
            for outcome in self.outcomes.values()
            if outcome.scheduling_latency_s is not None
        ]
