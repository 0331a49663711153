"""Task-based scheduler interface (the second half of the two-scheduler design).

The task-based scheduler is the *only* component that performs actual
allocations (paper §3): LRA placements computed by the LRA scheduler are
handed to it as placement hints (:meth:`apply_lra_placement`), and plain
task requests are allocated directly on node heartbeats, YARN-style.  This
single-allocator property is what lets Medea avoid the conflicting-placement
problem of multi-level schedulers.
"""

from __future__ import annotations

import abc
from typing import Iterable, NamedTuple

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..core.requests import TaskRequest
from ..core.scheduler import ContainerPlacement
from ..obs.events import EventKind
from ..obs.metrics import Counter, Metrics, get_metrics
from ..obs.trace import get_tracer
from .queues import QueueConfig, QueueSystem

__all__ = ["TaskAllocation", "PlacementConflictError", "TaskBasedScheduler"]

#: Tag automatically attached to short-running task containers so metrics can
#: tell them apart from LRA containers.
TASK_TAG = "task"
#: The tag set of every task container, frozen once.
_TASK_TAGS = frozenset((TASK_TAG,))


class TaskAllocation(NamedTuple):
    """A task container successfully allocated on a node (a named tuple:
    one is built per task lifecycle; compare by fields, not by type)."""

    task_id: str
    app_id: str
    node_id: str
    resource: Resource
    submit_time: float
    allocation_time: float

    @property
    def latency_s(self) -> float:
        return self.allocation_time - self.submit_time


class PlacementConflictError(RuntimeError):
    """Raised when an LRA placement hint can no longer be honoured because
    the cluster state changed between decision and allocation (paper §5.4);
    Medea's policy is to resubmit the LRA."""


class TaskBasedScheduler(abc.ABC):
    """Heartbeat-driven allocator for short-running containers."""

    name = "task-based"

    def __init__(
        self,
        state: ClusterState,
        queue_configs: Iterable[QueueConfig] = (),
        *,
        metrics: Metrics | None = None,
    ) -> None:
        self.state = state
        self.queues = QueueSystem(queue_configs, state.arrays.total_cap_mem)
        #: task_id -> submit time for everything submitted but not allocated.
        self._submit_times: dict[str, float] = {}
        #: task_id -> queue name, kept until release for capacity refunds.
        self._task_queue: dict[str, str] = {}
        self.completed_allocations: list[TaskAllocation] = []
        #: Total allocations ever made (kept even when ``retain_completed``
        #: is off — million-lifecycle runs cannot afford the record list).
        self.completed_count = 0
        #: When False, :attr:`completed_allocations` stays empty and only
        #: the counter/metrics channels record per-task outcomes.
        self.retain_completed = True
        #: Queued tasks carrying locality preferences.  While zero, skipping
        #: a heartbeat that cannot possibly allocate (see
        #: :meth:`min_head_demand`) is free of side effects; delay
        #: scheduling makes skip counting observable otherwise.
        self._pending_locality = 0
        #: Explicit metrics registry; ``None`` falls back to the ambient one.
        self._metrics = metrics
        #: ``task_released_total`` and the registry it was resolved from:
        #: resolved on the first release (a scheduler that never releases
        #: adds no family to the snapshot) and again only if the ambient
        #: registry is swapped.
        self._released: Counter | None = None
        self._released_in: Metrics | None = None

    @property
    def metrics(self) -> Metrics:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- task path -------------------------------------------------------------

    def submit(self, task: TaskRequest, now: float = 0.0) -> None:
        self.queues.enqueue(task)
        self._submit_times[task.task_id] = now
        self._task_queue[task.task_id] = task.queue
        if task.locality:
            self._pending_locality += 1
        tracer = get_tracer()
        if tracer.enabled and tracer.wants(EventKind.TASK_SUBMIT, task.task_id):
            tracer.emit(
                EventKind.TASK_SUBMIT,
                time=now,
                data={"task_id": task.task_id, "queue": task.queue},
            )

    def pending_tasks(self) -> int:
        return self.queues.pending_count()

    def demand_bound_safe(self) -> bool:
        """True when the caller may skip heartbeats for nodes that cannot
        fit :meth:`min_head_demand` without changing behaviour.  Requires
        no queued locality preferences: delay scheduling counts skipped
        offers inside ``_select_task``, so such heartbeats have observable
        side effects even when nothing is allocated."""
        return self._pending_locality == 0

    def min_head_demand(self) -> tuple[int, int] | None:
        """Element-wise minimum ``(memory_mb, vcores)`` over the heads of
        the non-empty queues, or ``None`` when nothing is pending.

        Every ``_select_task`` implementation only ever returns a queue
        head, so a node whose free vector is below this bound in either
        dimension cannot receive an allocation this heartbeat — a sound
        (possibly loose) skip test for :meth:`MedeaScheduler.heartbeat_all`.
        """
        return self.queues.min_head_demand()

    def handle_heartbeat(self, node_id: str, now: float) -> list[TaskAllocation]:
        """Allocate queued tasks onto the heartbeating node until it is full
        or no queue can use it.  Returns the new allocations.

        The node's free vector is read once; fit is then checked against
        local ints that each allocation lowers, while
        :meth:`ClusterState.allocate` stays the one writer (and checks fit
        again).  The queue-latency histogram is resolved once per queue
        and heartbeat and recorded into directly."""
        state = self.state
        node = state.topology.node(node_id)
        free = state.free_vector(node_id)
        if free is None:
            return []
        free_mem, free_vc = free
        rack = node.rack
        queues = self.queues
        submit_times = self._submit_times
        allocations: list[TaskAllocation] = []
        # Resolved on the first allocation, not per task: a heartbeat that
        # allocates nothing must not register the timer.
        latency = latency_queue = None
        while True:
            task = self._select_task(node_id, rack)
            if task is None:
                break
            resource = task.resource
            if resource.memory_mb > free_mem or resource.vcores > free_vc:
                break
            queue_name = task.queue
            queues.take_head(queue_name)
            if task.locality:
                self._pending_locality -= 1
            state.allocate(
                task.task_id,
                node_id,
                resource,
                _TASK_TAGS,
                task.app_id,
                long_running=False,
            )
            free_mem -= resource.memory_mb
            free_vc -= resource.vcores
            submit_time = submit_times.pop(task.task_id, now)
            allocation = TaskAllocation(
                task.task_id, task.app_id, node_id, resource, submit_time, now
            )
            allocations.append(allocation)
            self.completed_count += 1
            if self.retain_completed:
                self.completed_allocations.append(allocation)
            if queue_name != latency_queue:
                latency_queue = queue_name
                latency = self.metrics.timer("task_queue_latency_seconds").series(
                    queue=queue_name
                )
            latency.record(now - submit_time)
        tracer = get_tracer()
        if tracer.enabled:
            for allocation in allocations:
                if not tracer.wants(EventKind.TASK_ALLOCATE, allocation.task_id):
                    continue
                tracer.emit(
                    EventKind.TASK_ALLOCATE,
                    time=now,
                    data={
                        "task_id": allocation.task_id,
                        "node_id": allocation.node_id,
                        "queue": self._task_queue.get(allocation.task_id, ""),
                        "latency_s": allocation.latency_s,
                    },
                )
        return allocations

    def release_task(self, task_id: str, *, now: float) -> None:
        """Release a finished task container.  ``now`` stamps the trace
        event with the simulated clock so the timeline can bucket container
        churn."""
        placed = self.state.release(task_id)
        queue_name = self._task_queue.pop(task_id, None)
        if queue_name is not None:
            self.queues.refund(queue_name, placed.allocation.resource)
        metrics = self.metrics
        if metrics is not self._released_in:
            self._released = metrics.counter("task_released_total")
            self._released_in = metrics
        self._released.inc()
        tracer = get_tracer()
        if tracer.enabled and tracer.wants(EventKind.TASK_RELEASE, task_id):
            tracer.emit(
                EventKind.TASK_RELEASE,
                time=now,
                data={"task_id": task_id, "node_id": placed.node_id},
            )

    @abc.abstractmethod
    def _select_task(self, node_id: str, rack: str) -> TaskRequest | None:
        """Pick the next queued task the node ``node_id`` on ``rack``
        should serve (a queue head, without dequeuing it), or ``None`` if
        nothing is eligible."""

    # -- LRA path ------------------------------------------------------------------

    def apply_lra_placement(self, placement: ContainerPlacement) -> None:
        """Perform the actual allocation for an LRA placement hint.

        Raises :class:`PlacementConflictError` if the target node no longer
        has room — the caller (Medea facade) resubmits the LRA.
        """
        state = self.state
        if not state.can_fit(placement.node_id, placement.resource):
            raise PlacementConflictError(
                f"placement of {placement.container_id} on {placement.node_id} "
                f"conflicts: need {placement.resource}, "
                f"free {state.free_resources(placement.node_id)}"
            )
        state.allocate(
            placement.container_id,
            placement.node_id,
            placement.resource,
            placement.tags,
            placement.app_id,
            long_running=True,
        )

    def apply_lra_placements(
        self, placements: Iterable[ContainerPlacement]
    ) -> list[ContainerPlacement]:
        """Apply a batch atomically: on conflict, roll back the containers
        already applied from this batch and re-raise.  The Medea facade
        calls this once per application so a conflict rejects only the
        affected LRA."""
        applied: list[ContainerPlacement] = []
        try:
            for placement in placements:
                self.apply_lra_placement(placement)
                applied.append(placement)
        except PlacementConflictError:
            for placement in applied:
                self.state.release(placement.container_id)
            raise
        return applied
