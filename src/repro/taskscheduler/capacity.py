"""Capacity Scheduler — the task-based scheduler Medea uses by default (§6).

YARN's Capacity Scheduler orders queues by how far below their guaranteed
capacity they are (least-served first) and serves each leaf queue FIFO,
honouring a task's locality preferences with delay scheduling: a task with
preferences skips a bounded number of non-matching heartbeats before
relaxing to node → rack → any.
"""

from __future__ import annotations

from collections import defaultdict

from ..core.requests import TaskRequest
from .base import TaskBasedScheduler
from .queues import LeafQueue

__all__ = ["CapacityScheduler"]


class CapacityScheduler(TaskBasedScheduler):
    name = "capacity"

    #: Heartbeats a locality-constrained task waits before accepting any node.
    locality_delay = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._skip_counts: defaultdict[str, int] = defaultdict(int)

    def _select_task(self, node_id: str, rack: str) -> TaskRequest | None:
        queues = self.queues.nonempty_queues()
        if len(queues) > 1:
            queues = sorted(queues, key=LeafQueue.utilization)  # stable
        for queue in queues:
            task = queue.head()
            if not queue.can_use(task.resource):
                continue
            if not task.locality:  # never skipped, so it has no skip count
                return task
            if self._locality_ok(task, node_id, rack):
                self._skip_counts.pop(task.task_id, None)
                return task
            self._skip_counts[task.task_id] += 1
        return None

    def _locality_ok(self, task: TaskRequest, node_id: str, rack: str) -> bool:
        """A task with locality preferences may run here."""
        if node_id in task.locality or rack in task.locality:
            return True
        # Delay scheduling: relax to "any node" after enough skipped offers.
        return self._skip_counts[task.task_id] >= self.locality_delay
