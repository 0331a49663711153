"""Fair Scheduler — drop-in alternative task-based scheduler (paper §6:
"Fair Scheduler can be used instead, simply by changing a configuration
parameter").

Queues are served in max-min fair order by dominant resource share relative
to their fair share of the cluster, with FIFO ordering inside each queue.
"""

from __future__ import annotations

from ..cluster.resources import Resource
from ..core.requests import TaskRequest
from .base import TaskBasedScheduler
from .queues import LeafQueue

__all__ = ["FairScheduler"]


class FairScheduler(TaskBasedScheduler):
    name = "fair"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        arrays = self.state.arrays
        #: The cluster's total capacity, read once: the topology is static.
        self._total = Resource(arrays.total_cap_mem, arrays.total_cap_vc)

    def _deficit(self, queue: LeafQueue) -> tuple[float, str]:
        """Most under-served queue (share / fair share) first, ties by name."""
        share = Resource(queue.used_mb, 0).dominant_share(self._total)
        fair_share = queue.config.capacity_fraction
        return share / fair_share if fair_share > 0 else float("inf"), queue.name

    def _select_task(self, node_id: str, rack: str) -> TaskRequest | None:
        queues = self.queues.nonempty_queues()
        if len(queues) > 1:
            queues = sorted(queues, key=self._deficit)
        for queue in queues:
            task = queue.head()
            if queue.can_use(task.resource):
                return task
        return None
