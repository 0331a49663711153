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

__all__ = ["FairScheduler"]


class FairScheduler(TaskBasedScheduler):
    name = "fair"

    def _select_task(self, node_id: str) -> TaskRequest | None:
        total = self.state.topology.total_capacity()
        candidates = []
        for queue in self.queues.nonempty_queues():
            task = queue.head()
            if task is None or not queue.can_use(task.resource):
                continue
            used = Resource(queue.used_mb, 0)
            share = used.dominant_share(total)
            fair_share = queue.config.capacity_fraction
            # Deficit-ordered: most under-served queue (share/fair) first.
            ratio = share / fair_share if fair_share > 0 else float("inf")
            candidates.append((ratio, queue.name, task))
        if not candidates:
            return None
        candidates.sort(key=lambda item: (item[0], item[1]))
        return candidates[0][2]
