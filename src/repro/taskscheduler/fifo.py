"""FIFO scheduler — the simplest task-based scheduler; useful as a baseline
and in unit tests where queue policy is irrelevant."""

from __future__ import annotations

from ..core.requests import TaskRequest
from .base import TaskBasedScheduler

__all__ = ["FifoScheduler"]


class FifoScheduler(TaskBasedScheduler):
    name = "fifo"

    def _select_task(self, node_id: str, rack: str) -> TaskRequest | None:
        for queue in self.queues.nonempty_queues():
            task = queue.head()
            if queue.can_use(task.resource):
                return task
        return None
