"""Hierarchical scheduler queues (YARN-style).

The task-based scheduler organises applications into queues with guaranteed
capacities (fractions of the cluster) and optional maximum capacities.  We
model the common two-level layout: a root queue with leaf queues under it.
Capacity accounting is in memory MB, YARN's primary scheduling dimension.

:class:`QueueSystem` is the only writer of its leaves: it enqueues, pops
heads (charging their demand) and refunds, and so keeps the pending count
and the list of non-empty queues current as queues fill and empty, instead
of recounting them on every read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable

from ..cluster.resources import Resource
from ..core.requests import TaskRequest

__all__ = ["QueueConfig", "LeafQueue", "QueueSystem"]


@dataclass(frozen=True)
class QueueConfig:
    """Static configuration of one leaf queue."""

    name: str
    capacity_fraction: float
    max_capacity_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_fraction <= 1.0:
            raise ValueError(f"queue {self.name}: capacity must be in (0, 1]")
        if self.max_capacity_fraction < self.capacity_fraction:
            raise ValueError(
                f"queue {self.name}: max capacity below guaranteed capacity"
            )


class LeafQueue:
    """A FIFO leaf queue with capacity accounting, read-only to everyone
    but its :class:`QueueSystem`."""

    __slots__ = ("config", "name", "guaranteed_mb", "max_mb", "used_mb", "_pending")

    def __init__(self, config: QueueConfig, cluster_memory_mb: int) -> None:
        self.config = config
        self.name = config.name
        self.guaranteed_mb = int(config.capacity_fraction * cluster_memory_mb)
        self.max_mb = int(config.max_capacity_fraction * cluster_memory_mb)
        #: Memory charged for this queue's running tasks.
        self.used_mb = 0
        self._pending: Deque[TaskRequest] = deque()

    @property
    def pending(self) -> tuple[TaskRequest, ...]:
        """The queued tasks, head first (a copy)."""
        return tuple(self._pending)

    def utilization(self) -> float:
        """Used capacity relative to the guarantee (the Capacity Scheduler's
        ordering key — least-served queue first)."""
        if self.guaranteed_mb == 0:
            return float("inf")
        return self.used_mb / self.guaranteed_mb

    def can_use(self, demand: Resource) -> bool:
        return self.used_mb + demand.memory_mb <= self.max_mb

    def head(self) -> TaskRequest | None:
        pending = self._pending
        return pending[0] if pending else None

    def __len__(self) -> int:
        return len(self._pending)


class QueueSystem:
    """The root queue and its leaves."""

    def __init__(
        self, configs: Iterable[QueueConfig], cluster_memory_mb: int
    ) -> None:
        configs = list(configs)
        if not configs:
            configs = [QueueConfig("default", 1.0)]
        total = sum(c.capacity_fraction for c in configs)
        if total > 1.0 + 1e-9:
            raise ValueError(f"queue capacities sum to {total:.3f} > 1")
        self.queues: dict[str, LeafQueue] = {
            c.name: LeafQueue(c, cluster_memory_mb) for c in configs
        }
        self._pending = 0
        #: The non-empty leaves in configuration order.
        self._nonempty: tuple[LeafQueue, ...] = ()

    def queue(self, name: str) -> LeafQueue:
        try:
            return self.queues[name]
        except KeyError:
            raise KeyError(
                f"unknown queue {name!r} (known: {sorted(self.queues)})"
            ) from None

    # -- writes ----------------------------------------------------------------

    def enqueue(self, task: TaskRequest) -> None:
        pending = self.queue(task.queue)._pending
        pending.append(task)
        self._pending += 1
        if len(pending) == 1:
            self._refresh_nonempty()

    def take_head(self, name: str) -> TaskRequest:
        """Dequeue the head of queue ``name`` and charge its demand: the
        queue side of one allocation."""
        queue = self.queues[name]
        task = queue._pending.popleft()
        self._pending -= 1
        queue.used_mb += task.resource.memory_mb
        if not queue._pending:
            self._refresh_nonempty()
        return task

    def refund(self, name: str, demand: Resource) -> None:
        queue = self.queue(name)
        queue.used_mb = max(0, queue.used_mb - demand.memory_mb)

    def _refresh_nonempty(self) -> None:
        self._nonempty = tuple(q for q in self.queues.values() if q._pending)

    # -- reads -------------------------------------------------------------------

    def pending_count(self) -> int:
        return self._pending

    def nonempty_queues(self) -> tuple[LeafQueue, ...]:
        return self._nonempty

    def min_head_demand(self) -> tuple[int, int] | None:
        """Element-wise minimum ``(memory_mb, vcores)`` over the heads of
        the non-empty queues, or ``None`` when nothing is pending."""
        nonempty = self._nonempty
        if not nonempty:
            return None
        head = nonempty[0]._pending[0].resource
        memory_mb, vcores = head.memory_mb, head.vcores
        for queue in nonempty[1:]:
            head = queue._pending[0].resource
            if head.memory_mb < memory_mb:
                memory_mb = head.memory_mb
            if head.vcores < vcores:
                vcores = head.vcores
        return memory_mb, vcores
