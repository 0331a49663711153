"""Cluster node model.

A node has a resource capacity, a set of *static* attributes exposed as tags
(e.g. ``gpu``, mirroring §4.1's note that static machine attributes are a
special case of the tag model), and the containers currently allocated on
it.  Their tags are counted in the cluster state's γ arrays, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..tags import TagMultiset, validate_tag
from .resources import Resource

__all__ = ["Node", "Allocation"]

#: Tag strings already validated (validity depends on the string alone);
#: emptied past 65,536 entries so its memory stays bounded.
_valid_tags: set[str] = set()


def _validate_tags(tags: frozenset[str]) -> None:
    """:func:`validate_tag` for every tag, each string checked only once."""
    if not _valid_tags.issuperset(tags):
        for tag in tags:
            validate_tag(tag)
        if len(_valid_tags) > 1 << 16:
            _valid_tags.clear()
        _valid_tags.update(tags)


@dataclass(frozen=True, slots=True)
class Allocation:
    """A container currently occupying resources on a node."""

    container_id: str
    resource: Resource
    tags: frozenset[str]
    app_id: str
    long_running: bool = True


class Node:
    """A single cluster machine.

    Mutation happens only through :meth:`allocate` / :meth:`release` so the
    free-resource vector and the allocations can never drift apart.
    """

    __slots__ = ("node_id", "rack", "capacity", "static_tags", "_free",
                 "_allocations", "_available", "_listeners",
                 "_alloc_hooks", "_release_hooks", "_avail_hooks")

    def __init__(
        self,
        node_id: str,
        capacity: Resource,
        rack: str = "rack-0",
        static_tags: Iterable[str] = (),
    ) -> None:
        self.node_id = node_id
        self.rack = rack
        self.capacity = capacity
        self.static_tags = frozenset(static_tags)
        self._free = capacity
        self._allocations: dict[str, Allocation] = {}
        #: False while the machine is down / being upgraded (failure replay).
        self._available = True
        #: Mutation observers (struct-of-arrays mirror, candidate index).
        #: Notified on every allocate / release / availability flip so
        #: derived structures can never drift, no matter which code path
        #: mutates the node.  Hooks are resolved once at registration to
        #: keep the per-allocation notification cost to a plain call.
        self._listeners: list = []
        self._alloc_hooks: tuple = ()
        self._release_hooks: tuple = ()
        self._avail_hooks: tuple = ()

    # -- mutation observers ---------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register a mutation observer.  A listener may implement any of
        ``_node_allocated(node, allocation)``,
        ``_node_released(node, allocation)`` and
        ``_node_availability(node, up)``; missing hooks are skipped."""
        if listener in self._listeners:
            return
        self._listeners.append(listener)
        alloc = getattr(listener, "_node_allocated", None)
        if alloc is not None:
            self._alloc_hooks = self._alloc_hooks + (alloc,)
        release = getattr(listener, "_node_released", None)
        if release is not None:
            self._release_hooks = self._release_hooks + (release,)
        avail = getattr(listener, "_node_availability", None)
        if avail is not None:
            self._avail_hooks = self._avail_hooks + (avail,)

    @property
    def available(self) -> bool:
        return self._available

    @available.setter
    def available(self, up: bool) -> None:
        up = bool(up)
        if up == self._available:
            return
        self._available = up
        for hook in self._avail_hooks:
            hook(self, up)

    # -- resources ----------------------------------------------------------

    @property
    def free(self) -> Resource:
        return self._free

    @property
    def used(self) -> Resource:
        return self.capacity - self._free

    def can_fit(self, demand: Resource) -> bool:
        return self.available and demand.fits(self._free)

    # -- allocation lifecycle ------------------------------------------------

    def allocate(self, allocation: Allocation) -> None:
        """Store ``allocation``; every check (duplicate id, fit, tag syntax)
        runs before anything is mutated, so a rejected call leaves no trace."""
        if allocation.container_id in self._allocations:
            raise ValueError(f"container {allocation.container_id} already on {self.node_id}")
        if not allocation.resource.fits(self._free):
            raise ValueError(
                f"container {allocation.container_id} ({allocation.resource}) does not fit "
                f"free {self._free} on {self.node_id}"
            )
        _validate_tags(allocation.tags)
        self._allocations[allocation.container_id] = allocation
        self._free = self._free - allocation.resource
        for hook in self._alloc_hooks:
            hook(self, allocation)

    def release(self, container_id: str) -> Allocation:
        try:
            allocation = self._allocations.pop(container_id)
        except KeyError:
            raise KeyError(f"container {container_id} not on node {self.node_id}") from None
        self._free = self._free + allocation.resource
        for hook in self._release_hooks:
            hook(self, allocation)
        return allocation

    @property
    def allocations(self) -> dict[str, Allocation]:
        return dict(self._allocations)

    def iter_allocations(self) -> Iterable[Allocation]:
        """Live read-only view over the allocations (no copy) — the online
        watchdog re-derives conservation invariants from this every
        heartbeat, so the defensive copy of :attr:`allocations` would be
        pure overhead."""
        return self._allocations.values()

    def container_count(self) -> int:
        return len(self._allocations)

    # -- tags ----------------------------------------------------------------

    def tag_multiset(self) -> TagMultiset:
        """The node tag set 𝒯n with cardinalities γn, including static tags.

        Static tags count once — they describe the machine, not containers.
        """
        tags = self.dynamic_tags()
        tags.add_all(self.static_tags)
        return tags

    def dynamic_tags(self) -> TagMultiset:
        """Only container-contributed tags (no static attributes), counted
        afresh from the allocations — an independent recount of γn."""
        return TagMultiset(
            tag for allocation in self._allocations.values() for tag in allocation.tags
        )

    # -- metrics --------------------------------------------------------------

    def memory_utilization(self) -> float:
        if self.capacity.memory_mb == 0:
            return 0.0
        return 1.0 - self._free.memory_mb / self.capacity.memory_mb

    def is_fragmented(self, threshold: Resource) -> bool:
        """Paper §7.4: a node is fragmented if it has less free than the
        threshold (1 core / 2 GB) *and* is not fully utilised."""
        if self._free.is_zero():
            return False
        return not threshold.fits(self._free)

    def __repr__(self) -> str:
        return f"Node({self.node_id}, free={self._free}, containers={len(self._allocations)})"
