"""Cluster node model.

A node describes a machine: its id, rack, resource capacity and *static*
attributes exposed as tags (e.g. ``gpu``, mirroring §4.1's note that static
machine attributes are a special case of the tag model).  Which containers
run on it and what it has free are recorded once, in the cluster state's
ledger (:class:`~repro.cluster.state.ClusterState`), not here.

The one mutable fact is :attr:`Node.available`: a machine that is down is
down for every state built over the topology, so a flip is pushed to each
of them through the topology's registry (see
:meth:`~repro.cluster.topology.ClusterTopology.add_availability_listener`).
"""

from __future__ import annotations

from typing import Collection, Iterable

from .resources import Resource

__all__ = ["Node"]


class Node:
    """A single cluster machine."""

    __slots__ = ("node_id", "rack", "capacity", "static_tags", "_available",
                 "_listeners")

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
        #: False while the machine is down / being upgraded (failure replay).
        self._available = True
        #: Objects told ``node_availability(node, up)`` on every flip: the
        #: registry of the topology built over this node, which shares it
        #: among all its nodes.
        self._listeners: Collection = ()

    @property
    def available(self) -> bool:
        return self._available

    @available.setter
    def available(self, up: bool) -> None:
        up = bool(up)
        if up == self._available:
            return
        self._available = up
        for listener in self._listeners:
            listener.node_availability(self, up)

    def __repr__(self) -> str:
        return f"Node({self.node_id}, capacity={self.capacity}, rack={self.rack})"
