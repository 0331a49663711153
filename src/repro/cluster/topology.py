"""Node groups and cluster topology (paper §4.1).

Cluster operators register *node groups*: logical, possibly overlapping
categories of node sets.  ``node`` (one set per machine) and ``rack`` are
predefined; fault domains, upgrade domains and Microsoft-style *service
units* are registered the same way.  Constraints name a group, never a
concrete machine, which keeps them high-level (requirement R2) and lets
operators hide the physical cluster layout.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from ..tags import NODE_SCOPE, RACK_SCOPE
from .node import Node
from .resources import Resource

__all__ = ["NodeGroup", "ClusterTopology", "build_cluster"]


@dataclass(frozen=True)
class NodeGroup:
    """A named collection of node *sets* (each set is a tuple of node ids)."""

    name: str
    node_sets: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node group name must be non-empty")
        object.__setattr__(
            self, "node_sets", tuple(tuple(ns) for ns in self.node_sets)
        )

    def sets_containing(self, node_id: str) -> list[tuple[str, ...]]:
        return [ns for ns in self.node_sets if node_id in ns]


class ClusterTopology:
    """The machines of a cluster plus all registered node groups."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self._nodes: dict[str, Node] = {}
        # Every node notifies the same registry, which holds each listener
        # weakly: a dropped state is not kept alive by its topology.
        self._listeners: weakref.WeakSet = weakref.WeakSet()
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id}")
            self._nodes[node.node_id] = node
            node._listeners = self._listeners
        self._groups: dict[str, NodeGroup] = {}
        #: Bumped whenever the set of registered groups changes, so caches
        #: keyed on group structure (the state's membership arrays and γ
        #: counts) can rebuild.
        self._groups_version = 0
        self._register_predefined_groups()
        # node_id -> group name -> list of set indices, for O(1) lookup of
        # "which node sets of group G contain node n".
        self._membership: dict[str, dict[str, list[int]]] = {}
        self._rebuild_membership()

    # -- construction ---------------------------------------------------------

    def _register_predefined_groups(self) -> None:
        node_sets = tuple((node_id,) for node_id in self._nodes)
        self._groups[NODE_SCOPE] = NodeGroup(NODE_SCOPE, node_sets)
        racks: dict[str, list[str]] = {}
        for node in self._nodes.values():
            racks.setdefault(node.rack, []).append(node.node_id)
        self._groups[RACK_SCOPE] = NodeGroup(
            RACK_SCOPE, tuple(tuple(ids) for ids in racks.values())
        )

    def register_group(self, name: str, node_sets: Iterable[Iterable[str]]) -> NodeGroup:
        """Register an operator-defined node group (fault/upgrade domains,
        service units, ...).  Sets may overlap; every referenced node must
        exist."""
        if name in (NODE_SCOPE, RACK_SCOPE):
            raise ValueError(f"group name {name!r} is predefined")
        sets = tuple(tuple(ns) for ns in node_sets)
        for ns in sets:
            for node_id in ns:
                if node_id not in self._nodes:
                    raise KeyError(f"unknown node {node_id!r} in group {name!r}")
        group = NodeGroup(name, sets)
        self._groups[name] = group
        self._groups_version += 1
        self._rebuild_membership()
        return group

    def add_availability_listener(self, listener) -> None:
        """Call ``listener.node_availability(node, up)`` on every
        availability flip of any node, for as long as ``listener`` lives
        (it is held weakly)."""
        self._listeners.add(listener)

    def _rebuild_membership(self) -> None:
        self._membership = {node_id: {} for node_id in self._nodes}
        for group in self._groups.values():
            for idx, node_set in enumerate(group.node_sets):
                for node_id in node_set:
                    self._membership[node_id].setdefault(group.name, []).append(idx)

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> Mapping[str, Node]:
        return self._nodes

    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def group(self, name: str) -> NodeGroup:
        try:
            return self._groups[name]
        except KeyError:
            raise KeyError(
                f"node group {name!r} is not registered "
                f"(known: {sorted(self._groups)})"
            ) from None

    def has_group(self, name: str) -> bool:
        return name in self._groups

    def group_names(self) -> list[str]:
        return sorted(self._groups)

    @property
    def groups_version(self) -> int:
        """Monotone counter of group registrations (cache invalidation)."""
        return self._groups_version

    def sets_of_group_containing(self, group_name: str, node_id: str) -> list[tuple[str, ...]]:
        """All node sets of ``group_name`` that include ``node_id``."""
        group = self.group(group_name)
        indices = self._membership.get(node_id, {}).get(group_name, [])
        return [group.node_sets[i] for i in indices]

    def set_indices_for_node(self, group_name: str, node_id: str) -> list[int]:
        """Indices of ``group_name``'s node sets containing ``node_id``.

        Backed by a precomputed membership index so constraint evaluation in
        scheduler inner loops stays O(#memberships), not O(cluster size).
        """
        self.group(group_name)  # raise KeyError for unknown groups
        return self._membership.get(node_id, {}).get(group_name, [])

    def total_capacity(self) -> Resource:
        total = Resource(0, 0)
        for node in self._nodes.values():
            total = total + node.capacity
        return total


def build_cluster(
    num_nodes: int,
    *,
    racks: int = 1,
    memory_mb: int = 16 * 1024,
    vcores: int = 8,
    upgrade_domains: int = 0,
    fault_domains: int = 0,
    service_units: int = 0,
    node_prefix: str = "n",
) -> ClusterTopology:
    """Create a synthetic homogeneous cluster.

    Nodes are striped across racks round-robin (matching how the paper's
    simulator groups 500 machines into 10 racks), and optionally partitioned
    into upgrade domains, fault domains and service units as contiguous
    blocks.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if racks <= 0:
        raise ValueError("racks must be positive")
    nodes = [
        Node(
            node_id=f"{node_prefix}{i:05d}",
            capacity=Resource(memory_mb, vcores),
            rack=f"rack-{i % racks}",
        )
        for i in range(num_nodes)
    ]
    topo = ClusterTopology(nodes)

    def contiguous_partition(count: int) -> list[list[str]]:
        ids = [n.node_id for n in nodes]
        size = max(1, num_nodes // count)
        parts = [ids[i * size:(i + 1) * size] for i in range(count)]
        # Fold any remainder into the last partition.
        leftover = ids[count * size:]
        if leftover:
            parts[-1].extend(leftover)
        return [p for p in parts if p]

    if upgrade_domains:
        topo.register_group("upgrade_domain", contiguous_partition(upgrade_domains))
    if fault_domains:
        topo.register_group("fault_domain", contiguous_partition(fault_domains))
    if service_units:
        topo.register_group("service_unit", contiguous_partition(service_units))
    return topo
