"""Placement feature extraction.

The performance model consumes *placement features* — per-node collocation
counts, node/rack span, and external load on the hosting nodes — computed
from the live cluster state for one application's worker containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..cluster.state import ClusterState

__all__ = ["PlacementFeatures", "extract_features"]


@dataclass(frozen=True)
class PlacementFeatures:
    """What the performance model needs to know about one app's placement."""

    app_id: str
    #: node id -> number of this app's matching workers on that node.
    workers_per_node: Mapping[str, int]
    #: node id -> number of matching workers of ANY app (same worker tag).
    class_workers_per_node: Mapping[str, int]
    #: node id -> memory utilisation due to other apps' containers.
    external_util: Mapping[str, float]
    distinct_nodes: int
    distinct_racks: int
    total_workers: int
    #: cluster-wide memory utilisation (network-congestion proxy).
    cluster_util: float

    def max_collocation(self) -> int:
        return max(self.class_workers_per_node.values(), default=0)


def extract_features(
    state: ClusterState, app_id: str, worker_tag: str
) -> PlacementFeatures:
    """Compute features for ``app_id``'s containers tagged ``worker_tag``.

    ``class_workers_per_node`` counts *all* containers with the worker tag on
    the app's nodes (interference is caused by any collocated worker of the
    same class, matching the paper's inter-application cardinality
    constraints).
    """
    workers_per_node: dict[str, int] = {}
    for placed in state.containers_of_app(app_id):
        if worker_tag not in placed.allocation.tags:
            continue
        workers_per_node[placed.node_id] = workers_per_node.get(placed.node_id, 0) + 1

    class_counts = dict.fromkeys(workers_per_node, 0)
    foreign_mem = dict.fromkeys(workers_per_node, 0)
    for placed in state.containers.values():
        node_id = placed.node_id
        if node_id not in class_counts:
            continue
        allocation = placed.allocation
        if worker_tag in allocation.tags:
            class_counts[node_id] += 1
        if allocation.app_id != app_id:
            foreign_mem[node_id] += allocation.resource.memory_mb
    external: dict[str, float] = {}
    racks: set[str] = set()
    for node_id in workers_per_node:
        node = state.topology.node(node_id)
        racks.add(node.rack)
        external[node_id] = (
            foreign_mem[node_id] / node.capacity.memory_mb
            if node.capacity.memory_mb else 0.0
        )

    return PlacementFeatures(
        app_id=app_id,
        workers_per_node=workers_per_node,
        class_workers_per_node=class_counts,
        external_util=external,
        distinct_nodes=len(workers_per_node),
        distinct_racks=len(racks),
        total_workers=sum(workers_per_node.values()),
        cluster_util=state.cluster_memory_utilization(),
    )
