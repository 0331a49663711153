"""Cluster substrate: resources, nodes, topology/node groups, global state."""

from __future__ import annotations

from .node import Node
from .resources import Resource
from .state import Allocation, ClusterState, PlacedContainer
from .topology import ClusterTopology, NodeGroup, build_cluster

__all__ = [
    "Allocation",
    "Node",
    "Resource",
    "ClusterState",
    "PlacedContainer",
    "ClusterTopology",
    "NodeGroup",
    "build_cluster",
]
