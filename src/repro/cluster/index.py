"""Incrementally-maintained tag and rack maps over a cluster topology.

:class:`CandidateIndex` answers "which nodes carry tag t" and "which nodes
are in rack r" without rescanning the topology.  It is updated on every
allocate / release through :meth:`~repro.cluster.node.Node.add_listener`
hooks:

* **tag index** — dynamic tag → ``{node index: container count}`` plus a
  static-tag map built once; answers "which nodes currently host tag t"
  (the gamma environment of a constraint) in O(#matches);
* **rack index** — rack → node indices, static.

Capacity, availability and constraint scoring are *not* kept here: they are
single array passes over the owning state's struct-of-arrays mirror
(:meth:`~repro.cluster.state.StateArrays.fit_mask`,
:meth:`~repro.cluster.state.ClusterState.placement_deltas`); the index only
resolves the fit mask to a list (:meth:`CandidateIndex.fit_node_indices`).

Node identity is a *stable node-index map* (topology insertion order — the
same order every legacy ``for node in state.topology`` scan used), so
index-driven enumeration yields candidates in the exact order the scan did
and scheduler tie-breaking stays byte-for-byte identical.  Property tests
assert that an incrementally-maintained index always equals a from-scratch
rebuild under arbitrary allocate / release / failure interleavings, and
that the fit query equals the brute-force ``node.can_fit`` scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as _np

if TYPE_CHECKING:
    from .resources import Resource
from .node import Allocation, Node
from .state import StateArrays
from .topology import ClusterTopology

__all__ = ["CandidateIndex"]


class CandidateIndex:
    """Tag / rack index over the nodes of one topology.

    ``arrays`` is the owning state's live mirror; the index then registers
    for node mutations.  Without it the index is a snapshot of the topology's
    *current* state (own mirror, no hooks) — see :meth:`rebuilt`.
    """

    def __init__(
        self, topology: ClusterTopology, *, arrays: StateArrays | None = None
    ) -> None:
        live = arrays is not None
        self._topology = topology
        self._arrays = arrays if live else StateArrays(topology)
        self.node_ids: list[str] = self._arrays.node_ids
        self.index_of: dict[str, int] = self._arrays.index_of
        racks: dict[str, list[int]] = {}
        static_tags: dict[str, set[int]] = {}
        #: dynamic tag -> {node index: container-contributed count}
        self._tag_nodes: dict[str, dict[int, int]] = {}
        for i, node in enumerate(topology):
            racks.setdefault(node.rack, []).append(i)
            for tag in node.static_tags:
                static_tags.setdefault(tag, set()).add(i)
            for allocation in node.iter_allocations():
                self._add_tags(i, allocation.tags)
            if live:
                node.add_listener(self)
        self._rack_nodes: dict[str, tuple[int, ...]] = {
            rack: tuple(members) for rack, members in racks.items()
        }
        self._static_tag_nodes = static_tags

    # -- node mutation hooks --------------------------------------------------

    def _node_allocated(self, node: Node, allocation: Allocation) -> None:
        self._add_tags(self.index_of[node.node_id], allocation.tags)

    def _node_released(self, node: Node, allocation: Allocation) -> None:
        self._remove_tags(self.index_of[node.node_id], allocation.tags)

    def _add_tags(self, i: int, tags: Iterable[str]) -> None:
        for tag in tags:
            per_node = self._tag_nodes.setdefault(tag, {})
            per_node[i] = per_node.get(i, 0) + 1

    def _remove_tags(self, i: int, tags: Iterable[str]) -> None:
        for tag in tags:
            per_node = self._tag_nodes.get(tag)
            if per_node is None:
                continue
            count = per_node.get(i, 0) - 1
            if count > 0:
                per_node[i] = count
            else:
                per_node.pop(i, None)
                if not per_node:
                    del self._tag_nodes[tag]

    # -- queries --------------------------------------------------------------

    def fit_node_indices(self, demand: "Resource") -> list[int]:
        """Indices of available nodes that can fit ``demand``, in topology
        order (ascending index) — the same order a full topology scan with
        ``node.can_fit`` yields, minus the scan."""
        return _np.flatnonzero(self._arrays.fit_mask(demand)).tolist()

    def fit_node_ids(self, demand: "Resource") -> list[str]:
        """Like :meth:`fit_node_indices` but resolved to node ids."""
        node_ids = self.node_ids
        return [node_ids[i] for i in self.fit_node_indices(demand)]

    def nodes_with_tag(self, tag: str, *, dynamic_only: bool = False) -> set[str]:
        """Ids of nodes currently carrying ``tag``.

        ``dynamic_only`` restricts to container-contributed tags, matching
        :meth:`Node.dynamic_tags` membership; the default also includes
        static machine attributes.
        """
        node_ids = self.node_ids
        out = {node_ids[i] for i in self._tag_nodes.get(tag, ())}
        if not dynamic_only:
            out.update(node_ids[i] for i in self._static_tag_nodes.get(tag, ()))
        return out

    def nodes_with_any_tag(
        self, tags: Iterable[str], *, dynamic_only: bool = False
    ) -> set[str]:
        out: set[str] = set()
        for tag in tags:
            out |= self.nodes_with_tag(tag, dynamic_only=dynamic_only)
        return out

    def tag_count(self, tag: str, node_id: str) -> int:
        """Container-contributed cardinality of ``tag`` on one node."""
        return self._tag_nodes.get(tag, {}).get(self.index_of[node_id], 0)

    def rack_members(self, rack: str) -> tuple[int, ...]:
        return self._rack_nodes.get(rack, ())

    def signatures(self, groups: tuple[str, ...]) -> list[tuple]:
        """Per node, per group of ``groups``, the indices of the group's sets
        containing it, computed on demand.  Scoring does not read it (it
        gathers through the state's membership arrays)."""
        sets_of = self._topology.set_indices_for_node
        return [tuple(tuple(sets_of(g, n)) for g in groups) for n in self.node_ids]

    # -- verification helpers -------------------------------------------------

    def snapshot(self) -> dict:
        """Canonical, comparison-friendly view of the incremental state.

        Property tests assert ``incremental.snapshot() ==
        CandidateIndex.rebuilt(topology).snapshot()`` after arbitrary
        mutation interleavings.
        """
        return {
            "tags": {
                tag: dict(sorted(per_node.items()))
                for tag, per_node in sorted(self._tag_nodes.items())
            },
        }

    @classmethod
    def rebuilt(cls, topology: ClusterTopology) -> "CandidateIndex":
        """A from-scratch index over the topology's *current* state, not
        registered for updates — the ground truth incremental maintenance
        is checked against."""
        return cls(topology)
