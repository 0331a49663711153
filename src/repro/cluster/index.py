"""Candidate queries over one cluster state.

:class:`CandidateIndex` answers "which nodes can fit this demand" and
"which nodes carry tag t" for the schedulers.  It is a view: it keeps no
record of its own that a write would have to update.

* **fit** — one pass of the state's fit mask
  (:meth:`~repro.cluster.state.StateArrays.fit_mask`) resolved to a list;
* **dynamic tags** — the state's γ column of the ``node`` group (one set
  per machine, in node-index order), so "which nodes host tag t" is the
  non-zero entries of one array;
* **static tags** — machine attributes, mapped once from the topology.

Node identity is the *stable node-index map* (topology insertion order —
the same order every legacy ``for node in state.topology`` scan used), so
enumeration yields candidates in the exact order the scan did and
scheduler tie-breaking stays byte-for-byte identical.  Property tests
check every query against a brute-force recount from the container map
under arbitrary allocate / release / failure interleavings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as _np

from ..tags import NODE_SCOPE

if TYPE_CHECKING:
    from .resources import Resource
    from .state import ClusterState

__all__ = ["CandidateIndex"]


class CandidateIndex:
    """Fit and tag queries over the nodes of ``state``."""

    def __init__(self, state: ClusterState) -> None:
        self._state = state
        self.node_ids: list[str] = state.arrays.node_ids
        self.index_of: dict[str, int] = state.arrays.index_of
        static_tags: dict[str, set[int]] = {}
        for i, node in enumerate(state.topology):
            for tag in node.static_tags:
                static_tags.setdefault(tag, set()).add(i)
        self._static_tags = static_tags

    def fit_node_indices(self, demand: "Resource") -> list[int]:
        """Indices of available nodes that can fit ``demand``, in topology
        order (ascending index) — the order a full topology scan yields,
        minus the scan."""
        return _np.flatnonzero(self._state.arrays.fit_mask(demand)).tolist()

    def fit_node_ids(self, demand: "Resource") -> list[str]:
        """Like :meth:`fit_node_indices` but resolved to node ids."""
        node_ids = self.node_ids
        return [node_ids[i] for i in self.fit_node_indices(demand)]

    def nodes_with_tag(self, tag: str, *, dynamic_only: bool = False) -> set[str]:
        """Ids of nodes currently carrying ``tag``.

        ``dynamic_only`` restricts to container-contributed tags; the
        default also includes static machine attributes.
        """
        node_ids = self.node_ids
        counts = self._state.gamma_array(NODE_SCOPE, (tag,))
        out = {node_ids[i] for i in _np.flatnonzero(counts).tolist()}
        if not dynamic_only:
            out.update(node_ids[i] for i in self._static_tags.get(tag, ()))
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
        return self._state.group_tag_count(NODE_SCOPE, self.index_of[node_id], tag)

    def signatures(self, groups: tuple[str, ...]) -> list[tuple]:
        """Per node, per group of ``groups``, the indices of the group's sets
        containing it, computed on demand.  Scoring does not read it (it
        gathers through the state's membership arrays)."""
        sets_of = self._state.topology.set_indices_for_node
        return [tuple(tuple(sets_of(g, n)) for g in groups) for n in self.node_ids]
