"""Global cluster state: allocations, tag cardinalities, constraint checks.

This is the single source of truth both schedulers read (Fig. 4's *cluster
state* component).  It maintains, incrementally, the per-node-set tag
cardinalities γ𝒮 for every registered node group so that constraint
evaluation inside scheduling loops is O(#groups) instead of O(cluster size).

Per-node capacity / free / availability are mirrored into numpy
struct-of-arrays (:class:`_StateArrays`), keyed by a stable node-index map
in topology order, and ``total_free`` / utilisation / fragmentation / rack
statistics are computed vectorised over it.  The mirror is maintained
through :meth:`Node.add_listener` hooks, so it stays consistent no matter
which code path mutates a node.  All integer aggregates are exact (int64);
the test suite checks every metric against a scalar oracle that loops over
the topology's nodes (``tests/helpers.py``) and against a golden fixture
frozen from the retired dict-of-``Node`` backend.

Derived metrics are memoised on a state *version counter* that every
allocate / release / availability flip bumps, so repeated reads within one
tick (timeline sink, watchdog, state-hash event) cost one computation.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as _np

from ..tags import TagMultiset

if TYPE_CHECKING:  # import only for annotations: core depends on cluster
    from ..core.constraints import PlacementConstraint
    from .index import CandidateIndex
from .node import Allocation, Node
from .resources import Resource
from .topology import ClusterTopology

__all__ = ["ClusterState", "PlacedContainer", "placement_fingerprint"]


class _StateArrays:
    """Struct-of-arrays mirror of the per-node scalar state.

    One row per node, in topology insertion order (the *stable node-index
    map*); int64 throughout so integer sums are exact.  Rack membership is
    pre-encoded into integer codes (sorted rack-name order) so per-rack
    reductions are one ``bincount``.
    """

    __slots__ = (
        "index_of", "node_ids", "cap_mem", "cap_vc", "free_mem", "free_vc",
        "avail", "rack_names", "rack_codes", "rack_cap_mem", "total_cap_mem",
    )

    def __init__(self, topology: ClusterTopology) -> None:
        nodes = list(topology)
        n = len(nodes)
        self.index_of: dict[str, int] = {
            node.node_id: i for i, node in enumerate(nodes)
        }
        self.node_ids: list[str] = [node.node_id for node in nodes]
        self.cap_mem = _np.fromiter(
            (nd.capacity.memory_mb for nd in nodes), dtype=_np.int64, count=n
        )
        self.cap_vc = _np.fromiter(
            (nd.capacity.vcores for nd in nodes), dtype=_np.int64, count=n
        )
        self.free_mem = _np.fromiter(
            (nd.free.memory_mb for nd in nodes), dtype=_np.int64, count=n
        )
        self.free_vc = _np.fromiter(
            (nd.free.vcores for nd in nodes), dtype=_np.int64, count=n
        )
        self.avail = _np.fromiter(
            (nd.available for nd in nodes), dtype=bool, count=n
        )
        self.rack_names: list[str] = sorted({nd.rack for nd in nodes})
        code_of = {rack: i for i, rack in enumerate(self.rack_names)}
        self.rack_codes = _np.fromiter(
            (code_of[nd.rack] for nd in nodes), dtype=_np.int64, count=n
        )
        # Rack capacity never changes; the bincount weights path yields
        # float64 holding exact integers (values ≪ 2^53).
        self.rack_cap_mem = _np.bincount(
            self.rack_codes, weights=self.cap_mem,
            minlength=len(self.rack_names),
        )
        self.total_cap_mem = int(self.cap_mem.sum())

    def refresh_free(self, node: Node) -> None:
        i = self.index_of[node.node_id]
        free = node.free
        self.free_mem[i] = free.memory_mb
        self.free_vc[i] = free.vcores


def placement_fingerprint(
    placements: Mapping[str, str], down_nodes: Iterable[str] = ()
) -> str:
    """Deterministic digest of a (container → node) map plus down nodes.

    Pure function of its inputs so the trace replayer (which reconstructs
    the placement map from events alone, without a :class:`ClusterState`)
    computes the exact same digest the simulation recorded.
    """
    digest = hashlib.sha256()
    for container_id in sorted(placements):
        digest.update(f"{container_id}@{placements[container_id]}\n".encode())
    for node_id in sorted(set(down_nodes)):
        digest.update(f"down:{node_id}\n".encode())
    return digest.hexdigest()[:16]


class PlacedContainer:
    """Bookkeeping record for a container placed somewhere in the cluster."""

    __slots__ = ("container_id", "node_id", "allocation")

    def __init__(self, container_id: str, node_id: str, allocation: Allocation) -> None:
        self.container_id = container_id
        self.node_id = node_id
        self.allocation = allocation


class ClusterState:
    """Mutable cluster-wide allocation state over a fixed topology."""

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        index_bucket_mb: int = 2048,
    ) -> None:
        self.topology = topology
        self._containers: dict[str, PlacedContainer] = {}
        # (group name, node-set index) -> Counter of tags, maintained
        # incrementally on allocate/release.
        self._group_tags: dict[tuple[str, int], Counter[str]] = {}
        if index_bucket_mb <= 0:
            raise ValueError("index_bucket_mb must be positive")
        #: Free-memory bucket width used by :meth:`candidate_index`.
        self.index_bucket_mb = index_bucket_mb
        #: Bumped on every node mutation; memoised metrics key off it.
        self._version = 0
        self._memo: dict = {}
        self._memo_version = -1
        self._down: set[str] = {
            n.node_id for n in topology if not n.available
        }
        self._arrays = _StateArrays(topology)
        self._candidate_index: CandidateIndex | None = None
        for node in topology:
            node.add_listener(self)

    # -- mutation observation -------------------------------------------------
    #
    # Registered on every node so derived structures (version counter, down
    # set, struct-of-arrays mirror) track *any* mutation path, including
    # tests driving Node.allocate directly.

    def _node_allocated(self, node: Node, allocation: Allocation) -> None:
        self._version += 1
        self._arrays.refresh_free(node)

    def _node_released(self, node: Node, allocation: Allocation) -> None:
        self._version += 1
        self._arrays.refresh_free(node)

    def _node_availability(self, node: Node, up: bool) -> None:
        self._version += 1
        if up:
            self._down.discard(node.node_id)
        else:
            self._down.add(node.node_id)
        self._arrays.avail[self._arrays.index_of[node.node_id]] = up

    @property
    def version(self) -> int:
        """Monotone mutation counter (allocate / release / availability)."""
        return self._version

    @property
    def arrays(self) -> _StateArrays:
        """The struct-of-arrays mirror of per-node scalar state."""
        return self._arrays

    def candidate_index(self) -> CandidateIndex:
        """The incrementally-maintained candidate store over this state.

        Built lazily on first use and kept consistent through node mutation
        hooks from then on; shared by every scheduler reading this state.
        """
        if self._candidate_index is None:
            from .index import CandidateIndex

            self._candidate_index = CandidateIndex(
                self.topology, bucket_mb=self.index_bucket_mb
            )
        return self._candidate_index

    def _memo_table(self) -> dict:
        if self._memo_version != self._version:
            self._memo.clear()
            self._memo_version = self._version
        return self._memo

    # -- allocation lifecycle --------------------------------------------------

    def allocate(
        self,
        container_id: str,
        node_id: str,
        resource: Resource,
        tags: Iterable[str],
        app_id: str,
        *,
        long_running: bool = True,
    ) -> PlacedContainer:
        if container_id in self._containers:
            raise ValueError(f"container {container_id} already allocated")
        node = self.topology.node(node_id)
        allocation = Allocation(
            container_id=container_id,
            resource=resource,
            tags=frozenset(tags),
            app_id=app_id,
            long_running=long_running,
        )
        node.allocate(allocation)
        placed = PlacedContainer(container_id, node_id, allocation)
        self._containers[container_id] = placed
        self._update_group_tags(node_id, allocation.tags, +1)
        return placed

    def release(self, container_id: str) -> PlacedContainer:
        try:
            placed = self._containers.pop(container_id)
        except KeyError:
            raise KeyError(f"container {container_id} is not allocated") from None
        self.topology.node(placed.node_id).release(container_id)
        self._update_group_tags(placed.node_id, placed.allocation.tags, -1)
        return placed

    def release_application(self, app_id: str) -> list[PlacedContainer]:
        """Release every container of an application (LRA teardown)."""
        victims = [c for c in self._containers.values() if c.allocation.app_id == app_id]
        for placed in victims:
            self.release(placed.container_id)
        return victims

    def _update_group_tags(self, node_id: str, tags: frozenset[str], delta: int) -> None:
        for group_name in self.topology.group_names():
            for idx in self.topology.set_indices_for_node(group_name, node_id):
                counter = self._group_tags.setdefault((group_name, idx), Counter())
                for tag in tags:
                    counter[tag] += delta
                    if counter[tag] <= 0:
                        del counter[tag]

    # -- queries -----------------------------------------------------------------

    @property
    def containers(self) -> Mapping[str, PlacedContainer]:
        return self._containers

    def container(self, container_id: str) -> PlacedContainer:
        return self._containers[container_id]

    def containers_of_app(self, app_id: str) -> list[PlacedContainer]:
        return [c for c in self._containers.values() if c.allocation.app_id == app_id]

    def iter_nodes(self) -> Iterator[Node]:
        return iter(self.topology)

    def free_resources(self, node_id: str) -> Resource:
        return self.topology.node(node_id).free

    def total_free(self) -> Resource:
        memo = self._memo_table()
        total = memo.get("total_free")
        if total is None:
            total = memo["total_free"] = self._compute_total_free()
        return total

    def _compute_total_free(self) -> Resource:
        arrays = self._arrays
        avail = arrays.avail
        return Resource(
            int(arrays.free_mem[avail].sum()),
            int(arrays.free_vc[avail].sum()),
        )

    # -- tag cardinality ------------------------------------------------------

    def group_tag_count(self, group_name: str, set_index: int, tag: str) -> int:
        """γ𝒮(tag) for the ``set_index``-th node set of ``group_name``."""
        return self._group_tags.get((group_name, set_index), Counter()).get(tag, 0)

    def group_multiset(self, group_name: str, set_index: int) -> TagMultiset:
        multiset = TagMultiset()
        for tag, count in self._group_tags.get((group_name, set_index), Counter()).items():
            multiset.add(tag, count)
        return multiset

    def gamma(
        self,
        group_name: str,
        set_index: int,
        tags: Iterable[str],
        *,
        exclude: Iterable[str] = (),
    ) -> int:
        """γ𝒮 of a tag conjunction, optionally excluding one container's own
        contribution (the ILP's ``tij ≠ tisjs`` exclusion in Eqs. 6–7).

        The conjunction cardinality is the minimum over individual tags (see
        :meth:`TagMultiset.min_cardinality`); ``exclude`` subtracts one
        occurrence of each listed tag, used when the subject container is
        itself already counted in the state.
        """
        counter = self._group_tags.get((group_name, set_index), Counter())
        excl = set(exclude)
        gamma = None
        for tag in tags:
            count = counter.get(tag, 0)
            if tag in excl:
                count -= 1
            gamma = count if gamma is None else min(gamma, count)
        return max(0, gamma if gamma is not None else 0)

    def group_sets_for_node(self, group_name: str, node_id: str) -> list[int]:
        """Indices of ``group_name``'s node sets containing ``node_id``."""
        return self.topology.set_indices_for_node(group_name, node_id)

    # -- constraint evaluation -----------------------------------------------

    def check_placement(
        self,
        constraint: PlacementConstraint,
        node_id: str,
        subject_tags: Iterable[str],
        *,
        placed: bool,
    ) -> tuple[bool, float]:
        """Evaluate ``constraint`` for a subject container on ``node_id``.

        ``placed=True`` means the subject's tags are already counted in the
        state (post-placement audit) and must be excluded from the target
        count; ``placed=False`` means the check is hypothetical (the subject
        is not yet allocated, so counts are already "other containers only").

        Returns ``(satisfied, violation_extent)`` where the extent follows
        Eq. 8, summed across the node sets of the group containing the node
        and across the conjunction's tag constraints.
        """
        subject = frozenset(subject_tags)
        if not constraint.applies_to(subject):
            return True, 0.0
        set_indices = self.group_sets_for_node(constraint.node_group, node_id)
        if not set_indices:
            # Node belongs to no set of the group: the constraint cannot be
            # evaluated there, which we treat as one violation per tag
            # constraint (the subject was required to sit inside the group).
            return False, float(len(constraint.tag_constraints))
        satisfied = True
        extent = 0.0
        for set_index in set_indices:
            for tc in constraint.tag_constraints:
                exclude = tc.c_tag.tags & subject if placed else ()
                gamma = self.gamma(
                    constraint.node_group, set_index, tc.c_tag.tags, exclude=exclude
                )
                if not tc.satisfied_by(gamma):
                    satisfied = False
                    extent += tc.violation_extent(gamma)
        return satisfied, extent

    def placement_delta_violations(
        self,
        constraints: Iterable[PlacementConstraint],
        node_id: str,
        subject_tags: Iterable[str],
    ) -> float:
        """Violation extent a hypothetical placement would incur.

        Scores both directions: (a) constraints whose *subject* matches the
        new container, evaluated on the candidate node; and (b) constraints
        of already-placed subjects whose *target* count the new container
        would change (e.g. placing an ``hb`` container next to a subject
        with ``{hb, 0, 0}`` anti-affinity).  Used by the greedy schedulers
        and J-Kube scoring.
        """
        subject = frozenset(subject_tags)
        total = 0.0
        for constraint in constraints:
            weight = constraint.weight
            satisfied, extent = self.check_placement(
                constraint, node_id, subject, placed=False
            )
            if not satisfied:
                # The Eq.-8 extent is the gradient greedy descent needs: a
                # nearly-satisfied cmin (small extent) must score better than
                # a far-from-satisfied one.
                total += weight * extent
            total += weight * self._reverse_violations(constraint, node_id, subject)
        return total

    def _reverse_violations(
        self,
        constraint: PlacementConstraint,
        node_id: str,
        new_tags: frozenset[str],
    ) -> float:
        """Extra violations placing ``new_tags`` on ``node_id`` inflicts on
        *existing* subjects of ``constraint`` in the affected node sets.

        Computed entirely from the incremental γ counters (O(1) per node
        set): the number of existing subjects in a set is γ𝒮(subject) and
        every such subject observes the same target count — γ𝒮(c_tag),
        minus its own contribution when the subject expression implies the
        target expression.
        """
        relevant = [
            tc for tc in constraint.tag_constraints if tc.c_tag.tags <= new_tags
        ]
        if not relevant:
            return 0.0
        total = 0.0
        for set_index in self.group_sets_for_node(constraint.node_group, node_id):
            n_subjects = self.gamma(
                constraint.node_group, set_index, constraint.subject.tags
            )
            if n_subjects == 0:
                continue
            for tc in relevant:
                gamma_all = self.gamma(
                    constraint.node_group, set_index, tc.c_tag.tags
                )
                # A subject container's tags are a superset of the subject
                # expression; if the target conjunction is contained in the
                # subject expression, every subject also counts toward the
                # target and must exclude itself.
                if tc.c_tag.tags <= constraint.subject.tags:
                    gamma = max(0, gamma_all - 1)
                else:
                    gamma = gamma_all
                delta = tc.violation_extent(gamma + 1) - tc.violation_extent(gamma)
                if delta > 0:
                    total += n_subjects * delta
        return total

    # -- cluster-wide metrics ---------------------------------------------------
    #
    # Every metric is memoised on the state version counter (the timeline
    # sink reads several per heartbeat) and computed vectorised over the
    # struct-of-arrays mirror.  The private ``_compute_*`` functions are the
    # uncached paths; regression tests assert cached and direct values agree.

    def fragmented_node_fraction(self, threshold: Resource = Resource(2048, 1)) -> float:
        """Fraction of nodes with less free than ``threshold`` but not fully
        utilised (paper §7.4's fragmentation definition)."""
        memo = self._memo_table()
        key = ("frag", threshold)
        value = memo.get(key)
        if value is None:
            value = memo[key] = self._compute_fragmented_node_fraction(threshold)
        return value

    def _compute_fragmented_node_fraction(self, threshold: Resource) -> float:
        arrays = self._arrays
        avail = arrays.avail
        total = int(avail.sum())
        if total == 0:
            return 0.0
        free_mem, free_vc = arrays.free_mem, arrays.free_vc
        fully_used = (free_mem == 0) & (free_vc == 0)
        too_small = (free_mem < threshold.memory_mb) | (
            free_vc < threshold.vcores
        )
        fragmented = int((avail & ~fully_used & too_small).sum())
        return fragmented / total

    def memory_utilization_cv(self) -> float:
        """Coefficient of variation of per-node memory utilisation — the
        paper's load-imbalance proxy (Fig. 10b)."""
        memo = self._memo_table()
        value = memo.get("cv")
        if value is None:
            value = memo["cv"] = self._compute_memory_utilization_cv()
        return value

    def _compute_memory_utilization_cv(self) -> float:
        arrays = self._arrays
        avail = arrays.avail
        cap = arrays.cap_mem[avail]
        if cap.size == 0:
            return 0.0
        free = arrays.free_mem[avail]
        ratio = _np.divide(
            free, cap, out=_np.zeros(cap.shape, dtype=_np.float64),
            where=cap > 0,
        )
        utils = _np.where(cap > 0, 1.0 - ratio, 0.0)
        mean = float(utils.mean())
        if mean == 0:
            return 0.0
        variance = float(((utils - mean) ** 2).mean())
        return (variance ** 0.5) / mean

    def rack_memory_utilization(self) -> dict[str, float]:
        """Per-rack memory utilisation (rack id → used/capacity)."""
        memo = self._memo_table()
        value = memo.get("rack_util")
        if value is None:
            value = memo["rack_util"] = self._compute_rack_memory_utilization()
        return dict(value)

    def _compute_rack_memory_utilization(self) -> dict[str, float]:
        arrays = self._arrays
        used_weights = _np.where(
            arrays.avail, arrays.cap_mem - arrays.free_mem, 0
        )
        used_by_rack = _np.bincount(
            arrays.rack_codes, weights=used_weights,
            minlength=len(arrays.rack_names),
        )
        return {
            rack: float(used_by_rack[i] / arrays.rack_cap_mem[i])
            for i, rack in enumerate(arrays.rack_names)
            if arrays.rack_cap_mem[i] > 0
        }

    def down_node_ids(self) -> list[str]:
        """Ids of currently unavailable nodes, sorted.

        Served from the incrementally-maintained down set — O(#down), not
        O(cluster size)."""
        return sorted(self._down)

    def fingerprint(self) -> str:
        """Digest of the current placement map and down-node set (see
        :func:`placement_fingerprint`); recorded in ``sim.state_hash``
        events and recomputed by the trace replayer."""
        memo = self._memo_table()
        value = memo.get("fingerprint")
        if value is None:
            value = memo["fingerprint"] = placement_fingerprint(
                {cid: placed.node_id for cid, placed in self._containers.items()},
                self.down_node_ids(),
            )
        return value

    def cluster_memory_utilization(self) -> float:
        memo = self._memo_table()
        value = memo.get("util")
        if value is None:
            value = memo["util"] = self._compute_cluster_memory_utilization()
        return value

    def _compute_cluster_memory_utilization(self) -> float:
        arrays = self._arrays
        total = arrays.total_cap_mem
        if total == 0:
            return 0.0
        used = total - int(arrays.free_mem[arrays.avail].sum())
        return used / total
