"""Global cluster state: allocations, tag cardinalities, constraint checks.

This is the single source of truth both schedulers read (Fig. 4's *cluster
state* component).  It maintains, incrementally, the per-node-set tag
cardinalities γ𝒮 for every registered node group, stored array-shaped so a
scheduler scores *all* candidate nodes of a container in one pass
(:meth:`ClusterState.placement_deltas`, the one implementation of the greedy
violation-delta policy; its floats are bit-identical to a node-by-node
evaluation — the method's docstring states the accumulation order):

* per group, a node-index → set-index **membership array** (one column per
  set a node can be in; rows of nodes in fewer sets, or none, are padded),
  rebuilt — and γ recounted from the container map — whenever
  ``topology.groups_version`` moves;
* per (group, tag) with at least one live container, an int64 **γ array**
  over the group's set indices: a slice view of the tag's one *column*
  (every group's sets end to end; a write adds at the node's precomputed
  slots), allocated on the tag's first increment and freed when its last
  container leaves: memory is O(live tags × sets);
* per ``(cmin, cmax)``, a read-only **Eq.-8 table** over γ = 0 … n−1: the
  extent, the reverse positive marginal, and that marginal with the
  subject's self-exclusion, so the scorer gathers terms instead of
  recomputing Eq. 8.  Entries come from the same elementwise operations as
  ``TagConstraint.violation_extent``, hence equal it bit for bit; a table
  covers the live carriers of its target's rarest tag plus one and doubles
  when that grows (never clipped: a γ past the end raises).  The fold
  over a node's sets starts from the first term, not from a zero array
  (``0.0 + x == x`` for the non-negative terms).

The state is the only record of allocations: the container map, γ, and
per-node capacity / free / availability as numpy struct-of-arrays
(:class:`StateArrays`, keyed by a stable node-index map in topology order)
are written by :meth:`ClusterState.allocate` / :meth:`ClusterState.release`
alone.  A :class:`~repro.cluster.node.Node` only describes its machine, so
several states over one topology are independent; the one fact they share
is a node's availability, which each state follows through
:meth:`ClusterTopology.add_availability_listener`.  ``total_free`` /
utilisation / fragmentation / rack statistics are computed vectorised over
the arrays.  All integer
aggregates are exact (int64); the test suite checks every metric and every
delta against scalar oracles that recount from the container map
(``tests/helpers.py``) and a golden fixture frozen from the retired
dict-of-``Node`` backend.

Scalar reads and writes of one node's row (the free columns, the
availability mask, a γ column's slots) go through ``memoryview``s of the
same int64 / bool buffers: still one record, with Python ints in and out
instead of numpy scalars.  :class:`Allocation`, built once per container,
is a ``NamedTuple`` — immutable, value-equal, hashable, and cheap to build;
it equals any tuple of the same values, so compare it by fields.

Derived metrics are memoised on a state *version counter* that every
allocate / release / availability flip bumps, so repeated reads within one
tick (timeline sink, state-hash event) cost one computation.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as _np

if TYPE_CHECKING:  # import only for annotations: core depends on cluster
    from ..core.constraints import PlacementConstraint, TagConstraint
    from .index import CandidateIndex
from ..tags import validate_tags
from .node import Node
from .resources import Resource
from .topology import ClusterTopology

__all__ = [
    "Allocation", "ClusterState", "PlacedContainer", "StateArrays",
    "placement_fingerprint",
]


class StateArrays:
    """Struct-of-arrays record of the per-node scalar state.

    One row per node, in topology insertion order (the *stable node-index
    map*); int64 throughout so integer sums are exact.  Rack membership is
    pre-encoded into integer codes (sorted rack-name order) so per-rack
    reductions are one ``bincount``.
    """

    __slots__ = (
        "index_of", "node_ids", "cap_mem", "cap_vc", "free_mem", "free_vc",
        "avail", "rack_names", "rack_codes", "rack_cap_mem", "total_cap_mem",
        "total_cap_vc",
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
        self.free_mem = self.cap_mem.copy()
        self.free_vc = self.cap_vc.copy()
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
        self.total_cap_vc = int(self.cap_vc.sum())

    def fit_mask(
        self, demand: Resource, nodes: _np.ndarray | slice = slice(None)
    ) -> _np.ndarray:
        """Per node (all, or the given indices): available and free ≥
        ``demand`` in both dimensions."""
        return (
            self.avail[nodes]
            & (self.free_mem[nodes] >= demand.memory_mb)
            & (self.free_vc[nodes] >= demand.vcores)
        )

    def room_mask(self) -> _np.ndarray:
        """Per node: available and not full (some memory or vcores free)."""
        return self.avail & ((self.free_mem != 0) | (self.free_vc != 0))


class _GroupGamma:
    """γ𝒮 storage of one node group: which sets each node is in, and one
    cardinality array over the group's sets per live tag.

    Every per-set array has one slot more than the group has sets.  That
    last slot stands for "no set": no node is in it, so its count stays 0,
    and membership rows are padded with its index — a gather through the
    padding reads 0 and needs no mask.  The group's per-set arrays start at
    ``offset`` in the state's per-tag columns."""

    __slots__ = ("member", "no_set", "covers_all", "offset", "counts", "zeros")

    def __init__(
        self, rows: _np.ndarray, sets: _np.ndarray, nodes: int, no_set: int, offset: int
    ) -> None:
        """``rows[k]`` is in set ``sets[k]``, one pair per membership, in
        set order; ``nodes`` rows in all."""
        self.no_set = no_set
        self.offset = offset
        lengths = _np.bincount(rows, minlength=nodes)
        #: Node index -> the sets it is in, in set order: one column per
        #: membership position, rows right-padded with ``no_set``.
        self.member = _np.full(
            (nodes, max(1, int(lengths.max()))), no_set, dtype=_np.intp
        )
        # The cells left of each row's length, in row-major order, are the
        # memberships sorted by row; the stable sort keeps set order.
        self.member[_np.arange(self.member.shape[1]) < lengths[:, None]] = sets[
            _np.argsort(rows, kind="stable")
        ]
        #: Every node is in some set of the group.
        self.covers_all = bool(lengths.all())
        #: tag -> int64 cardinality per set, a view into the tag's column;
        #: present only while some container carries the tag (see
        #: ``ClusterState._update_group_tags``).
        self.counts: dict[str, _np.ndarray] = {}
        #: γ of a tag nobody carries.  Shared, hence read-only.
        self.zeros = _np.zeros(self.no_set + 1, dtype=_np.int64)
        self.zeros.setflags(write=False)

    def gamma(self, tags: Iterable[str]) -> _np.ndarray:
        """γ𝒮 of a tag conjunction over every set of the group: the minimum
        over the tags, as in :func:`_conjunction_count`."""
        out = None
        for tag in tags:
            counts = self.counts.get(tag)
            if counts is None:
                return self.zeros
            out = counts if out is None else _np.minimum(out, counts)
        return self.zeros if out is None else out


def _conjunction_count(
    counts: Mapping[str, _np.ndarray],
    set_index: int,
    tags: Iterable[str],
    exclude: Iterable[str] = (),
) -> int:
    """Scalar γ of a tag conjunction in one node set: the minimum of the
    per-tag counts, each less one if the tag is in ``exclude``, floored at
    0."""
    excl = set(exclude)
    gamma = None
    for tag in tags:
        per_set = counts.get(tag)
        count = int(per_set[set_index]) if per_set is not None else 0
        if tag in excl:
            count -= 1
        gamma = count if gamma is None else min(gamma, count)
    return max(0, gamma if gamma is not None else 0)


def _extent_over(tc: "TagConstraint", gamma: _np.ndarray) -> _np.ndarray:
    """Eq. 8 over an integer γ array: ``tc.violation_extent`` elementwise,
    with the same IEEE operations (an int/int true division, or the raw
    slack for a zero bound), so each element equals the scalar bit for bit."""
    below = tc.cmin - gamma
    above = gamma - tc.cmax
    return _np.where(
        below > 0,
        below / tc.cmin if tc.cmin > 0 else below,
        _np.where(above > 0, above / tc.cmax if tc.cmax > 0 else above, 0.0),
    )


#: Length of a fresh :class:`_Eq8Table`; a longer one doubles from here.
_EQ8_INITIAL = 16


class _Eq8Table:
    """Eq. 8 of one ``(cmin, cmax)`` tabulated over γ = 0 … n−1, read-only.

    ``forward[γ]`` is the extent; ``marginal[γ]`` the positive marginal
    ``max(0, ext(γ+1) − ext(γ))`` one more target container adds; and
    ``marginal_self[γ]`` the same at ``max(0, γ − 1)``, for a subject that
    is itself one of the γ targets.  Every entry comes from
    :func:`_extent_over` over ``arange(n + 1)``, so it equals the scalar
    evaluation bit for bit."""

    __slots__ = ("forward", "marginal", "marginal_self")

    def __init__(self, tc: "TagConstraint", n: int) -> None:
        extent = _extent_over(tc, _np.arange(n + 1))
        delta = extent[1:] - extent[:-1]
        marginal = _np.where(delta > 0, delta, 0.0)
        marginal_self = _np.concatenate((marginal[:1], marginal[:-1]))
        for table in (extent, marginal, marginal_self):
            table.setflags(write=False)
        self.forward = extent[:n]
        self.marginal = marginal
        self.marginal_self = marginal_self

    def __len__(self) -> int:
        return len(self.marginal)


def _fold_over_sets(terms: list[_np.ndarray], columns: _np.ndarray) -> _np.ndarray:
    """Per candidate node, the sum of per-set ``terms`` over the node's sets
    (``columns``: one set-index array per membership position), added in the
    scalar evaluation's order: sets outermost, terms innermost.

    The fold starts from the first term, not from a zero array: every term
    is a non-negative float, never -0.0, and ``0.0 + x == x`` bit for bit."""
    out = terms[0][columns[0]]
    for term in terms[1:]:
        out += term[columns[0]]
    for column in columns[1:]:
        for term in terms:
            out += term[column]
    return out


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


class Allocation(NamedTuple):
    """A container currently occupying resources on a node.

    A named tuple, not a frozen dataclass: one is built per container
    lifecycle.  It compares equal to any tuple of the same values."""

    container_id: str
    resource: Resource
    tags: frozenset[str]
    app_id: str
    long_running: bool = True


class PlacedContainer:
    """Bookkeeping record for a container placed somewhere in the cluster."""

    __slots__ = ("container_id", "node_id", "allocation")

    def __init__(self, container_id: str, node_id: str, allocation: Allocation) -> None:
        self.container_id = container_id
        self.node_id = node_id
        self.allocation = allocation


class ClusterState:
    """Mutable cluster-wide allocation state over a fixed topology."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self._containers: dict[str, PlacedContainer] = {}
        # group name -> γ storage, maintained incrementally on
        # allocate/release and rebuilt when the topology's groups change
        # (see _gamma_groups); tag -> live containers carrying it, and its
        # column; node index -> its column slots; column length.
        self._gamma: dict[str, _GroupGamma] = {}
        self._gamma_version = -1
        self._live_tags: dict[str, int] = {}
        #: tag -> its column, as a memoryview for the per-slot writes.
        self._columns: dict[str, memoryview] = {}
        self._slots_of: list[tuple[int, ...]] = []
        self._width = 0
        #: (cmin, cmax) -> Eq.-8 table, grown by doubling (see _eq8).
        self._eq8_tables: dict[tuple[int, int], _Eq8Table] = {}
        #: Bumped on every write and availability flip; memoised metrics
        #: key off it.
        self._version = 0
        self._memo: dict = {}
        self._memo_version = -1
        self._arrays = StateArrays(topology)
        # Scalar reads and writes of one node's row go through memoryviews
        # of the arrays' own int64 / bool buffers: one record, and a Python
        # int in and out instead of a numpy scalar.
        self._free_mem = memoryview(self._arrays.free_mem)
        self._free_vc = memoryview(self._arrays.free_vc)
        self._avail = memoryview(self._arrays.avail)
        self._candidate_index: CandidateIndex | None = None
        topology.add_availability_listener(self)

    def node_availability(self, node: Node, up: bool) -> None:
        """A machine went down or came back: called by the topology for
        every state over it (flip ``node.available`` instead of calling
        this)."""
        self._version += 1
        self._arrays.avail[self._arrays.index_of[node.node_id]] = up

    @property
    def version(self) -> int:
        """Monotone mutation counter (allocate / release / availability)."""
        return self._version

    @property
    def arrays(self) -> StateArrays:
        """The struct-of-arrays record of per-node scalar state."""
        return self._arrays

    def candidate_index(self) -> CandidateIndex:
        """The tag / fit query view over this state, built on first use and
        shared by every scheduler reading it."""
        if self._candidate_index is None:
            from .index import CandidateIndex

            self._candidate_index = CandidateIndex(self)
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
        """Place a container.  Every check (duplicate id, node, fit, tag
        syntax) runs before anything is written, so a rejected call leaves
        no trace.  Fit is against free resources only: an unavailable node
        keeps what it holds, and callers test availability themselves."""
        if container_id in self._containers:
            raise ValueError(f"container {container_id} already allocated")
        i = self._arrays.index_of[node_id]
        free_mem, free_vc = self._free_mem, self._free_vc
        if resource.memory_mb > free_mem[i] or resource.vcores > free_vc[i]:
            raise ValueError(
                f"container {container_id} ({resource}) does not fit "
                f"free {self.free_resources(node_id)} on {node_id}"
            )
        tags = tags if type(tags) is frozenset else frozenset(tags)
        validate_tags(tags)
        free_mem[i] -= resource.memory_mb
        free_vc[i] -= resource.vcores
        self._version += 1
        allocation = Allocation(container_id, resource, tags, app_id, long_running)
        # γ before the container map: a group registered since the last
        # write is recounted *from* that map inside this call.
        self._update_group_tags(i, tags, +1)
        placed = PlacedContainer(container_id, node_id, allocation)
        self._containers[container_id] = placed
        return placed

    def release(self, container_id: str) -> PlacedContainer:
        try:
            placed = self._containers[container_id]
        except KeyError:
            raise KeyError(f"container {container_id} is not allocated") from None
        i = self._arrays.index_of[placed.node_id]
        resource = placed.allocation.resource
        self._free_mem[i] += resource.memory_mb
        self._free_vc[i] += resource.vcores
        self._version += 1
        # γ before the container map, as in allocate.
        self._update_group_tags(i, placed.allocation.tags, -1)
        del self._containers[container_id]
        return placed

    def release_application(self, app_id: str) -> list[PlacedContainer]:
        """Release every container of an application (LRA teardown)."""
        victims = [c for c in self._containers.values() if c.allocation.app_id == app_id]
        for placed in victims:
            self.release(placed.container_id)
        return victims

    def _gamma_groups(self) -> dict[str, _GroupGamma]:
        """The per-group γ storage, current with the topology's groups.

        A group registered (or replaced) after containers were placed gets
        its membership arrays built and its γ recounted from the container
        map here, so it is never invisible to constraint checks.  The build
        is one pass over each group's ``node_sets``, O(nodes +
        memberships).  It runs on first use, not in the constructor, so a
        state pays it at its first write (a pre-loaded one inside
        ``fill_cluster``), before any timed read."""
        topology = self.topology
        version = topology.groups_version
        if version != self._gamma_version:
            self._gamma_version = version
            index_of = self._arrays.index_of
            nodes = len(index_of)
            self._gamma = {}
            rows: list[_np.ndarray] = []
            slots: list[_np.ndarray] = []
            offset = 0
            for name in topology.group_names():
                node_sets = topology.group(name).node_sets
                no_set = len(node_sets)
                sizes = _np.fromiter(map(len, node_sets), dtype=_np.intp, count=no_set)
                # One (node index, set index) pair per membership, in set order.
                row = _np.fromiter(
                    map(index_of.__getitem__, itertools.chain.from_iterable(node_sets)),
                    dtype=_np.intp, count=int(sizes.sum()),
                )
                sets = _np.repeat(_np.arange(no_set, dtype=_np.intp), sizes)
                self._gamma[name] = _GroupGamma(row, sets, nodes, no_set, offset)
                rows.append(row)
                slots.append(sets + offset)
                offset += no_set + 1
            # Per node its slots, groups in order and each group's sets in
            # order: the stable sort by node keeps the concatenation order.
            every_row = _np.concatenate(rows)
            flat = iter(
                _np.concatenate(slots)[_np.argsort(every_row, kind="stable")].tolist()
            )
            self._slots_of = [
                tuple(itertools.islice(flat, count))
                for count in _np.bincount(every_row, minlength=nodes).tolist()
            ]
            self._width = offset
            self._live_tags = {}
            self._columns = {}
            index_of = self._arrays.index_of
            for placed in self._containers.values():
                self._update_group_tags(
                    index_of[placed.node_id], placed.allocation.tags, +1
                )
        return self._gamma

    def _update_group_tags(self, row: int, tags: frozenset[str], delta: int) -> None:
        if self.topology.groups_version != self._gamma_version:
            self._gamma_groups()
        slots = self._slots_of[row]
        live = self._live_tags
        columns = self._columns
        for tag in tags:
            view = columns.get(tag)
            if view is None:
                column = _np.zeros(self._width, dtype=_np.int64)
                view = columns[tag] = memoryview(column)
                for group in self._gamma.values():
                    group.counts[tag] = column[group.offset:group.offset + group.no_set + 1]
            for slot in slots:
                view[slot] += delta
            carriers = live.get(tag, 0) + delta
            if carriers > 0:
                live[tag] = carriers
            else:
                # Last container with this tag left: its column is all zero.
                del live[tag], columns[tag]
                for group in self._gamma.values():
                    del group.counts[tag]

    # -- queries -----------------------------------------------------------------

    @property
    def containers(self) -> Mapping[str, PlacedContainer]:
        return self._containers

    def container(self, container_id: str) -> PlacedContainer:
        return self._containers[container_id]

    def containers_of_app(self, app_id: str) -> list[PlacedContainer]:
        return [c for c in self._containers.values() if c.allocation.app_id == app_id]

    def free_resources(self, node_id: str) -> Resource:
        i = self._arrays.index_of[node_id]
        return Resource(self._free_mem[i], self._free_vc[i])

    def free_vector(self, node_id: str) -> tuple[int, int] | None:
        """``(memory_mb, vcores)`` free on ``node_id`` as plain ints, or
        ``None`` while the node is down."""
        i = self._arrays.index_of[node_id]
        if not self._avail[i]:
            return None
        return self._free_mem[i], self._free_vc[i]

    def can_fit(self, node_id: str, demand: Resource) -> bool:
        """``node_id`` is available and has ``demand`` free."""
        i = self._arrays.index_of[node_id]
        return bool(
            self._avail[i]
            and demand.memory_mb <= self._free_mem[i]
            and demand.vcores <= self._free_vc[i]
        )

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
        per_set = self._gamma_groups()[group_name].counts.get(tag)
        return int(per_set[set_index]) if per_set is not None else 0

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
        :func:`_conjunction_count`); ``exclude`` subtracts one
        occurrence of each listed tag, used when the subject container is
        itself already counted in the state.
        """
        return _conjunction_count(
            self._gamma_groups()[group_name].counts, set_index, tags, exclude
        )

    def gamma_array(self, group_name: str, tags: Iterable[str]) -> _np.ndarray:
        """γ𝒮 of a tag conjunction over every set of ``group_name`` at once
        (indexed by set; one trailing "no set" slot that is always 0): the
        array form of :meth:`gamma` without ``exclude``, as a read-only
        view of the live counts."""
        view = self._gamma_groups()[group_name].gamma(tags).view()
        view.setflags(write=False)
        return view

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
        counts = self._gamma_groups()[constraint.node_group].counts
        satisfied = True
        extent = 0.0
        for set_index in set_indices:
            for tc in constraint.tag_constraints:
                exclude = tc.c_tag.tags & subject if placed else ()
                gamma = _conjunction_count(counts, set_index, tc.c_tag.tags, exclude)
                if not tc.satisfied_by(gamma):
                    satisfied = False
                    extent += tc.violation_extent(gamma)
        return satisfied, extent

    def placement_deltas(
        self,
        constraints: Iterable[PlacementConstraint],
        node_indices: Sequence[int] | _np.ndarray | None,
        subject_tags: Iterable[str],
    ) -> _np.ndarray:
        """Violation extent a hypothetical placement of one container would
        incur on each of ``node_indices`` (a float64 per index), or on every
        node in topology order when ``node_indices`` is ``None`` — then each
        group's membership is read through a view, not gathered.

        Scores both directions: (a) *forward* — constraints whose subject
        matches the new container, evaluated on the candidate node (the
        Eq.-8 extent is the gradient greedy descent needs: a nearly
        satisfied cmin must score better than a far-from-satisfied one);
        (b) *reverse* — constraints of already-placed subjects whose target
        count the new container would raise (an ``hb`` container next to a
        subject with ``{hb, 0, 0}``).  A node set holds γ𝒮(subject) such
        subjects, each observing the target count γ𝒮(c_tag), minus itself
        when the subject expression implies the target expression.

        Every Eq.-8 term is read once per node *set* of the group from the
        ``(cmin, cmax)`` table (see :meth:`_eq8`) and gathered to the
        candidates through the membership array.  Each
        result equals, bit for bit, the node-by-node evaluation the test
        oracle spells out (``tests/helpers.py::scalar_placement_delta``):
        constraints in sequence; per constraint ``weight * forward`` then
        ``weight * reverse``; each of the two a left fold over the node's
        sets in membership order and, per set, the tag constraints in order
        (a satisfied term adds ``0.0``, which changes no bits).  A node in
        no set of the group scores one forward violation per tag constraint
        and no reverse ones.
        """
        subject = frozenset(subject_tags)
        if node_indices is None:
            nodes = slice(None)
            total = _np.zeros(len(self.arrays.node_ids))
        else:
            nodes = _np.asarray(node_indices, dtype=_np.intp)
            total = _np.zeros(len(nodes))
        groups = self._gamma_groups()
        for constraint in constraints:
            tag_constraints = constraint.tag_constraints
            forward = constraint.applies_to(subject)
            reverse = [tc for tc in tag_constraints if tc.c_tag.tags <= subject]
            if not forward and not reverse:
                continue
            group = groups[constraint.node_group]
            columns = group.member[nodes].T
            if forward:
                terms = []
                for tc in tag_constraints:
                    term = self._eq8(tc).forward[group.gamma(tc.c_tag.tags)]
                    term[group.no_set] = 0.0  # γ = 0 there is padding, not a violation
                    terms.append(term)
                extent = _fold_over_sets(terms, columns)
                if not group.covers_all:
                    extent[columns[0] == group.no_set] = float(len(tag_constraints))
                total += constraint.weight * extent
            if reverse:
                subjects = group.gamma(constraint.subject.tags)
                terms = []
                for tc in reverse:
                    table = self._eq8(tc)
                    # A subject that also counts toward the target excludes
                    # itself.
                    marginal = (
                        table.marginal_self
                        if tc.c_tag.tags <= constraint.subject.tags
                        else table.marginal
                    )
                    terms.append(subjects * marginal[group.gamma(tc.c_tag.tags)])
                total += constraint.weight * _fold_over_sets(terms, columns)
        return total

    def _eq8(self, tc: TagConstraint) -> _Eq8Table:
        """The Eq.-8 table of ``tc``'s ``(cmin, cmax)``, long enough for any
        γ of ``tc``'s target: one more entry than the live carriers of the
        target's rarest tag, which no set's γ can exceed.  A short table is
        rebuilt at a doubled length, never clipped, so a γ past its end
        would raise rather than read a wrong value."""
        live = self._live_tags
        bound = min(live.get(tag, 0) for tag in tc.c_tag.tags) + 1
        key = (tc.cmin, tc.cmax)
        table = self._eq8_tables.get(key)
        if table is None or len(table) < bound:
            n = _EQ8_INITIAL if table is None else 2 * len(table)
            while n < bound:
                n *= 2
            table = self._eq8_tables[key] = _Eq8Table(tc, n)
        return table

    def placement_delta_violations(
        self,
        constraints: Iterable[PlacementConstraint],
        node_id: str,
        subject_tags: Iterable[str],
    ) -> float:
        """:meth:`placement_deltas` for a single node, by id."""
        return float(
            self.placement_deltas(
                constraints, [self._arrays.index_of[node_id]], subject_tags
            )[0]
        )

    # -- cluster-wide metrics ---------------------------------------------------
    #
    # Every metric is memoised on the state version counter (the timeline
    # sink reads several per heartbeat) and computed vectorised over the
    # struct-of-arrays record.  The private ``_compute_*`` functions are the
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
        """Ids of currently unavailable nodes, sorted."""
        arrays = self._arrays
        down = _np.flatnonzero(~arrays.avail).tolist()
        return sorted(arrays.node_ids[i] for i in down)

    def fingerprint(self) -> str:
        """Digest of the current placement map and down-node set (see
        :func:`placement_fingerprint`); recorded in ``sim.state_hash``
        events and recomputed by the trace replayer.  Not memoised: each
        checkpoint reads it once."""
        return placement_fingerprint(
            {cid: placed.node_id for cid, placed in self._containers.items()},
            self.down_node_ids(),
        )

    def cluster_memory_utilization(self) -> float:
        memo = self._memo_table()
        value = memo.get("util")
        if value is None:
            value = memo["util"] = self._compute_cluster_memory_utilization()
        return value

    def _compute_cluster_memory_utilization(self) -> float:
        total = self._arrays.total_cap_mem
        if total == 0:
            return 0.0
        return self.used_memory_mb() / total

    def used_memory_mb(self) -> int:
        """Cluster memory not free on an available node: what containers
        hold, plus the whole capacity of every down node (the numerator of
        :meth:`cluster_memory_utilization`, whose denominator is
        ``arrays.total_cap_mem``).  One O(nodes) sum, not memoised."""
        arrays = self._arrays
        return arrays.total_cap_mem - int(arrays.free_mem[arrays.avail].sum())
