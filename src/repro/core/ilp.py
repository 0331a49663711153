"""The Medea ILP formulation (paper §5.2, Fig. 5).

Given a batch of ``k`` newly submitted LRAs, the live cluster state, and the
set of active placement constraints, this module builds a mixed-integer
program whose solution maximises

    (w1/k)·Σ Si  −  (w2/m)·Σ v_lc  +  (w3/N)·Σ zn          (Eq. 1)

subject to the paper's constraints:

* each container placed at most once (Eq. 2);
* node capacities respected, one inequality per resource dimension (Eq. 3,
  extended to vectors per the paper's footnote 6);
* all-or-nothing placement per LRA (Eq. 4);
* fragmentation indicators ``zn`` = 1 iff a node retains at least ``rmin``
  free after placement (Eq. 5);
* per-constraint cardinality inequalities with violation slacks (Eqs. 6–7)
  and relative violation extents (Eq. 8).

Notes on fidelity:

* The paper states Eq. 1 as a sum of three maximised components while
  simultaneously *minimising* violations with ``w2``; we implement the only
  consistent reading — the violation component enters negatively.
* Eqs. 6–7 in the paper place the big-D activation term inside the sum over
  nodes of 𝒮, which would deactivate the inequality whenever |𝒮| > 1 even
  for subjects placed inside 𝒮.  We implement the evident intent: one
  activation term per (subject, node set), ``D·(1 − Σ_{n∈𝒮} X_sn)``.
* Violation slacks are grounded per (constraint, subject container, tag
  constraint) so the objective can count *containers* in violation — the
  metric Fig. 9 reports.
* The violation component's normalisation deviates from the literal Eq. 1:
  dividing by m (the total number of constraints) dilutes per-violation
  penalties without bound as deployed LRAs accumulate constraints, until
  the fragmentation reward — or the solver's MIP gap — can buy violations
  outright, contradicting the paper's own near-zero-violation results.  We
  average v_lc within each constraint with a capped denominator
  (``IlpFormulation.VIOLATION_DILUTION_CAP``) so one violated container
  always costs at least ``w2 * norm / CAP``.
* The subject container's own tags are excluded from target counts
  (``tij ≠ tisjs``), both for new and already-placed subjects.

Constraints of *already deployed* LRAs are grounded too: their subjects have
fixed placements, so their inequalities are unconditionally active on the
node sets containing them and constrain only the new ``X`` variables.

Grounding is array-native.  Each row family — Eq. 2, Eq. 3, Eq. 4, Eq. 5,
and Eqs. 6–8 of all plain constraints (one more per DNF compound) — is
gathered as entries and appended to the model as one CSR block
(:meth:`MilpModel.add_rows`).  Eqs. 6–8 read a per-group incidence of node
sets × X columns, built once per batch, and every constant from the state's
γ arrays (:meth:`ClusterState.gamma_array`).  Only node sets that hold an
``X`` column (of the subject, for a new subject; of a matching target, for
deployed subjects) are visited — no other set can yield a row — so building
costs time proportional to the rows emitted, not to constraints × node sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..solver import INF, MilpModel, MilpSolution, Sense
from .constraint_manager import ConstraintManager
from .constraints import (
    UNBOUNDED,
    CompoundConstraint,
    PlacementConstraint,
    TagConstraint,
)
from .requests import ContainerRequest, LRARequest
from .scheduler import ContainerPlacement, PlacementResult

__all__ = ["IlpWeights", "IlpFormulation", "GroundedViolation"]

#: Weight multiplier used to emulate hard constraints with soft machinery
#: (paper §4.2: "Medea can emulate hard constraints through the use of
#: weight values").
HARD_CONSTRAINT_FACTOR = 1_000.0


@dataclass(frozen=True)
class IlpWeights:
    """Objective component weights (paper default: w1=1, w2=0.5, w3=0.25).

    ``w4`` activates the optional "minimise number of machines used"
    component mentioned in §2.4/§5.2 as an easy addition; it is off by
    default to match the evaluated configuration.
    """

    w1_placement: float = 1.0
    w2_violations: float = 0.5
    w3_fragmentation: float = 0.25
    w4_machines: float = 0.0


@dataclass
class GroundedViolation:
    """Diagnostics: one violated (constraint, subject, tag-constraint) triple."""

    constraint: PlacementConstraint
    subject_container: str
    extent: float


def _indptr(lengths: np.ndarray) -> np.ndarray:
    """CSR row pointer of rows with the given lengths."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(s, s + l)`` for every ``(s, l)``, laid end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _append_block(
    model: MilpModel,
    row_of: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    names: list[str],
) -> None:
    """Append rows given as entries ``(row_of, cols, vals)`` to ``model``,
    sorted into CSR with each row's columns ascending."""
    # Entries arrive as runs already in row order, which a merge sort uses.
    order = np.argsort(row_of * max(1, model.num_variables) + cols, kind="stable")
    model.add_rows(
        _indptr(np.bincount(row_of, minlength=len(names))),
        cols[order], vals[order], lower, upper, names,
    )


class _Rows:
    """One row family, appended to the model as one block: rows are claimed
    in order with their names, then given entries and bounds (unbounded
    until set)."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._bounds: list[tuple[float, np.ndarray, np.ndarray]] = []

    def claim(self, names: list[str]) -> int:
        """Claim one row per name; returns the number of the first."""
        first = len(self._names)
        self._names += names
        return first

    def add(self, row: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Entries ``vals`` at (row number ``row``, column ``cols``)."""
        self._entries.append((row, cols, vals))

    def bound(self, side: float, row: np.ndarray, value: np.ndarray) -> None:
        """Set the lower (``side`` < 0) or upper bound of rows ``row``."""
        self._bounds.append((side, row, value))

    def append_to(self, model: MilpModel) -> None:
        if not self._names:
            return
        lower = np.full(len(self._names), -INF)
        upper = np.full(len(self._names), INF)
        for side, row, value in self._bounds:
            (lower if side < 0 else upper)[row] = value
        row, cols, vals = (np.concatenate(part) for part in zip(*self._entries))
        _append_block(model, row, cols, vals, lower, upper, self._names)


@dataclass(frozen=True)
class _Incidence:
    """One node group's sets × X-columns incidence for a batch.

    X columns are numbered from 0 in creation order; an entry says that
    column ``x``'s node is ``count`` times in set ``set_of``.  Set-major,
    the entries are sorted by (set, column) in ``set_of``, ``x``, ``owner``
    (the column's new container) and ``count``.  Owner-major, they are
    sorted by (owner, set, column) in ``own_set`` and ``own_x``: container
    ``n``'s run from ``owner_ptr[n]`` to ``owner_ptr[n + 1]``, ``first``
    marks the first entry of each of its sets and ``rank`` numbers them
    from 0."""

    num_sets: int
    set_of: np.ndarray
    x: np.ndarray
    owner: np.ndarray
    count: np.ndarray
    own_set: np.ndarray
    own_x: np.ndarray
    owner_ptr: np.ndarray
    first: np.ndarray
    rank: np.ndarray


@dataclass(frozen=True)
class _Targets:
    """The X columns matching a tag conjunction, per set of one group
    (set-major CSR, as in :class:`_Incidence`), and γ of the conjunction over
    the already-placed containers (the row constants)."""

    ptr: np.ndarray
    x: np.ndarray
    count: np.ndarray
    gamma: np.ndarray


class IlpFormulation:
    """Builds and decodes the Fig. 5 MILP for one scheduling interval."""

    def __init__(
        self,
        requests: Sequence[LRARequest],
        state: ClusterState,
        manager: ConstraintManager,
        *,
        weights: IlpWeights | None = None,
        rmin: Resource = Resource(2048, 1),
        candidate_nodes: Sequence[str] | None = None,
    ) -> None:
        self.requests = list(requests)
        self.state = state
        self.manager = manager
        self.weights = weights or IlpWeights()
        self.rmin = rmin
        if candidate_nodes is None:
            node_ids = state.arrays.node_ids
            self.nodes = [
                node_ids[i] for i in np.flatnonzero(state.arrays.room_mask()).tolist()
            ]
        else:
            self.nodes = list(candidate_nodes)
        self.model = MilpModel(Sense.MAXIMIZE, name="medea-lra-placement")
        # Index maps populated by build() (see also x_vars).
        self.s_vars: dict[int, int] = {}
        self.z_vars: dict[str, int] = {}
        self.u_vars: dict[str, int] = {}
        # (constraint key) -> list of slack var metadata for diagnostics.
        self._slack_vars: list[tuple[PlacementConstraint, str, int, float]] = []
        self._built = False
        #: (request index, container index, container) of every new container.
        self._new = [
            (i, j, container)
            for i, request in enumerate(self.requests)
            for j, container in enumerate(request.containers)
        ]
        #: Every tag some new container carries.
        self._new_tags = frozenset().union(*(c.tags for _, _, c in self._new))
        #: Position in ``_new`` of each request's first container.
        self._first = np.cumsum([0] + [len(r.containers) for r in self.requests])
        # The X columns (filled by build()): X column ``x`` is variable
        # ``_x_cols[x]``; new container ``n`` owns columns ``_x_start[n]`` to
        # ``_x_start[n + 1]``, and column ``x`` places container
        # ``_x_owner[x]`` on candidate node ``_x_node[x]``.
        self._x_start = np.zeros(len(self._new) + 1, dtype=np.int64)
        self._x_node = np.zeros(0, dtype=np.int64)
        self._x_owner = np.zeros(0, dtype=np.int64)
        self._x_cols = np.zeros(0, dtype=np.int64)
        #: Per-batch lookups (see _memo's callers): computed on first use,
        #: read many times.
        self._cache: dict[tuple, object] = {}

    @property
    def x_vars(self) -> dict[tuple[int, int, str], int]:
        """The X variable of each (request index, container index, node)."""
        return {
            (*self._new[n][:2], self.nodes[pos]): var
            for n, pos, var in zip(
                self._x_owner.tolist(), self._x_node.tolist(), self._x_cols.tolist()
            )
        }

    # -- per-batch lookups -----------------------------------------------------

    def _memo(self, key: tuple, compute):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = compute()
        return out

    def _matching_new(self, tags: frozenset[str]) -> list[int]:
        """Positions in ``_new`` of the new containers whose tag set
        contains the conjunction ``tags``."""
        if not tags <= self._new_tags:
            return []
        return self._memo(("new", tags), lambda: [
            n for n, (_, _, c) in enumerate(self._new) if tags <= c.tags
        ])

    def _existing_matching(self, tags: frozenset[str]) -> int:
        """Already-placed containers matching a tag conjunction, cluster-wide."""
        return self._memo(("placed", tags), lambda: sum(
            1 for placed in self.state.containers.values()
            if tags <= placed.allocation.tags
        ))

    def _incidence(self, group_name: str) -> _Incidence:
        return self._memo(("incidence", group_name), lambda: self._build_incidence(group_name))

    def _build_incidence(self, group_name: str) -> _Incidence:
        sets_of = [self.state.group_sets_for_node(group_name, n) for n in self.nodes]
        degree = np.fromiter(map(len, sets_of), dtype=np.int64, count=len(sets_of))
        node_sets = np.fromiter(
            itertools.chain.from_iterable(sets_of), dtype=np.int64, count=int(degree.sum())
        )
        x_degree = degree[self._x_node]
        x = np.repeat(np.arange(len(self._x_node)), x_degree)
        x_sets = node_sets[_ranges(_indptr(degree)[self._x_node], x_degree)]
        # One entry per (owner, set, column); a node listed twice in a set
        # counts twice.
        num_sets = len(self.state.topology.group(group_name).node_sets)
        width = max(1, len(self._x_node))
        key, count = np.unique(
            (self._x_owner[x] * num_sets + x_sets) * width + x, return_counts=True
        )
        pair, x = key // width, key % width
        own_set, owner = pair % num_sets, self._x_owner[x]
        first = np.ones(len(key), dtype=bool)
        first[1:] = pair[1:] != pair[:-1]
        owner_ptr = _indptr(np.bincount(owner, minlength=len(self._new)))
        rank = np.cumsum(first) - 1
        by_set = np.argsort(own_set, kind="stable")
        return _Incidence(
            num_sets=num_sets,
            set_of=own_set[by_set],
            x=x[by_set],
            owner=owner[by_set],
            count=count[by_set].astype(np.float64),
            own_set=own_set,
            own_x=x,
            owner_ptr=owner_ptr,
            first=first,
            rank=rank - rank[owner_ptr[owner]],
        )

    def _targets(self, group_name: str, tags: frozenset[str]) -> _Targets:
        """The X columns of new containers matching ``tags`` per set of
        ``group_name`` — the only sets a row counting ``tags`` can hold a
        placement variable in — and their γ."""
        def compute() -> _Targets:
            incidence = self._incidence(group_name)
            matching = np.zeros(len(self._new), dtype=bool)
            matching[self._matching_new(tags)] = True
            keep = matching[incidence.owner]
            return _Targets(
                ptr=_indptr(np.bincount(incidence.set_of[keep], minlength=incidence.num_sets)),
                x=incidence.x[keep],
                count=incidence.count[keep],
                gamma=self.state.gamma_array(group_name, tags),
            )

        return self._memo(("targets", group_name, tags), compute)

    def _active_constraints(self) -> list[PlacementConstraint]:
        """Union of manager-held constraints and those of the new requests
        (deduplicated — the facade registers requests before scheduling, but
        standalone use must work too)."""
        seen: set[PlacementConstraint] = set()
        out: list[PlacementConstraint] = []
        for constraint in self.manager.active_constraints():
            if constraint not in seen:
                seen.add(constraint)
                out.append(constraint)
        for request in self.requests:
            for constraint in request.constraints:
                if constraint not in seen:
                    seen.add(constraint)
                    out.append(constraint)
        return out

    def _active_compounds(self) -> list[CompoundConstraint]:
        seen: set[int] = set()
        out: list[CompoundConstraint] = []
        for compound in self.manager.active_compound_constraints():
            if id(compound) not in seen:
                seen.add(id(compound))
                out.append(compound)
        for request in self.requests:
            for compound in request.compound_constraints:
                if id(compound) not in seen:
                    seen.add(id(compound))
                    out.append(compound)
        return out

    # -- build -----------------------------------------------------------------

    def build(self) -> MilpModel:
        if self._built:
            return self.model
        self._built = True
        self._add_placement_variables()
        self._add_capacity_constraints()
        self._add_all_or_nothing()
        self._add_fragmentation()
        if self.weights.w4_machines > 0:
            self._add_machines_used()
        self._add_placement_constraints()
        self._add_compound_constraints()
        return self.model

    def _add_placement_variables(self) -> None:
        k = max(1, len(self.requests))
        for i, request in enumerate(self.requests):
            s_var = self.model.add_binary(f"S[{request.app_id}]")
            self.s_vars[i] = s_var
            self.model.add_objective_term(s_var, self.weights.w1_placement / k)
        # X only where the container fits the node's free resources (a
        # container that fits nowhere gets none: Eq. 4 forces S_i = 0).
        arrays = self.state.arrays
        rows = np.fromiter(
            (arrays.index_of[n] for n in self.nodes), dtype=np.intp, count=len(self.nodes)
        )
        self._free_mem = arrays.free_mem[rows].astype(np.float64)
        self._free_vc = arrays.free_vc[rows].astype(np.float64)
        fits = [np.flatnonzero(arrays.fit_mask(c.resource, rows)) for _, _, c in self._new]
        x_base = self.model.add_variables(
            [
                f"X[{container.container_id}@{self.nodes[pos]}]"
                for (_, _, container), positions in zip(self._new, fits)
                for pos in positions.tolist()
            ],
            upper=1.0, integer=True,
        )
        per_container = np.fromiter(map(len, fits), dtype=np.int64, count=len(fits))
        self._x_start = _indptr(per_container)
        self._x_owner = np.repeat(np.arange(len(self._new)), per_container)
        self._x_node = np.concatenate(fits) if fits else np.zeros(0, dtype=np.int64)
        self._x_cols = x_base + np.arange(len(self._x_node))
        # Eq. 2: each container placed at most once.
        placeable = np.flatnonzero(per_container)
        self.model.add_rows(
            _indptr(per_container[placeable]),
            self._x_cols,
            np.ones(len(self._x_cols)),
            np.full(len(placeable), -INF),
            np.ones(len(placeable)),
            [f"once[{self._new[n][2].container_id}]" for n in placeable.tolist()],
        )

    def _x_demand(self, resource: str) -> np.ndarray:
        """Per X column, its container's demand of ``memory_mb`` or ``vcores``."""
        demand = np.fromiter(
            (getattr(c.resource, resource) for _, _, c in self._new),
            dtype=np.float64, count=len(self._new),
        )
        return demand[self._x_owner]

    def _used_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the candidate nodes holding an X column, and per X
        column the rank of its node among them."""
        holds = np.bincount(self._x_node, minlength=len(self.nodes)) > 0
        return np.flatnonzero(holds), (np.cumsum(holds) - 1)[self._x_node]

    def _add_capacity_constraints(self) -> None:
        # Eq. 3, one row per node per resource dimension: memory, then vcores.
        used, rank = self._used_nodes()
        _append_block(
            self.model,
            np.concatenate([2 * rank, 2 * rank + 1]),
            np.concatenate([self._x_cols, self._x_cols]),
            np.concatenate([self._x_demand("memory_mb"), self._x_demand("vcores")]),
            np.full(2 * len(used), -INF),
            np.column_stack([self._free_mem[used], self._free_vc[used]]).ravel(),
            [
                name
                for node_id in (self.nodes[pos] for pos in used.tolist())
                for name in (f"cap-mem[{node_id}]", f"cap-cpu[{node_id}]")
            ],
        )

    def _add_all_or_nothing(self) -> None:
        # Eq. 4: sum of X over an LRA's containers equals T_i * S_i.
        count = len(self.requests)
        x_start = self._x_start[self._first]
        _append_block(
            self.model,
            np.concatenate([np.repeat(np.arange(count), np.diff(x_start)), np.arange(count)]),
            np.concatenate([self._x_cols, np.fromiter(self.s_vars.values(), np.int64, count)]),
            np.concatenate([np.ones(len(self._x_cols)), -np.diff(self._first).astype(np.float64)]),
            np.zeros(count),
            np.zeros(count),
            [f"all-or-nothing[{request.app_id}]" for request in self.requests],
        )

    def _add_fragmentation(self) -> None:
        # Eq. 5 on the memory dimension (scalar projection): z_n = 1 only if
        # the node keeps >= rmin free after the new placements.
        n_nodes = max(1, len(self.nodes))
        rmin_mem = float(self.rmin.memory_mb)
        big_b = rmin_mem + 1.0
        z_base = self.model.add_variables(
            [f"z[{node_id}]" for node_id in self.nodes], upper=1.0, integer=True
        )
        self.z_vars = dict(zip(self.nodes, itertools.count(z_base)))
        for z_var in self.z_vars.values():
            self.model.add_objective_term(
                z_var, self.weights.w3_fragmentation / n_nodes
            )
        nodes = np.arange(len(self.nodes))
        # used_new + B*z <= Rf - rmin + B   (equivalent to Eq. 5)
        _append_block(
            self.model,
            np.concatenate([nodes, self._x_node]),
            np.concatenate([z_base + nodes, self._x_cols]),
            np.concatenate([np.full(len(nodes), big_b), self._x_demand("memory_mb")]),
            np.full(len(nodes), -INF),
            self._free_mem - rmin_mem + big_b,
            [f"frag[{node_id}]" for node_id in self.nodes],
        )

    def _add_machines_used(self) -> None:
        """Optional §2.4 objective: minimise the number of machines used for
        the *new* placements."""
        n_nodes = max(1, len(self.nodes))
        used, rank = self._used_nodes()
        node_ids = [self.nodes[pos] for pos in used.tolist()]
        u_base = self.model.add_variables(
            [f"u[{node_id}]" for node_id in node_ids], upper=1.0, integer=True
        )
        self.u_vars = dict(zip(node_ids, itertools.count(u_base)))
        for u_var in self.u_vars.values():
            self.model.add_objective_term(
                u_var, -self.weights.w4_machines / n_nodes
            )
        _append_block(
            self.model,
            np.concatenate([rank, np.arange(len(used))]),
            np.concatenate([self._x_cols, u_base + np.arange(len(used))]),
            np.concatenate([np.ones(len(self._x_cols)), np.full(len(used), -float(len(self._new)))]),
            np.full(len(used), -INF),
            np.zeros(len(used)),
            [f"used[{node_id}]" for node_id in node_ids],
        )

    # -- Eqs. 6-8: placement constraints -----------------------------------------

    def _ground_constraint(
        self,
        constraint: PlacementConstraint,
        rows: _Rows,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None = None,
    ) -> None:
        """Ground one placement constraint into ``rows``.

        ``violation_terms`` collects ``(slack_var, normalised_weight)`` pairs
        for the objective.  ``activation_extra`` optionally names a
        compound-conjunct selection binary ``d``; each grounded inequality
        then gains a ``±D·(1-d)`` deactivation using the same big-D computed
        for that inequality (used for DNF support).
        """
        group_name = self.state.topology.group(constraint.node_group).name
        subjects = self._matching_new(constraint.subject.tags)
        if subjects:
            self._ground_for_new_subjects(
                constraint, group_name, subjects, rows, violation_terms, activation_extra
            )
        # Already-placed subjects, aggregated per node set: every existing
        # subject inside the same set sees the same target count, so one
        # inequality with an objective weight of n_subjects is equivalent to
        # n per-subject rows (and keeps the model small as the cluster
        # fills).
        self._ground_for_existing_subjects(
            constraint, group_name, rows, violation_terms, activation_extra
        )

    def _max_slack_norm(self, tc: TagConstraint) -> float:
        """Normaliser keeping a cmax-side violation in [0, 1] for the
        objective.  Eq. 8 divides by cmax, which is undefined for
        anti-affinity (cmax = 0); there we divide by the largest slack any
        placement could produce, so one fully-violated constraint never
        outweighs the w1 placement reward (which the paper's weight choice
        w1 > w2 presumes)."""
        if tc.cmax > 0:
            return 1.0 / float(tc.cmax)
        pool = len(self._matching_new(tc.c_tag.tags)) + self._existing_matching(
            tc.c_tag.tags
        )
        return 1.0 / float(max(1, pool - 1))

    def _objective_weight(self, constraint: PlacementConstraint) -> float:
        weight = constraint.weight
        if constraint.hard:
            weight *= HARD_CONSTRAINT_FACTOR
        return weight

    def _slacks(
        self,
        constraint: PlacementConstraint,
        tc: TagConstraint,
        label: str,
        name: str,
        subjects: int,
        violation_terms: list[tuple[int, float]],
    ) -> tuple[int, int]:
        """The violation slacks ``vmin{name}`` / ``vmax{name}`` of one
        grounded tag constraint, on the bounded sides (-1 for the other):
        weighted for ``subjects`` subject containers into
        ``violation_terms``, recorded under ``label`` for diagnostics."""
        weight = self._objective_weight(constraint)
        slack_min = slack_max = -1
        if tc.cmin > 0:
            slack_min = self.model.add_continuous(f"vmin{name}", upper=float(tc.cmin))
            violation_terms.append((slack_min, subjects * weight / float(tc.cmin)))
            self._slack_vars.append((constraint, label, slack_min, 1.0 / tc.cmin))
        if tc.cmax < UNBOUNDED:
            slack_max = self.model.add_continuous(f"vmax{name}")
            violation_terms.append((slack_max, subjects * weight * self._max_slack_norm(tc)))
            self._slack_vars.append(
                (constraint, label, slack_max, 1.0 / tc.cmax if tc.cmax > 0 else 1.0)
            )
        return slack_min, slack_max

    def _ground_for_new_subjects(
        self,
        constraint: PlacementConstraint,
        group_name: str,
        subjects: list[int],
        rows: _Rows,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None,
    ) -> None:
        """Rows for the new containers ``subjects`` (positions in ``_new``):
        subject by subject, tag constraint by tag constraint, set by set
        over the sets the subject can be placed inside.  The row of any
        other set would be deactivated by its big-D whatever the solver
        does."""
        tcs = constraint.tag_constraints
        # Slack columns per (subject, tag constraint): min, max; -1 where
        # the side is unbounded.
        slack = np.full((len(subjects), len(tcs), 2), -1, dtype=np.int64)
        for k, n in enumerate(subjects):
            container_id = self._new[n][2].container_id
            for tc_index, tc in enumerate(tcs):
                slack[k, tc_index] = self._slacks(
                    constraint, tc, container_id, f"[{container_id}/{tc_index}]", 1,
                    violation_terms,
                )
        # Pairs (subject, set the subject has an X column in), subject by
        # subject and set by set; each subject X column entry names its pair.
        incidence = self._incidence(group_name)
        subject_of = np.asarray(subjects)
        starts = incidence.owner_ptr[subject_of]
        lengths = incidence.owner_ptr[subject_of + 1] - starts
        own = _ranges(starts, lengths)
        entry_subject = np.repeat(np.arange(len(subjects)), lengths)
        first = incidence.first[own]
        pair_set = incidence.own_set[own[first]]
        pair_subject = entry_subject[first]
        pair_start = _indptr(np.bincount(pair_subject, minlength=len(subjects)))
        entry_pair = pair_start[entry_subject] + incidence.rank[own]
        pair_rank = np.arange(len(pair_set)) - pair_start[pair_subject]
        # The subject's own X columns: outside the target count, and the
        # switch that deactivates the row unless the subject is in the set.
        exclude = (
            self._x_start[subject_of][pair_subject],
            self._x_start[subject_of + 1][pair_subject],
        )
        switches = [(entry_pair, self._x_cols[incidence.own_x[own]])]
        if activation_extra is not None:
            switches.append((np.arange(len(pair_set)), np.full(len(pair_set), activation_extra)))
        # Rows run subject, tag constraint, set, side: block (k, t) starts at
        # row ``offset[k, t]``.
        names = []
        for k, n in enumerate(subjects):
            subject = f"[{self._new[n][2].container_id}/{group_name}/"
            tails = [f"{s}]" for s in pair_set[pair_start[k]:pair_start[k + 1]].tolist()]
            for tc in tcs:
                heads = ["cmin" + subject] * (tc.cmin > 0) + ["cmax" + subject] * (tc.cmax < UNBOUNDED)
                names += [head + tail for tail in tails for head in heads]
        sides = np.array([(tc.cmin > 0) + (tc.cmax < UNBOUNDED) for tc in tcs], dtype=np.int64)
        per_subject = pair_start[1:] - pair_start[:-1]
        offset = rows.claim(names) + _indptr((per_subject[:, None] * sides).ravel())[:-1]
        offset = offset.reshape(len(subjects), len(tcs))
        for tc_index, tc in enumerate(tcs):
            if sides[tc_index]:
                targets = self._targets(group_name, tc.c_tag.tags)
                self._tag_constraint_rows(
                    rows, tc, targets, pair_set,
                    offset[pair_subject, tc_index] + pair_rank * sides[tc_index],
                    slack[pair_subject, tc_index], targets.gamma[pair_set], switches, exclude,
                )

    def _ground_for_existing_subjects(
        self,
        constraint: PlacementConstraint,
        group_name: str,
        rows: _Rows,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None,
    ) -> None:
        tcs = [
            (tc_index, tc, self._targets(group_name, tc.c_tag.tags))
            for tc_index, tc in enumerate(constraint.tag_constraints)
            if (tc.cmin > 0 or tc.cmax < UNBOUNDED) and self._matching_new(tc.c_tag.tags)
        ]
        if not any(targets.x.size for _, _, targets in tcs):
            return
        subject_tags = constraint.subject.tags
        subjects = self.state.gamma_array(group_name, subject_tags)
        # A set no new placement variable enters gives a constant
        # inequality that would only dilute the violation normalisation:
        # rows go to the pairs (set, tag constraint) with a target and a
        # subject in the set, set by set.
        hit = np.array([targets.ptr[1:] > targets.ptr[:-1] for _, _, targets in tcs]) & (
            subjects[:-1] > 0
        )
        pair_set, pair_tc = np.nonzero(hit.T)
        slack = np.full((len(pair_set), 2), -1, dtype=np.int64)
        names = []
        for p, (set_index, position) in enumerate(zip(pair_set.tolist(), pair_tc.tolist())):
            tc_index, tc, _ = tcs[position]
            tag_name = f"dep[{group_name}/{set_index}/{tc_index}]"
            slack[p] = self._slacks(
                constraint, tc, tag_name, tag_name, int(subjects[set_index]), violation_terms
            )
            names += [f"cmin{tag_name}"] * (tc.cmin > 0) + [f"cmax{tag_name}"] * (tc.cmax < UNBOUNDED)
        pair_row = rows.claim(names) + _indptr((slack >= 0).sum(axis=1))[:-1]
        for position, (_, tc, targets) in enumerate(tcs):
            mine = np.flatnonzero(pair_tc == position)
            if not mine.size:
                continue
            constant = targets.gamma[pair_set[mine]]
            # Subjects whose tags imply the target conjunction count
            # toward it and must exclude themselves (tij != tisjs).
            if tc.c_tag.tags <= subject_tags:
                constant = np.maximum(0, constant - 1)
            switches = []
            if activation_extra is not None:
                switches.append((np.arange(mine.size), np.full(mine.size, activation_extra)))
            self._tag_constraint_rows(
                rows, tc, targets, pair_set[mine], pair_row[mine], slack[mine],
                constant, switches,
            )

    def _tag_constraint_rows(
        self,
        rows: _Rows,
        tc: TagConstraint,
        targets: _Targets,
        pair_set: np.ndarray,
        pair_row: np.ndarray,
        slack: np.ndarray,
        constant: np.ndarray,
        switches: list[tuple[np.ndarray, np.ndarray]],
        exclude: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Eqs. 6–7 of ``tc`` in the node sets ``pair_set``, whose placed
        containers hold ``constant`` targets: a ``cmin`` row at ``pair_row``
        and a ``cmax`` row after it (whichever side is bounded).  A row
        counts the X columns of ``targets`` in its set, less those in the
        pair's ``exclude`` range ``[start, end)``, plus its slack column
        (``slack`` per pair: min, max).  A switch, given as (pair of each
        entry, column), takes ∓D and moves the right-hand side by ∓D, so
        the row binds only when the switch's columns sum to 1."""
        lengths = targets.ptr[pair_set + 1] - targets.ptr[pair_set]
        entries = _ranges(targets.ptr[pair_set], lengths)
        target_pair = np.repeat(np.arange(len(pair_set)), lengths)
        target_x = targets.x[entries]
        target_count = targets.count[entries]
        if exclude is not None:
            # Target counts exclude the subject itself (tij ≠ tisjs).
            other = (target_x < exclude[0][target_pair]) | (target_x >= exclude[1][target_pair])
            target_pair, target_x, target_count = (
                target_pair[other], target_x[other], target_count[other]
            )
        target_cols = self._x_cols[target_x]
        big_d = self._big_d(tc, constant)
        sides = []
        if tc.cmin > 0:
            # targets + D(1-y) + slack >= cmin  (y = sum of switch columns)
            sides.append((-1.0, float(tc.cmin) - constant, slack[:, 0], 1.0))
        if tc.cmax < UNBOUNDED:
            # targets - D(1-y) - slack <= cmax
            sides.append((1.0, float(tc.cmax) - constant, slack[:, 1], -1.0))
        for side, (sign, rhs, slack_cols, slack_coeff) in enumerate(sides):
            row = pair_row + side
            rows.add(row[target_pair], target_cols, target_count)
            rows.add(row, slack_cols, np.full(len(row), slack_coeff))
            for entry_pair, cols in switches:
                rows.add(row[entry_pair], cols, sign * big_d[entry_pair])
                rhs = rhs + sign * big_d
            rows.bound(sign, row, rhs)

    def _big_d(self, tc: TagConstraint, constant: np.ndarray) -> np.ndarray:
        """Per γ constant, a D large enough to deactivate either inequality."""
        matching_new = len(self._matching_new(tc.c_tag.tags))
        max_gamma = constant + matching_new
        bound = np.maximum(tc.cmin, max_gamma)
        if tc.cmax < UNBOUNDED:
            bound = np.maximum(bound, max_gamma - tc.cmax)
        return (bound + 1).astype(np.float64)

    #: Dilution cap for per-constraint violation normalisation: a constraint
    #: grounded on many subjects still keeps a per-subject penalty of at
    #: least w2/(m * CAP), so the fragmentation reward (w3/N per node) can
    #: never buy constraint violations.
    VIOLATION_DILUTION_CAP = 8

    def _add_placement_constraints(self) -> None:
        rows = _Rows()
        per_constraint: list[list[tuple[int, float]]] = []
        for constraint in self._active_constraints():
            terms: list[tuple[int, float]] = []
            self._ground_constraint(constraint, rows, terms)
            if terms:
                per_constraint.append(terms)
        rows.append_to(self.model)
        # Deviation from the literal Eq. 1: the paper divides the violation
        # component by m (the number of constraints), which progressively
        # dilutes per-violation penalties as constraints accumulate until
        # the fragmentation reward — or the solver's MIP gap — can buy
        # violations outright.  We keep the per-constraint averaging of
        # v_lc but cap the denominator, so one violated container always
        # costs at least w2 * norm / CAP regardless of model size.
        for terms in per_constraint:
            denominator = min(len(terms), self.VIOLATION_DILUTION_CAP)
            for slack_var, norm in terms:
                self.model.add_objective_term(
                    slack_var, -self.weights.w2_violations * norm / denominator
                )

    def _add_compound_constraints(self) -> None:
        """DNF support (§5.2 "Compound constraints"): each conjunct gets a
        selection binary; at least one conjunct must be selected; only the
        selected conjunct's cardinality inequalities are active."""
        for comp_index, compound in enumerate(self._active_compounds()):
            rows = _Rows()
            violation_terms: list[tuple[int, float]] = []
            selection_vars = []
            for conj_index, conjunct in enumerate(compound.conjuncts):
                d_var = self.model.add_binary(f"dnf[{comp_index}/{conj_index}]")
                selection_vars.append(d_var)
                for constraint in conjunct:
                    self._ground_constraint(constraint, rows, violation_terms, d_var)
            rows.append_to(self.model)
            self.model.add_ge(
                {var: 1.0 for var in selection_vars},
                1.0,
                name=f"dnf-select[{comp_index}]",
            )
            denominator = min(
                max(1, len(violation_terms)), self.VIOLATION_DILUTION_CAP
            )
            for slack_var, norm in violation_terms:
                self.model.add_objective_term(
                    slack_var,
                    -compound.weight * self.weights.w2_violations * norm / denominator,
                )

    # -- decoding -------------------------------------------------------------

    def extract(self, solution: MilpSolution) -> PlacementResult:
        """Decode a solver solution into a :class:`PlacementResult`."""
        result = PlacementResult()
        result.solver_stats = solution.stats
        if not solution.status.has_solution():
            result.rejected_apps = [r.app_id for r in self.requests]
            return result
        result.objective = solution.objective
        for i, request in enumerate(self.requests):
            if solution.rounded(self.s_vars[i]) != 1:
                result.rejected_apps.append(request.app_id)
                continue
            for j, container in enumerate(request.containers):
                n = self._first[i] + j
                placed_node = next(
                    (self.nodes[pos] for pos, var in zip(
                        self._x_node[self._x_start[n]:self._x_start[n + 1]].tolist(),
                        self._x_cols[self._x_start[n]:self._x_start[n + 1]].tolist(),
                    ) if solution.rounded(var) == 1),
                    None,
                )
                if placed_node is None:
                    raise RuntimeError(
                        f"solver reported S=1 for {request.app_id} but container "
                        f"{container.container_id} has no node assignment"
                    )
                result.placements.append(
                    ContainerPlacement(
                        app_id=request.app_id,
                        container_id=container.container_id,
                        node_id=placed_node,
                        resource=container.resource,
                        tags=container.tags,
                    )
                )
        return result

    def violations(self, solution: MilpSolution) -> list[GroundedViolation]:
        """Non-zero violation slacks, for diagnostics and metrics."""
        out = []
        if not solution.status.has_solution():
            return out
        for constraint, container_id, var, norm in self._slack_vars:
            value = solution.value(var)
            if value > 1e-6:
                out.append(GroundedViolation(constraint, container_id, value * norm))
        return out

