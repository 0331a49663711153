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

Grounding visits only node sets that hold an ``X`` variable (of the subject,
for a new subject; of a matching target, for deployed subjects) — no other
set can yield a row — and reads every constant from the state's γ arrays
(:meth:`ClusterState.gamma_array`), so building costs time proportional to
the rows emitted, not to constraints × node sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.resources import Resource
from ..cluster.state import ClusterState
from ..solver import MilpModel, MilpSolution, Sense
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
            self.nodes = [
                n.node_id for n in state.topology if n.available and not n.free.is_zero()
            ]
        else:
            self.nodes = list(candidate_nodes)
        self.model = MilpModel(Sense.MAXIMIZE, name="medea-lra-placement")
        # Index maps populated by build().
        self.x_vars: dict[tuple[int, int, str], int] = {}
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
        #: (i, j) -> {node: X variable}, and node -> [(X variable, container)],
        #: both in candidate-node / container order (filled by build()).
        self._x_of: dict[tuple[int, int], dict[str, int]] = {}
        self._on_node: dict[str, list[tuple[int, ContainerRequest]]] = {}
        #: Per-batch lookups (see _memo's callers): computed on first use,
        #: read many times.
        self._cache: dict[tuple, object] = {}

    # -- per-batch lookups -----------------------------------------------------

    def _memo(self, key: tuple, compute):
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = compute()
        return out

    def _matching_new(self, tags: frozenset[str]) -> list[tuple[int, int, ContainerRequest]]:
        """New containers whose tag set contains the conjunction ``tags``."""
        return self._memo(("new", tags), lambda: [
            (i, j, c) for i, j, c in self._new if tags <= c.tags
        ])

    def _existing_matching(self, tags: frozenset[str]) -> int:
        """Already-placed containers matching a tag conjunction, cluster-wide."""
        return self._memo(("placed", tags), lambda: sum(
            1 for placed in self.state.containers.values()
            if tags <= placed.allocation.tags
        ))

    def _x_per_set(
        self, group_name: str, owners: Sequence[tuple[int, int]]
    ) -> dict[int, dict[int, float]]:
        """The sets of ``group_name`` holding an X variable of the new
        containers ``owners``, ascending, each with those variables and
        their occurrence counts in the set.  Only these sets can hold a row
        that a placement variable enters."""
        sets_of = self._memo(("sets", group_name), lambda: {
            node_id: self.state.group_sets_for_node(group_name, node_id)
            for node_id in self.nodes
        })
        per_set: dict[int, dict[int, float]] = {}
        for owner in owners:
            for node_id, var in self._x_of[owner].items():
                for set_index in sets_of[node_id]:
                    row = per_set.setdefault(set_index, {})
                    row[var] = row.get(var, 0.0) + 1.0
        return dict(sorted(per_set.items()))

    def _targets(
        self, group_name: str, tags: frozenset[str]
    ) -> tuple[dict[int, dict[int, float]], list[int]]:
        """Per set of ``group_name``: the X variables of new containers
        matching ``tags`` (see :meth:`_x_per_set`), and γ of ``tags`` over
        the already-placed containers (the row constants)."""
        return self._memo(("targets", group_name, tags), lambda: (
            self._x_per_set(group_name, [(i, j) for i, j, _ in self._matching_new(tags)]),
            self.state.gamma_array(group_name, tags).tolist(),
        ))

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
        self._on_node = {node_id: [] for node_id in self.nodes}
        for i, j, container in self._new:
            x_of = self._x_of[i, j] = {}
            for pos in np.flatnonzero(arrays.fit_mask(container.resource, rows)).tolist():
                node_id = self.nodes[pos]
                var = self.model.add_binary(f"X[{container.container_id}@{node_id}]")
                x_of[node_id] = self.x_vars[i, j, node_id] = var
                self._on_node[node_id].append((var, container))
        # Eq. 2: each container placed at most once.
        for i, j, container in self._new:
            if self._x_of[i, j]:
                self.model.add_le(
                    dict.fromkeys(self._x_of[i, j].values(), 1.0), 1.0,
                    name=f"once[{container.container_id}]",
                )

    def _free(self, node_id: str) -> tuple[float, float]:
        """Free (memory, vcores) of a node, from the state's free arrays."""
        arrays = self.state.arrays
        k = arrays.index_of[node_id]
        return float(arrays.free_mem[k]), float(arrays.free_vc[k])

    def _add_capacity_constraints(self) -> None:
        # Eq. 3, one row per node per resource dimension.
        for node_id in self.nodes:
            placed = self._on_node[node_id]
            if placed:
                free_mem, free_vc = self._free(node_id)
                self.model.add_le(
                    {var: float(c.resource.memory_mb) for var, c in placed},
                    free_mem, name=f"cap-mem[{node_id}]",
                )
                self.model.add_le(
                    {var: float(c.resource.vcores) for var, c in placed},
                    free_vc, name=f"cap-cpu[{node_id}]",
                )

    def _add_all_or_nothing(self) -> None:
        # Eq. 4: sum of X over an LRA's containers equals T_i * S_i.
        for i, request in enumerate(self.requests):
            coeffs = {
                var: 1.0
                for j in range(len(request.containers))
                for var in self._x_of[i, j].values()
            }
            coeffs[self.s_vars[i]] = -float(len(request.containers))
            self.model.add_eq(coeffs, 0.0, name=f"all-or-nothing[{request.app_id}]")

    def _add_fragmentation(self) -> None:
        # Eq. 5 on the memory dimension (scalar projection): z_n = 1 only if
        # the node keeps >= rmin free after the new placements.
        n_nodes = max(1, len(self.nodes))
        rmin_mem = float(self.rmin.memory_mb)
        big_b = rmin_mem + 1.0
        for node_id in self.nodes:
            z_var = self.model.add_binary(f"z[{node_id}]")
            self.z_vars[node_id] = z_var
            self.model.add_objective_term(
                z_var, self.weights.w3_fragmentation / n_nodes
            )
            coeffs: dict[int, float] = {z_var: big_b}
            for var, container in self._on_node[node_id]:
                coeffs[var] = float(container.resource.memory_mb)
            # used_new + B*z <= Rf - rmin + B   (equivalent to Eq. 5)
            self.model.add_le(
                coeffs, self._free(node_id)[0] - rmin_mem + big_b, name=f"frag[{node_id}]"
            )

    def _add_machines_used(self) -> None:
        """Optional §2.4 objective: minimise the number of machines used for
        the *new* placements."""
        n_nodes = max(1, len(self.nodes))
        for node_id in self.nodes:
            coeffs = {var: 1.0 for var, _ in self._on_node[node_id]}
            if not coeffs:
                continue
            u_var = self.model.add_binary(f"u[{node_id}]")
            self.u_vars[node_id] = u_var
            coeffs[u_var] = -float(len(self._new))
            self.model.add_le(coeffs, 0.0, name=f"used[{node_id}]")
            self.model.add_objective_term(
                u_var, -self.weights.w4_machines / n_nodes
            )

    # -- Eqs. 6-8: placement constraints -----------------------------------------

    def _ground_constraint(
        self,
        constraint: PlacementConstraint,
        *,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None = None,
    ) -> int:
        """Ground one placement constraint; returns number of (subject,
        tag-constraint) slack pairs created.

        ``violation_terms`` collects ``(slack_var, normalised_weight)`` pairs
        for the objective.  ``activation_extra`` optionally names a
        compound-conjunct selection binary ``d``; each grounded inequality
        then gains a ``±D·(1-d)`` deactivation using the same big-D computed
        for that inequality (used for DNF support).
        """
        group_name = self.state.topology.group(constraint.node_group).name
        created = 0
        # New subject containers.
        for i, j, container in self._new:
            if not constraint.applies_to(container.tags):
                continue
            created += self._ground_for_new_subject(
                constraint, group_name, (i, j), container,
                violation_terms, activation_extra,
            )
        # Already-placed subjects, aggregated per node set: every existing
        # subject inside the same set sees the same target count, so one
        # inequality with an objective weight of n_subjects is equivalent to
        # n per-subject rows (and keeps the model small as the cluster
        # fills).
        created += self._ground_for_existing_subjects(
            constraint, group_name, violation_terms, activation_extra
        )
        return created

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

    def _ground_for_new_subject(
        self,
        constraint: PlacementConstraint,
        group_name: str,
        subject_idx: tuple[int, int],
        container: ContainerRequest,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None,
    ) -> int:
        created = 0
        weight = self._objective_weight(constraint)
        # The sets the subject can be placed inside; the row of any other
        # set is deactivated by its big-D whatever the solver does.
        subject_sets = self._memo(
            ("subject", group_name, subject_idx),
            lambda: self._x_per_set(group_name, [subject_idx]),
        )
        for tc_index, tc in enumerate(constraint.tag_constraints):
            slack_min = slack_max = None
            if tc.cmin > 0:
                slack_min = self.model.add_continuous(
                    f"vmin[{container.container_id}/{tc_index}]", upper=float(tc.cmin)
                )
                norm = weight / float(tc.cmin)
                violation_terms.append((slack_min, norm))
                self._slack_vars.append((constraint, container.container_id, slack_min, 1.0 / tc.cmin))
            if tc.cmax < UNBOUNDED:
                slack_max = self.model.add_continuous(
                    f"vmax[{container.container_id}/{tc_index}]"
                )
                violation_terms.append((slack_max, weight * self._max_slack_norm(tc)))
                self._slack_vars.append(
                    (constraint, container.container_id, slack_max,
                     1.0 / tc.cmax if tc.cmax > 0 else 1.0)
                )
            if slack_min is None and slack_max is None:
                continue  # vacuous (0, UNBOUNDED) constraint
            targets, gamma = self._targets(group_name, tc.c_tag.tags)
            big_d_of: dict[int, float] = {}
            for set_index, subject_x in subject_sets.items():
                constant = gamma[set_index]
                big_d = big_d_of.get(constant)
                if big_d is None:
                    big_d = big_d_of[constant] = self._big_d(tc, constant)
                created += 1
                # Target counts exclude the subject itself (tij ≠ tisjs):
                # its X variables carry only the -D·(1 - y) activation.
                target_coeffs = targets.get(set_index, {})
                if slack_min is not None:
                    # targets + D(1-y) + slack >= cmin  (y = sum of subject X in set)
                    coeffs = dict(target_coeffs)
                    for var in subject_x:
                        coeffs[var] = -big_d
                    coeffs[slack_min] = 1.0
                    rhs = float(tc.cmin) - constant - big_d
                    if activation_extra is not None:
                        coeffs[activation_extra] = -big_d
                        rhs -= big_d
                    self.model.add_ge(
                        coeffs, rhs,
                        name=f"cmin[{container.container_id}/{group_name}/{set_index}]",
                    )
                if slack_max is not None:
                    # targets - D(1-y) - slack <= cmax
                    coeffs = dict(target_coeffs)
                    for var in subject_x:
                        coeffs[var] = big_d
                    coeffs[slack_max] = -1.0
                    rhs = float(tc.cmax) - constant + big_d
                    if activation_extra is not None:
                        coeffs[activation_extra] = big_d
                        rhs += big_d
                    self.model.add_le(
                        coeffs, rhs,
                        name=f"cmax[{container.container_id}/{group_name}/{set_index}]",
                    )
        return created

    def _ground_for_existing_subjects(
        self,
        constraint: PlacementConstraint,
        group_name: str,
        violation_terms: list[tuple[int, float]],
        activation_extra: int | None,
    ) -> int:
        created = 0
        weight = self._objective_weight(constraint)
        subject_tags = constraint.subject.tags
        subjects = self.state.gamma_array(group_name, subject_tags)
        tcs = [
            (tc_index, tc, *self._targets(group_name, tc.c_tag.tags))
            for tc_index, tc in enumerate(constraint.tag_constraints)
            if tc.cmin > 0 or tc.cmax < UNBOUNDED
        ]
        # A set no new placement variable enters gives a constant
        # inequality that would only dilute the violation normalisation.
        for set_index in sorted({s for _, _, targets, _ in tcs for s in targets}):
            n_subjects = int(subjects[set_index])
            if n_subjects == 0:
                continue
            for tc_index, tc, targets, gamma in tcs:
                target_coeffs = targets.get(set_index)
                if not target_coeffs:
                    continue
                constant = gamma[set_index]
                # Subjects whose tags imply the target conjunction count
                # toward it and must exclude themselves (tij != tisjs).
                if tc.c_tag.tags <= subject_tags:
                    constant = max(0, constant - 1)
                big_d = self._big_d(tc, constant)
                created += 1
                tag_name = f"dep[{group_name}/{set_index}/{tc_index}]"
                if tc.cmin > 0:
                    slack_min = self.model.add_continuous(
                        f"vmin{tag_name}", upper=float(tc.cmin)
                    )
                    violation_terms.append(
                        (slack_min, n_subjects * weight / float(tc.cmin))
                    )
                    self._slack_vars.append(
                        (constraint, tag_name, slack_min, 1.0 / tc.cmin)
                    )
                    coeffs = dict(target_coeffs)
                    coeffs[slack_min] = 1.0
                    rhs = float(tc.cmin) - constant
                    if activation_extra is not None:
                        coeffs[activation_extra] = -big_d
                        rhs -= big_d
                    self.model.add_ge(coeffs, rhs, name=f"cmin{tag_name}")
                if tc.cmax < UNBOUNDED:
                    slack_max = self.model.add_continuous(f"vmax{tag_name}")
                    violation_terms.append(
                        (slack_max, n_subjects * weight * self._max_slack_norm(tc))
                    )
                    self._slack_vars.append(
                        (constraint, tag_name, slack_max,
                         1.0 / tc.cmax if tc.cmax > 0 else 1.0)
                    )
                    coeffs = dict(target_coeffs)
                    coeffs[slack_max] = -1.0
                    rhs = float(tc.cmax) - constant
                    if activation_extra is not None:
                        coeffs[activation_extra] = big_d
                        rhs += big_d
                    self.model.add_le(coeffs, rhs, name=f"cmax{tag_name}")
        return created

    def _big_d(self, tc: TagConstraint, constant: int) -> float:
        """A D large enough to deactivate either inequality."""
        matching_new = len(self._matching_new(tc.c_tag.tags))
        max_gamma = constant + matching_new
        bound = max(tc.cmin, max_gamma)
        if tc.cmax < UNBOUNDED:
            bound = max(bound, max_gamma - tc.cmax)
        return float(bound + 1)

    #: Dilution cap for per-constraint violation normalisation: a constraint
    #: grounded on many subjects still keeps a per-subject penalty of at
    #: least w2/(m * CAP), so the fragmentation reward (w3/N per node) can
    #: never buy constraint violations.
    VIOLATION_DILUTION_CAP = 8

    def _add_placement_constraints(self) -> None:
        per_constraint: list[list[tuple[int, float]]] = []
        for constraint in self._active_constraints():
            terms: list[tuple[int, float]] = []
            self._ground_constraint(constraint, violation_terms=terms)
            if terms:
                per_constraint.append(terms)
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
            violation_terms: list[tuple[int, float]] = []
            selection_vars = []
            for conj_index, conjunct in enumerate(compound.conjuncts):
                d_var = self.model.add_binary(f"dnf[{comp_index}/{conj_index}]")
                selection_vars.append(d_var)
                for constraint in conjunct:
                    self._ground_constraint(
                        constraint,
                        violation_terms=violation_terms,
                        activation_extra=d_var,
                    )
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
                placed_node = next(
                    (node_id for node_id, var in self._x_of[i, j].items()
                     if solution.rounded(var) == 1),
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

