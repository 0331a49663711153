"""Constraint manager (paper §3, §6).

The central component where all constraints live — those submitted by
application owners alongside their LRAs and the cluster-wide ones installed
by operators.  It gives the LRA scheduler a global view of every *active*
constraint, supports add/remove as applications come and go, validates
constraints against the cluster's registered node groups, and implements the
paper's conflict-resolution rule: *operator constraints override application
constraints when more restrictive* (§5.2).

Besides the plain per-owner lists, the manager keeps a tag index that
registration updates in place.  Every query reads the index — the active
list, which constraints a container with given tags interacts with, how
popular a tag is — so the schedulers' per-container queries cost what the
container's own tags reach, not the number of live applications.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from ..cluster.topology import ClusterTopology
from .constraints import CompoundConstraint, PlacementConstraint
from .requests import LRARequest

__all__ = ["BatchConstraints", "ConstraintManager", "ConstraintValidationError"]

#: Where one occurrence of a constraint sits in the greedy view:
#: ``(section, owner rank, position)``.  Section 0 holds the simple
#: constraints of every owner, section 1 the first conjuncts of compound
#: constraints; owners rank in registration order.
_Key = tuple[int, int, int]
#: An application's (rank, simple constraints, compound constraints).
_Record = tuple[int, list[PlacementConstraint], list[CompoundConstraint]]


class ConstraintValidationError(ValueError):
    """Raised when a submitted constraint references an unknown node group."""


def _tag_uses(constraint: PlacementConstraint) -> Iterator[str]:
    """Every subject tag, then every tag of each target conjunction (a tag
    in two conjunctions counts twice): what tag popularity counts."""
    return chain(
        constraint.subject.tags,
        chain.from_iterable(tc.c_tag.tags for tc in constraint.tag_constraints),
    )


def _first_conjuncts(
    compounds: Iterable[CompoundConstraint],
) -> Iterator[PlacementConstraint]:
    """The greedy heuristics' stand-in for compound (DNF) constraints: the
    first conjunct of each — they have no machinery to defer disjunct
    choice, which is exactly the quality gap the ILP exploits."""
    return chain.from_iterable(compound.conjuncts[0] for compound in compounds)


class _Entry:
    """The index's record of one distinct constraint value.  Buckets hold
    entries, which hash by identity: hashing the constraint itself walks
    its nested fields every time."""

    __slots__ = ("value", "keys", "first", "overridden")

    def __init__(self, value: PlacementConstraint, overridden: bool) -> None:
        self.value = value
        #: keys of the value's occurrences (a dict used as an ordered set).
        self.keys: dict[_Key, None] = {}
        #: the value's place in the greedy view; ``None`` when not in it.
        self.first: _Key | None = None
        #: some operator constraint overrides this application value.
        self.overridden = overridden


class ConstraintManager:
    """Registry of active placement constraints: per application, plus the
    operator's cluster-wide list.

    **The greedy view** is the constraint list the heuristics score
    against: every active simple constraint (operator overrides applied),
    then the first conjunct of every registered compound constraint, each
    value kept at its first occurrence.  The index holds, per distinct
    constraint value, the ``_Key`` of each occurrence and the smallest one
    that is in force; the view is the values in force sorted by that key.
    Order matters: :meth:`ClusterState.placement_deltas` adds floats in
    constraint order, so another order could move a tie-break.
    """

    OPERATOR = "operator"

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology
        #: app id -> its record; re-registering keeps the rank (and the
        #: dict position).
        self._apps: dict[str, _Record] = {}
        self._operator: list[PlacementConstraint] = []
        self._operator_rank = -1
        self._next_rank = 0
        # -- the tag index ---------------------------------------------------
        self._entries: dict[PlacementConstraint, _Entry] = {}
        #: representative tag -> entries: the smallest subject tag, and the
        #: smallest tag of each target conjunction.
        self._by_subject: dict[str, set[_Entry]] = {}
        self._by_target: dict[str, set[_Entry]] = {}
        #: tag -> uses in the greedy view (subject and target conjunctions).
        self._popularity: dict[str, int] = {}

    # -- validation ---------------------------------------------------------

    def validate(self, constraint: PlacementConstraint) -> None:
        if not self._topology.has_group(constraint.node_group):
            raise ConstraintValidationError(
                f"constraint {constraint!r} references unregistered node group "
                f"{constraint.node_group!r} (known: {self._topology.group_names()})"
            )

    def _validate_all(
        self,
        constraints: Iterable[PlacementConstraint],
        compound: Iterable[CompoundConstraint],
    ) -> None:
        for constraint in chain(
            constraints, chain.from_iterable(c.all_constraints() for c in compound)
        ):
            self.validate(constraint)
            if constraint.origin == self.OPERATOR:
                raise ValueError(
                    f"an application cannot submit operator constraint {constraint!r}"
                )

    # -- registration -------------------------------------------------------

    def register_application(self, request: LRARequest) -> None:
        """Validate and store an LRA's constraints (step 2 of the LRA
        life-cycle, Fig. 6).  Registering a live app id again replaces its
        constraints in place."""
        self._validate_all(request.constraints, request.compound_constraints)
        old = self._apps.get(request.app_id)
        if old is None:
            rank = self._next_rank
            self._next_rank += 1
        else:
            rank = old[0]
            self._unindex(old)
        record = (rank, list(request.constraints), list(request.compound_constraints))
        self._apps[request.app_id] = record
        for key, constraint in self._occurrences(record):
            self._put(constraint, key)

    def register_operator_constraint(self, constraint: PlacementConstraint) -> None:
        self.validate(constraint)
        if constraint.origin != self.OPERATOR:
            raise ValueError("operator constraints must carry origin='operator'")
        if not self._operator:
            self._operator_rank = self._next_rank
            self._next_rank += 1
        key = (0, self._operator_rank, len(self._operator))
        self._operator.append(constraint)
        for entry in self._by_subject.get(min(constraint.subject.tags), ()):
            if not entry.overridden and self._overrides(constraint, entry.value):
                entry.overridden = True
                self._refresh(entry)
        self._put(constraint, key)

    def unregister_application(self, app_id: str) -> None:
        """Drop an application's constraints when it finishes (tags leave the
        node tag sets via container release; constraints leave here)."""
        record = self._apps.pop(app_id, None)
        if record is not None:
            self._unindex(record)

    # -- index upkeep ---------------------------------------------------------

    @staticmethod
    def _occurrences(record: _Record) -> Iterator[tuple[_Key, PlacementConstraint]]:
        rank, simple, compound = record
        for position, constraint in enumerate(simple):
            yield (0, rank, position), constraint
        for position, constraint in enumerate(_first_conjuncts(compound)):
            yield (1, rank, position), constraint

    def _unindex(self, record: _Record) -> None:
        for key, constraint in self._occurrences(record):
            self._take(constraint, key)

    def _put(self, value: PlacementConstraint, key: _Key) -> None:
        entry = self._entries.get(value)
        if entry is None:
            entry = self._entries[value] = _Entry(
                value, any(self._overrides(op, value) for op in self._operator)
            )
            self._by_subject.setdefault(min(value.subject.tags), set()).add(entry)
            for tag in {min(tc.c_tag.tags) for tc in value.tag_constraints}:
                self._by_target.setdefault(tag, set()).add(entry)
        entry.keys[key] = None
        if (entry.first is None or key < entry.first) and (
            key[0] or not entry.overridden
        ):
            self._set_first(entry, key)

    def _take(self, value: PlacementConstraint, key: _Key) -> None:
        entry = self._entries[value]
        del entry.keys[key]
        if not entry.keys:
            del self._entries[value]
            self._discard(self._by_subject, min(value.subject.tags), entry)
            for tag in {min(tc.c_tag.tags) for tc in value.tag_constraints}:
                self._discard(self._by_target, tag, entry)
        if entry.first == key:
            self._refresh(entry)

    @staticmethod
    def _discard(buckets: dict[str, set[_Entry]], tag: str, entry: _Entry) -> None:
        bucket = buckets[tag]
        bucket.discard(entry)
        if not bucket:
            del buckets[tag]

    def _refresh(self, entry: _Entry) -> None:
        """Recompute ``entry``'s place in the greedy view from its keys."""
        keys = entry.keys
        if entry.overridden:
            keys = [key for key in keys if key[0]]
        self._set_first(entry, min(keys, default=None))

    def _set_first(self, entry: _Entry, key: _Key | None) -> None:
        before, entry.first = entry.first, key
        if (before is None) == (key is None):
            return
        step = 1 if key is not None else -1
        popularity = self._popularity
        for tag in _tag_uses(entry.value):
            count = popularity.get(tag, 0) + step
            if count:
                popularity[tag] = count
            else:
                del popularity[tag]

    # -- queries --------------------------------------------------------------

    def constraints_of(self, app_id: str) -> list[PlacementConstraint]:
        record = self._apps.get(app_id)
        return list(record[1]) if record is not None else []

    def compound_of(self, app_id: str) -> list[CompoundConstraint]:
        record = self._apps.get(app_id)
        return list(record[2]) if record is not None else []

    def operator_constraints(self) -> list[PlacementConstraint]:
        return list(self._operator)

    def active_constraints(self) -> list[PlacementConstraint]:
        """All simple constraints currently in force, across every registered
        application and the operator (owners in registration order, each
        owner's list in submission order), with operator conflict-overrides
        applied.  A value that two owners hold appears twice."""
        return self._in_force(self._entries.values())

    def constraints_applying_to(
        self, tags: frozenset[str]
    ) -> list[PlacementConstraint]:
        """Active constraints whose subject matches ``tags``, in active-list
        order with repeats — exactly ``[c for c in self.active_constraints()
        if c.applies_to(tags)]``, served from the subject-tag index.
        Preserving the active-list order keeps downstream float accumulation
        (violation extents) byte-identical to the unindexed scan."""
        return self._in_force(
            entry
            for tag in tags
            for entry in self._by_subject.get(tag, ())
            if entry.value.applies_to(tags)
        )

    def constraints_touching(self, tags: frozenset[str]) -> list[PlacementConstraint]:
        """Active constraints a container with ``tags`` interacts with (see
        :meth:`PlacementConstraint.touches`), in active-list order with
        repeats — exactly ``[c for c in self.active_constraints() if
        c.touches(tags)]``."""
        return self._in_force(
            entry for entry in self._reached(tags) if entry.value.touches(tags)
        )

    def _reached(self, tags: frozenset[str]) -> set[_Entry]:
        """The entries bucketed under one of ``tags``: a superset of those
        a container with ``tags`` touches, since each entry is bucketed
        under its smallest subject tag and the smallest tag of each target
        conjunction, and matching a conjunction means carrying all of its
        tags."""
        reached: set[_Entry] = set()
        for tag in tags:
            reached.update(self._by_subject.get(tag, ()))
            reached.update(self._by_target.get(tag, ()))
        return reached

    @staticmethod
    def _in_force(entries: Iterable[_Entry]) -> list[PlacementConstraint]:
        """The simple-constraint occurrences (section 0) of ``entries`` that
        no operator constraint overrides, in active-list order."""
        hits = [
            (key, entry.value)
            for entry in entries
            if not entry.overridden
            for key in entry.keys
            if not key[0]
        ]
        hits.sort(key=itemgetter(0))
        return [value for _, value in hits]

    def batch(self, requests: Sequence[LRARequest]) -> "BatchConstraints":
        """The greedy view extended by ``requests``' own constraints; valid
        until the manager next changes."""
        return BatchConstraints(self, requests)

    def active_compound_constraints(self) -> list[CompoundConstraint]:
        return [c for _, _, compounds in self._apps.values() for c in compounds]

    def registered_apps(self) -> list[str]:
        return sorted(self._apps)

    def __iter__(self) -> Iterator[PlacementConstraint]:
        return iter(self.active_constraints())

    # -- conflict resolution ---------------------------------------------------

    @staticmethod
    def _overrides(op: PlacementConstraint, app: PlacementConstraint) -> bool:
        """The §5.2 rule: True if operator constraint ``op`` targets the
        same (subject, target, group) triple as application constraint
        ``app`` and is at least as restrictive (a narrower cardinality
        interval) on every tag constraint; an operator constraint is never
        overridden.  Constraints that do not clash are all kept; the ILP
        then minimises violations among whatever remains."""
        if app.origin == ConstraintManager.OPERATOR:
            return False
        if op.node_group != app.node_group or op.subject != app.subject:
            return False
        if len(op.tag_constraints) != len(app.tag_constraints):
            return False
        by_tag = {tc.c_tag: tc for tc in op.tag_constraints}
        for tc in app.tag_constraints:
            op_tc = by_tag.get(tc.c_tag)
            if op_tc is None:
                return False
            if not (op_tc.cmin >= tc.cmin and op_tc.cmax <= tc.cmax):
                return False
        return True


class BatchConstraints:
    """What the greedy heuristics and J-Kube score one batch against: the
    manager's greedy view, then the batch's own constraints (simple ones,
    then first conjuncts, request by request) that the view does not
    already hold, each value once.

    Equal, element by element and in order, to a plain scan of those lists:
    ``tests/test_constraint_manager.py`` holds :meth:`relevant` to the scan
    kept in ``tests/helpers.py`` after every registration step.
    """

    __slots__ = ("_manager", "_extra", "_extra_popularity", "_relevant")

    def __init__(self, manager: ConstraintManager, requests: Sequence[LRARequest]) -> None:
        self._manager = manager
        entries = manager._entries
        extra: dict[PlacementConstraint, None] = {}
        for request in requests:
            for constraint in chain(
                request.constraints, _first_conjuncts(request.compound_constraints)
            ):
                entry = entries.get(constraint)
                if entry is None or entry.first is None:
                    extra[constraint] = None
        self._extra = list(extra)
        popularity: dict[str, int] = {}
        for constraint in self._extra:
            for tag in _tag_uses(constraint):
                popularity[tag] = popularity.get(tag, 0) + 1
        self._extra_popularity = popularity
        self._relevant: dict[frozenset[str], list[PlacementConstraint]] = {}

    def relevant(self, tags: frozenset[str]) -> list[PlacementConstraint]:
        """The constraints a container with ``tags`` touches (see
        :meth:`PlacementConstraint.touches`), in view order.  Everything
        else is untouched by the placement."""
        cached = self._relevant.get(tags)
        if cached is None:
            hits = sorted(
                (entry.first, entry.value)
                for entry in self._manager._reached(tags)
                if entry.first is not None and entry.value.touches(tags)
            )
            cached = self._relevant[tags] = [value for _, value in hits] + [
                constraint for constraint in self._extra if constraint.touches(tags)
            ]
        return cached

    def popularity(self, tag: str) -> int:
        """How often ``tag`` occurs in the subjects and target conjunctions
        of the batch's constraints."""
        return self._manager._popularity.get(tag, 0) + self._extra_popularity.get(tag, 0)
