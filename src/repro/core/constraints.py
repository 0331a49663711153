"""Placement constraints with the paper's formal semantics (§4.2).

Medea supports a single generic constraint form::

    C = {subject_tag, tag_constraint, node_group}

where ``subject_tag`` is a tag (or conjunction of tags) identifying the
containers subject to the constraint, ``tag_constraint`` is
``{c_tag, cmin, cmax}`` (with ``c_tag`` again a tag or conjunction), and
``node_group`` names a registered group of node sets.  The semantics: each
container matching ``subject_tag`` must be placed on a node belonging to a
node set 𝒮 of ``node_group`` such that ``cmin <= γ𝒮(c_tag) <= cmax``.

Special cases:

* affinity — ``cmin=1, cmax=∞``
* anti-affinity — ``cmin=0, cmax=0``
* cardinality — any other ``(cmin, cmax)``

``tag_constraint`` may be a boolean expression of tag constraints and whole
constraints may be combined in disjunctive normal form (DNF); negation is not
supported, matching the paper.  Constraints are *soft* by default and carry a
weight expressing relative importance; hard constraints are emulated with
large weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..tags import NODE_SCOPE, RACK_SCOPE, validate_tags

__all__ = [
    "UNBOUNDED",
    "TagExpression",
    "TagConstraint",
    "PlacementConstraint",
    "CompoundConstraint",
    "affinity",
    "anti_affinity",
    "cardinality",
    "NODE_SCOPE",
    "RACK_SCOPE",
]

#: Sentinel for "no maximum cardinality" (the paper's ∞).
UNBOUNDED: int = 2**31 - 1


class TagExpression:
    """A conjunction of tags, e.g. ``appID:0023 ∧ storm``.

    Matches a container whose tag set contains *every* tag of the
    expression.  Immutable and hashable so expressions can key dictionaries
    in the constraint manager.
    """

    __slots__ = ("_tags",)

    def __init__(self, tags: str | Iterable[str]) -> None:
        if isinstance(tags, str):
            tags = [tags]
        tag_set = frozenset(tags)
        if not tag_set:
            raise ValueError("a tag expression needs at least one tag")
        self._tags = validate_tags(tag_set)

    @property
    def tags(self) -> frozenset[str]:
        return self._tags

    def matches(self, container_tags: Iterable[str]) -> bool:
        """True if a container carrying ``container_tags`` satisfies the
        conjunction."""
        tag_set = container_tags if isinstance(container_tags, (set, frozenset)) else set(container_tags)
        return self._tags <= tag_set

    def __and__(self, other: "TagExpression") -> "TagExpression":
        return TagExpression(self._tags | other._tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagExpression):
            return NotImplemented
        return self._tags == other._tags

    def __hash__(self) -> int:
        return hash(self._tags)

    def __repr__(self) -> str:
        return " ∧ ".join(sorted(self._tags))


def _as_expression(value: str | Iterable[str] | TagExpression) -> TagExpression:
    if isinstance(value, TagExpression):
        return value
    return TagExpression(value)


@dataclass(frozen=True)
class TagConstraint:
    """``{c_tag, cmin, cmax}`` — a cardinality interval on a tag expression."""

    c_tag: TagExpression
    cmin: int
    cmax: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "c_tag", _as_expression(self.c_tag))
        if self.cmin < 0 or self.cmax < 0:
            raise ValueError("cardinalities must be non-negative")
        if self.cmin > self.cmax:
            raise ValueError(f"cmin ({self.cmin}) exceeds cmax ({self.cmax})")

    def is_affinity(self) -> bool:
        return self.cmin >= 1 and self.cmax >= UNBOUNDED

    def is_anti_affinity(self) -> bool:
        return self.cmin == 0 and self.cmax == 0

    def satisfied_by(self, gamma: int) -> bool:
        return self.cmin <= gamma <= self.cmax

    def violation_extent(self, gamma: int) -> float:
        """Relative extent of a violation (paper Eq. 8).

        The paper normalises the min-side slack by ``cmin`` and the max-side
        slack by ``cmax``; a zero bound contributes the raw slack instead
        (the division is only meaningful for non-zero bounds — e.g. an
        anti-affinity constraint with ``cmax=0`` violated by one container
        counts extent 1).
        """
        extent = 0.0
        if gamma < self.cmin:
            slack = self.cmin - gamma
            extent += slack / self.cmin if self.cmin > 0 else float(slack)
        elif gamma > self.cmax:
            slack = gamma - self.cmax
            extent += slack / self.cmax if self.cmax > 0 else float(slack)
        return extent

    def __repr__(self) -> str:
        cmax = "∞" if self.cmax >= UNBOUNDED else str(self.cmax)
        return f"{{{self.c_tag!r}, {self.cmin}, {cmax}}}"


@dataclass(frozen=True)
class PlacementConstraint:
    """A full Medea constraint ``C = {subject_tag, tag_constraint, node_group}``.

    ``tag_constraints`` is a conjunction of :class:`TagConstraint`; a
    disjunction across conjunctions is modelled by
    :class:`CompoundConstraint`.  ``weight`` expresses the soft constraint's
    relative importance (§4.2); ``hard`` marks constraints the scheduler
    should never trade away (emulated in the ILP via a large weight).
    """

    subject: TagExpression
    tag_constraints: tuple[TagConstraint, ...]
    node_group: str
    weight: float = 1.0
    hard: bool = False
    origin: str = "application"

    def __post_init__(self) -> None:
        object.__setattr__(self, "subject", _as_expression(self.subject))
        if isinstance(self.tag_constraints, TagConstraint):
            object.__setattr__(self, "tag_constraints", (self.tag_constraints,))
        else:
            object.__setattr__(self, "tag_constraints", tuple(self.tag_constraints))
        if not self.tag_constraints:
            raise ValueError("a placement constraint needs at least one tag constraint")
        if not self.node_group:
            raise ValueError("node_group must be a non-empty group name")
        if self.weight <= 0 or not math.isfinite(self.weight):
            raise ValueError("weight must be positive and finite")
        if self.origin not in ("application", "operator"):
            raise ValueError(f"unknown constraint origin {self.origin!r}")

    def applies_to(self, container_tags: Iterable[str]) -> bool:
        return self.subject.matches(container_tags)

    def touches(self, container_tags: frozenset[str]) -> bool:
        """A container with ``container_tags`` interacts with this
        constraint: it matches the subject (its own placement is checked)
        or carries a whole target conjunction (its placement changes the
        counts subjects are checked against)."""
        return self.applies_to(container_tags) or any(
            tc.c_tag.tags <= container_tags for tc in self.tag_constraints
        )

    def is_intra_application(self) -> bool:
        """Heuristic classification: a constraint whose subject and target
        share an ``appID`` tag (or identical tag sets) is intra-application."""
        subject_tags = self.subject.tags
        for tc in self.tag_constraints:
            if not (tc.c_tag.tags & subject_tags):
                return False
        return True

    def __hash__(self) -> int:
        """The dataclass-generated hash, computed once per instance: values
        key the constraint manager's index and the ILP's de-duplication,
        and re-hashing the nested fields costs microseconds a call."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.subject, self.tag_constraints, self.node_group,
                self.weight, self.hard, self.origin,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # ``str`` hashes differ between processes: never pickle the cache.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __repr__(self) -> str:
        tcs = " ∧ ".join(repr(tc) for tc in self.tag_constraints)
        kind = "hard" if self.hard else f"w={self.weight:g}"
        return f"C{{{self.subject!r}, {tcs}, {self.node_group}}}[{kind}]"


@dataclass(frozen=True)
class CompoundConstraint:
    """A DNF combination of placement constraints (§4.2).

    Satisfied when at least one conjunct — itself a conjunction of
    :class:`PlacementConstraint` — is fully satisfied.  The ILP adds one
    inequality per conjunct plus an "at least one holds" disjunction
    (§5.2, *Compound constraints*); the heuristics check conjuncts in order.
    """

    conjuncts: tuple[tuple[PlacementConstraint, ...], ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        conjs = tuple(tuple(c) for c in self.conjuncts)
        if not conjs or any(not c for c in conjs):
            raise ValueError("DNF must have at least one non-empty conjunct")
        object.__setattr__(self, "conjuncts", conjs)
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def all_constraints(self) -> tuple[PlacementConstraint, ...]:
        return tuple(itertools.chain.from_iterable(self.conjuncts))

    def subjects(self) -> frozenset[TagExpression]:
        return frozenset(c.subject for c in self.all_constraints())


# -- convenience factories (the three §4.2 special cases) -------------------


def affinity(
    subject: str | Iterable[str] | TagExpression,
    target: str | Iterable[str] | TagExpression,
    node_group: str = NODE_SCOPE,
    *,
    min_count: int = 1,
    weight: float = 1.0,
    hard: bool = False,
    origin: str = "application",
) -> PlacementConstraint:
    """Affinity: each subject container collocated (within ``node_group``)
    with at least ``min_count`` target containers."""
    return PlacementConstraint(
        subject=_as_expression(subject),
        tag_constraints=(TagConstraint(_as_expression(target), min_count, UNBOUNDED),),
        node_group=node_group,
        weight=weight,
        hard=hard,
        origin=origin,
    )


def anti_affinity(
    subject: str | Iterable[str] | TagExpression,
    target: str | Iterable[str] | TagExpression,
    node_group: str = NODE_SCOPE,
    *,
    weight: float = 1.0,
    hard: bool = False,
    origin: str = "application",
) -> PlacementConstraint:
    """Anti-affinity: no target container in the subject's node set."""
    return PlacementConstraint(
        subject=_as_expression(subject),
        tag_constraints=(TagConstraint(_as_expression(target), 0, 0),),
        node_group=node_group,
        weight=weight,
        hard=hard,
        origin=origin,
    )


def cardinality(
    subject: str | Iterable[str] | TagExpression,
    target: str | Iterable[str] | TagExpression,
    cmin: int,
    cmax: int,
    node_group: str = NODE_SCOPE,
    *,
    weight: float = 1.0,
    hard: bool = False,
    origin: str = "application",
) -> PlacementConstraint:
    """Generic cardinality constraint ``cmin <= γ𝒮(target) <= cmax``."""
    return PlacementConstraint(
        subject=_as_expression(subject),
        tag_constraints=(TagConstraint(_as_expression(target), cmin, cmax),),
        node_group=node_group,
        weight=weight,
        hard=hard,
        origin=origin,
    )
