"""Container tags and tag cardinality (paper §4.1).

Tags are the mechanism by which Medea constraints refer to containers of the
same or different — possibly not yet deployed — applications.  A container
request carries a set of tags; the *node tag set* 𝒯n is the union of tags of
containers currently running on node ``n``, and the *tag cardinality*
γn(t) counts occurrences of tag ``t`` on ``n``.  Both generalise to arbitrary
node sets (racks, upgrade domains, ...).

This module implements tags as plain strings with an optional ``ns:value``
namespace convention, and :class:`TagMultiset`, §4.1's γ as a plain
multiset.  The scheduler does not count with it: γ lives in
:class:`~repro.cluster.state.ClusterState`'s per-group count arrays
(``cluster/state.py::_conjunction_count``).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

__all__ = [
    "NODE_SCOPE",
    "RACK_SCOPE",
    "APP_ID_NAMESPACE",
    "app_id_tag",
    "is_namespaced",
    "tag_namespace",
    "validate_tag",
    "validate_tags",
    "TagMultiset",
]

APP_ID_NAMESPACE = "appID"

#: Predefined node-group names (paper §4.1); defined here, at the root of the
#: dependency graph, because both the cluster topology and the constraint
#: model refer to them.
NODE_SCOPE = "node"
RACK_SCOPE = "rack"

# Tags are short identifiers; we forbid whitespace and the comma used by
# constraint serialisation.  A single ":" separates namespace from value.
_FORBIDDEN = set(" \t\n\r,{}")


def validate_tag(tag: str) -> str:
    """Return ``tag`` if well-formed, raise ``ValueError`` otherwise."""
    if not tag:
        raise ValueError("tag must be a non-empty string")
    if any(ch in _FORBIDDEN for ch in tag):
        raise ValueError(f"tag {tag!r} contains forbidden characters")
    if tag.count(":") > 1:
        raise ValueError(f"tag {tag!r} has more than one namespace separator")
    if tag.startswith(":") or tag.endswith(":"):
        raise ValueError(f"tag {tag!r} has an empty namespace or value")
    return tag


#: Tag strings already validated (validity depends on the string alone);
#: emptied past 65,536 entries so its memory stays bounded.
_valid_tags: set[str] = set()


def validate_tags(tags: frozenset[str]) -> frozenset[str]:
    """Return ``tags`` if every tag is well-formed (see :func:`validate_tag`),
    raise ``ValueError`` otherwise.  Each distinct string is checked once
    per process, so re-validating a known set is one ``issuperset``."""
    if not _valid_tags.issuperset(tags):
        for tag in tags:
            validate_tag(tag)
        if len(_valid_tags) > 1 << 16:
            _valid_tags.clear()
        _valid_tags.update(tags)
    return tags


def is_namespaced(tag: str) -> bool:
    return ":" in tag


def tag_namespace(tag: str) -> str | None:
    """The namespace part of ``tag`` or ``None`` if un-namespaced."""
    if ":" not in tag:
        return None
    return tag.split(":", 1)[0]


def app_id_tag(app_id: str) -> str:
    """The predefined per-application tag automatically attached to each
    container (paper §4.2 footnote 5)."""
    return f"{APP_ID_NAMESPACE}:{app_id}"


class TagMultiset:
    """A multiset of tags implementing the tag cardinality function γ.

    The paper defines, for node ``n``, the tag set 𝒯n and cardinality
    γn : 𝒯n → N.  Allocating a container *adds* its tags; releasing it
    *removes* them.  Node-set tag sets 𝒯𝒮 are unions over members, which is
    multiset *sum* for cardinality purposes (the worked rack example in §4.1
    has γr1(hb)=3 from γn1(hb)=2 and γn2(hb)=1).
    """

    __slots__ = ("_counts",)

    def __init__(self, tags: Iterable[str] = ()) -> None:
        self._counts: Counter[str] = Counter()
        for tag in tags:
            self.add(tag)

    # -- mutation -----------------------------------------------------------

    def add(self, tag: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        validate_tag(tag)
        if count:
            self._counts[tag] += count

    def add_all(self, tags: Iterable[str]) -> None:
        for tag in tags:
            self.add(tag)

    def remove(self, tag: str, count: int = 1) -> None:
        """Remove ``count`` occurrences of ``tag``.

        Raises ``KeyError`` if fewer than ``count`` occurrences exist: a
        release that does not match a prior allocation is a bookkeeping bug
        and must not pass silently.
        """
        have = self._counts.get(tag, 0)
        if have < count:
            raise KeyError(f"cannot remove {count} x {tag!r}: only {have} present")
        if have == count:
            del self._counts[tag]
        else:
            self._counts[tag] -= count

    def remove_all(self, tags: Iterable[str]) -> None:
        for tag in tags:
            self.remove(tag)

    # -- queries ------------------------------------------------------------

    def cardinality(self, tag: str) -> int:
        """γ(tag): number of occurrences (0 if absent)."""
        return self._counts.get(tag, 0)

    def min_cardinality(self, tags: Iterable[str]) -> int:
        """Cardinality of a *conjunction* of tags.

        A conjunction such as ``hb ∧ mem`` is satisfied by containers that
        carry *all* the tags; without per-container bookkeeping at the group
        level the tightest sound count is the minimum of the individual
        cardinalities (exact when each tag combination is emitted by one
        container role, which holds for all constraints in the paper).
        """
        return min((self.cardinality(t) for t in tags), default=0)

    def __contains__(self, tag: str) -> bool:
        return tag in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        """Number of *distinct* tags (|𝒯|)."""
        return len(self._counts)

    def total(self) -> int:
        """Total occurrences across all tags."""
        return sum(self._counts.values())

    def distinct(self) -> frozenset[str]:
        """The tag set 𝒯 as a frozen set."""
        return frozenset(self._counts)

    def as_dict(self) -> dict[str, int]:
        return dict(self._counts)

    # -- algebra ------------------------------------------------------------

    def union_sum(self, other: "TagMultiset") -> "TagMultiset":
        """Multiset sum — the group-level γ𝒮 of two disjoint node sets."""
        merged = TagMultiset()
        merged._counts = self._counts + other._counts
        return merged

    def copy(self) -> "TagMultiset":
        dup = TagMultiset()
        dup._counts = Counter(self._counts)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TagMultiset):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{c}" for t, c in sorted(self._counts.items()))
        return f"TagMultiset({{{inner}}})"
