"""Application submission API (paper §3, "LRA interface").

Two request flavours mirror Medea's routing rule:

* :class:`LRARequest` — containers plus placement constraints; handled by the
  LRA scheduler.
* :class:`TaskRequest` — plain resource ask (optionally with data-locality
  preferences); handled directly by the task-based scheduler.

Each LRA container request carries a tag set 𝒯r; the ``appID:<id>`` tag is
attached automatically (paper §4.2 footnote 5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from ..cluster.resources import Resource
from .constraints import CompoundConstraint, PlacementConstraint
from ..tags import app_id_tag, validate_tags

__all__ = ["ContainerRequest", "LRARequest", "TaskRequest", "next_app_id"]

_app_counter = itertools.count(1)


def next_app_id(prefix: str = "app") -> str:
    """Generate a process-unique application id."""
    return f"{prefix}-{next(_app_counter):05d}"


@dataclass(frozen=True)
class ContainerRequest:
    """One LRA container: resources plus its tag set 𝒯r."""

    container_id: str
    resource: Resource
    tags: frozenset[str]

    def __post_init__(self) -> None:
        validate_tags(self.tags)

    def with_extra_tags(self, extra: Iterable[str]) -> "ContainerRequest":
        return ContainerRequest(self.container_id, self.resource, self.tags | frozenset(extra))


class LRARequest:
    """A long-running application submission.

    ``constraints`` are simple placement constraints; ``compound_constraints``
    are DNF combinations.  Container ids are namespaced by the application id
    and every container automatically receives the ``appID:`` tag.
    """

    def __init__(
        self,
        app_id: str,
        containers: Sequence[ContainerRequest],
        constraints: Sequence[PlacementConstraint] = (),
        compound_constraints: Sequence[CompoundConstraint] = (),
        *,
        priority: int = 0,
        queue: str = "default",
    ) -> None:
        if not app_id:
            raise ValueError("app_id must be non-empty")
        if not containers:
            raise ValueError(f"LRA {app_id} has no containers")
        self.app_id = app_id
        auto_tag = app_id_tag(app_id)
        self.containers: tuple[ContainerRequest, ...] = tuple(
            c.with_extra_tags([auto_tag]) for c in containers
        )
        seen: set[str] = set()
        for container in self.containers:
            if container.container_id in seen:
                raise ValueError(
                    f"duplicate container id {container.container_id!r} in LRA {app_id}"
                )
            seen.add(container.container_id)
        self.constraints: tuple[PlacementConstraint, ...] = tuple(constraints)
        self.compound_constraints: tuple[CompoundConstraint, ...] = tuple(
            compound_constraints
        )
        self.priority = priority
        self.queue = queue

    def total_resource(self) -> Resource:
        total = Resource(0, 0)
        for container in self.containers:
            total = total + container.resource
        return total

    def all_simple_constraints(self) -> tuple[PlacementConstraint, ...]:
        """Simple constraints plus every constraint inside compound DNFs
        (used for tag-popularity counting and validation)."""
        out = list(self.constraints)
        for compound in self.compound_constraints:
            out.extend(compound.all_constraints())
        return tuple(out)

    def __len__(self) -> int:
        return len(self.containers)

    def __repr__(self) -> str:
        return (
            f"LRARequest({self.app_id}, {len(self.containers)} containers, "
            f"{len(self.constraints)} constraints)"
        )


class TaskRequest(NamedTuple):
    """A short-running (task-based) container request.

    ``locality`` optionally lists preferred nodes/racks in YARN's
    node→rack→any relaxation order; no placement constraints are allowed —
    requests with constraints must go through the LRA API (§3).

    An immutable, value-equal, hashable record: one is built per task
    lifecycle, and a named tuple costs a fraction of a frozen dataclass
    to build.  Being a tuple, it compares equal to any tuple of the same
    values; compare records by their fields, not by their type.
    """

    task_id: str
    app_id: str
    resource: Resource
    locality: tuple[str, ...] = ()
    duration_s: float = 10.0
    queue: str = "default"
    priority: int = 0
