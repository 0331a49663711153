"""Tests for the submission API (LRARequest / TaskRequest / ContainerRequest)."""

from __future__ import annotations

import pytest

from repro import (
    ClusterState,
    CompoundConstraint,
    ContainerRequest,
    LRARequest,
    Resource,
    TaskRequest,
    affinity,
    anti_affinity,
    build_cluster,
    next_app_id,
)
from repro.core.constraints import TagExpression
from repro.tags import app_id_tag


class TestContainerRequest:
    def test_tag_validation(self):
        with pytest.raises(ValueError):
            ContainerRequest("c", Resource(1, 1), frozenset({"bad tag"}))

    @pytest.mark.parametrize(
        "tag", ["", "has space", "a,b", "a:b:c", ":x", "x:", "br{ace}"]
    )
    def test_one_validator_rejects_every_malformed_tag_every_time(self, tag):
        """Requests, tag expressions and the state share one memoised
        validator: a known-good tag beside a bad one never lets it through,
        and a rejected tag is rejected again."""
        good = ContainerRequest("c", Resource(1, 1), frozenset({"ok"}))
        state = ClusterState(build_cluster(1))
        for _ in range(2):
            with pytest.raises(ValueError):
                ContainerRequest("c", Resource(1, 1), frozenset({"ok", tag}))
            with pytest.raises(ValueError):
                good.with_extra_tags([tag])
            with pytest.raises(ValueError):
                TagExpression(["ok", tag])
            with pytest.raises(ValueError):
                state.allocate("c", "n00000", Resource(1, 1), ("ok", tag), "app")
        assert state.containers == {}

    def test_with_extra_tags(self):
        c = ContainerRequest("c", Resource(1, 1), frozenset({"a"}))
        extended = c.with_extra_tags(["b"])
        assert extended.tags == {"a", "b"}
        assert c.tags == {"a"}  # original untouched

    def test_immutable(self):
        c = ContainerRequest("c", Resource(1, 1), frozenset({"a"}))
        with pytest.raises(AttributeError):
            c.container_id = "other"  # type: ignore[misc]


class TestLRARequest:
    def containers(self, n=2, app="a"):
        return [
            ContainerRequest(f"{app}/c{i}", Resource(1024, 1), frozenset({"w"}))
            for i in range(n)
        ]

    def test_app_id_tag_auto_attached(self):
        req = LRARequest("a", self.containers())
        assert all(app_id_tag("a") in c.tags for c in req.containers)

    def test_empty_app_id_rejected(self):
        with pytest.raises(ValueError):
            LRARequest("", self.containers())

    def test_no_containers_rejected(self):
        with pytest.raises(ValueError):
            LRARequest("a", [])

    def test_duplicate_container_ids_rejected(self):
        dup = [
            ContainerRequest("a/c0", Resource(1, 1), frozenset({"w"})),
            ContainerRequest("a/c0", Resource(1, 1), frozenset({"w"})),
        ]
        with pytest.raises(ValueError):
            LRARequest("a", dup)

    def test_total_resource(self):
        req = LRARequest("a", self.containers(3))
        assert req.total_resource() == Resource(3 * 1024, 3)

    def test_all_simple_constraints_includes_compound(self):
        c1 = affinity("w", "x")
        c2 = anti_affinity("w", "y")
        comp = CompoundConstraint(((c2,),))
        req = LRARequest("a", self.containers(), [c1], [comp])
        assert set(req.all_simple_constraints()) == {c1, c2}

    def test_len_and_repr(self):
        req = LRARequest("a", self.containers(4))
        assert len(req) == 4
        assert "a" in repr(req)

    def test_queue_and_priority(self):
        req = LRARequest("a", self.containers(), priority=5, queue="prod")
        assert req.priority == 5 and req.queue == "prod"


class TestTaskRequestAndIds:
    def test_task_defaults(self):
        t = TaskRequest("t1", "app", Resource(1024, 1))
        assert t.locality == ()
        assert t.duration_s == 10.0
        assert t.queue == "default"

    def test_next_app_id_unique(self):
        ids = {next_app_id() for _ in range(50)}
        assert len(ids) == 50

    def test_next_app_id_prefix(self):
        assert next_app_id("svc").startswith("svc-")
