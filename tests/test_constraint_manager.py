"""Tests for the constraint manager (§3, §6)."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CompoundConstraint,
    ConstraintManager,
    affinity,
    anti_affinity,
    build_cluster,
    cardinality,
)
from repro.core.constraint_manager import ConstraintValidationError
from repro.core.constraints import PlacementConstraint, TagConstraint
from repro.core.jkube import JKubePlusPlusScheduler, JKubeScheduler, _kube_supported
from tests.helpers import gather_constraints, make_lra, relevant_constraints


class TestRegistration:
    def test_register_and_query(self, manager):
        req = make_lra("a", constraints=[affinity("x", "y", "node")])
        manager.register_application(req)
        assert manager.constraints_of("a") == list(req.constraints)
        assert manager.registered_apps() == ["a"]

    def test_register_compound(self, manager):
        comp = CompoundConstraint(((affinity("x", "y"),),))
        req = make_lra("a", compound=[comp])
        manager.register_application(req)
        assert manager.compound_of("a") == [comp]
        assert manager.active_compound_constraints() == [comp]

    def test_unknown_group_rejected(self, manager):
        req = make_lra("a", constraints=[affinity("x", "y", "mystery_group")])
        with pytest.raises(ConstraintValidationError):
            manager.register_application(req)

    def test_unknown_group_in_compound_rejected(self, manager):
        comp = CompoundConstraint(((affinity("x", "y", "mystery"),),))
        req = make_lra("a", compound=[comp])
        with pytest.raises(ConstraintValidationError):
            manager.register_application(req)

    def test_unregister(self, manager):
        req = make_lra("a", constraints=[affinity("x", "y")])
        manager.register_application(req)
        manager.unregister_application("a")
        assert manager.constraints_of("a") == []
        assert manager.active_constraints() == []

    def test_unregister_unknown_is_noop(self, manager):
        manager.unregister_application("ghost")

    def test_active_spans_apps(self, manager):
        a = make_lra("a", constraints=[affinity("x", "y")])
        b = make_lra("b", constraints=[anti_affinity("p", "q")])
        manager.register_application(a)
        manager.register_application(b)
        assert len(manager.active_constraints()) == 2

    def test_iter(self, manager):
        manager.register_application(make_lra("a", constraints=[affinity("x", "y")]))
        assert len(list(manager)) == 1


class TestOperatorConstraints:
    def test_register_operator(self, manager):
        c = cardinality("w", "w", 0, 2, "node", origin="operator")
        manager.register_operator_constraint(c)
        assert manager.operator_constraints() == [c]
        assert c in manager.active_constraints()

    def test_wrong_origin_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.register_operator_constraint(cardinality("w", "w", 0, 2, "node"))

    def test_operator_validates_group(self, manager):
        c = cardinality("w", "w", 0, 2, "nope", origin="operator")
        with pytest.raises(ConstraintValidationError):
            manager.register_operator_constraint(c)

    def test_override_when_more_restrictive(self, manager):
        """§5.2: operator constraints override app constraints on the same
        triple when more restrictive."""
        app_c = cardinality("w", "w", 0, 5, "node")
        op_c = cardinality("w", "w", 0, 2, "node", origin="operator")
        manager.register_application(make_lra("a", constraints=[app_c]))
        manager.register_operator_constraint(op_c)
        active = manager.active_constraints()
        assert op_c in active
        assert app_c not in active

    def test_no_override_when_less_restrictive(self, manager):
        app_c = cardinality("w", "w", 0, 2, "node")
        op_c = cardinality("w", "w", 0, 5, "node", origin="operator")
        manager.register_application(make_lra("a", constraints=[app_c]))
        manager.register_operator_constraint(op_c)
        active = manager.active_constraints()
        assert app_c in active and op_c in active

    def test_no_override_different_subject(self, manager):
        app_c = cardinality("v", "v", 0, 5, "node")
        op_c = cardinality("w", "w", 0, 2, "node", origin="operator")
        manager.register_application(make_lra("a", constraints=[app_c]))
        manager.register_operator_constraint(op_c)
        assert app_c in manager.active_constraints()

    def test_no_override_different_group(self, manager):
        app_c = cardinality("w", "w", 0, 5, "rack")
        op_c = cardinality("w", "w", 0, 2, "node", origin="operator")
        manager.register_application(make_lra("a", constraints=[app_c]))
        manager.register_operator_constraint(op_c)
        assert app_c in manager.active_constraints()

    def test_app_named_operator_leaves_operator_constraints_alone(self, manager):
        """An application whose id is ``"operator"`` is an application: it
        neither replaces nor, on leaving, deletes the cluster-wide list."""
        op_c = cardinality("w", "w", 0, 2, "node", origin="operator")
        app_c = affinity("x", "y")
        manager.register_operator_constraint(op_c)
        manager.register_application(make_lra("operator", constraints=[app_c]))
        assert manager.operator_constraints() == [op_c]
        assert manager.constraints_of("operator") == [app_c]
        assert manager.registered_apps() == ["operator"]
        assert manager.active_constraints() == [op_c, app_c]
        manager.unregister_application("operator")
        assert manager.operator_constraints() == [op_c]
        assert manager.active_constraints() == [op_c]

    def test_application_cannot_submit_operator_constraints(self, manager):
        op_c = cardinality("w", "w", 0, 2, "node", origin="operator")
        with pytest.raises(ValueError):
            manager.register_application(make_lra("a", constraints=[op_c]))
        comp = CompoundConstraint(((op_c,),))
        with pytest.raises(ValueError):
            manager.register_application(make_lra("a", compound=[comp]))
        assert manager.registered_apps() == []


# -- the tag index against the scans it replaces ------------------------------

_TAGS = ("a", "b", "c", "d")
_TAG_SETS = [
    frozenset(combo) for k in range(1, len(_TAGS) + 1) for combo in combinations(_TAGS, k)
]
_APP_IDS = ("a1", "a2", "a3", "operator")
#: Stands in for the operator's owner slot in the reference model, which
#: keeps every owner in one dict the way the manager once did.
_OPERATOR_SLOT = object()

_tag_expr = st.frozensets(st.sampled_from(_TAGS), min_size=1, max_size=2)
_tag_constraint = st.builds(
    lambda target, cmin, width: TagConstraint(target, cmin, cmin + width),
    _tag_expr, st.integers(0, 2), st.integers(0, 2),
)
_pool = st.lists(
    st.builds(
        PlacementConstraint,
        subject=_tag_expr,
        tag_constraints=st.lists(_tag_constraint, min_size=1, max_size=2).map(tuple),
        node_group=st.sampled_from(("node", "rack")),
        weight=st.sampled_from((1.0, 2.0)),
    ),
    min_size=1, max_size=6,
)
_picks = st.lists(st.integers(0, 5), max_size=4)
_register = st.tuples(
    st.just("register"), st.sampled_from(_APP_IDS), _picks,
    st.lists(st.tuples(_picks.filter(bool), _picks), max_size=2),
)
_unregister = st.tuples(st.just("unregister"), st.sampled_from(_APP_IDS))
_operator = st.tuples(st.just("operator"), st.integers(0, 5), st.booleans())
_steps = st.lists(st.one_of(_register, _register, _unregister, _operator), max_size=12)


def _request(app_id, pool, simple, compound):
    pick = lambda indices: [pool[i % len(pool)] for i in indices]  # noqa: E731
    dnf = [
        CompoundConstraint((tuple(pick(first)), tuple(pick(rest)))
                           if rest else (tuple(pick(first)),))
        for first, rest in compound
    ]
    return make_lra(app_id, constraints=pick(simple), compound=dnf)


def _operator_constraint(constraint, narrow):
    """Same triple as ``constraint``; a narrower interval overrides it."""
    return PlacementConstraint(
        constraint.subject,
        tuple(
            TagConstraint(tc.c_tag, tc.cmin, tc.cmin if narrow else tc.cmax + 1)
            for tc in constraint.tag_constraints
        ),
        constraint.node_group,
        origin="operator",
    )


def _scan_popularity(constraints):
    counts: dict[str, int] = {}
    for constraint in constraints:
        for tag in constraint.subject.tags:
            counts[tag] = counts.get(tag, 0) + 1
        for tc in constraint.tag_constraints:
            for tag in tc.c_tag.tags:
                counts[tag] = counts.get(tag, 0) + 1
    return counts


@settings(max_examples=150, deadline=None)
@given(pool=_pool, steps=_steps, batch_simple=_picks, batch_compound=_picks)
def test_index_equals_the_scans(pool, steps, batch_simple, batch_compound):
    """After every register, re-register, unregister and operator step, the
    index answers exactly what the scans answer: the same constraints in
    the same order, and the same popularity — for the greedy family,
    J-Kube, J-Kube++ and migration alike.  (A tag expression cannot be
    empty, so there are no empty subjects to cover.)"""
    manager = ConstraintManager(build_cluster(4, racks=2))
    owners: dict[object, list[PlacementConstraint]] = {}
    live = {}
    for step in steps:
        if step[0] == "register":
            _, app_id, simple, compound = step
            request = _request(app_id, pool, simple, compound)
            manager.register_application(request)
            owners[app_id] = list(request.constraints)
            live[app_id] = request
        elif step[0] == "unregister":
            manager.unregister_application(step[1])
            owners.pop(step[1], None)
            live.pop(step[1], None)
        else:
            op_c = _operator_constraint(pool[step[1] % len(pool)], step[2])
            manager.register_operator_constraint(op_c)
            owners.setdefault(_OPERATOR_SLOT, []).append(op_c)

        operators = owners.get(_OPERATOR_SLOT, [])
        assert manager.operator_constraints() == operators
        assert manager.active_constraints() == [
            c
            for constraints in owners.values()
            for c in constraints
            if not any(ConstraintManager._overrides(op, c) for op in operators)
        ]
        unregistered = _request("new", pool, batch_simple, [(batch_compound, [])] if batch_compound else [])
        requests = [*list(live.values())[:1], unregistered]
        gathered = gather_constraints(requests, manager)
        mapped = [m for m in map(_kube_supported, gathered) if m is not None]
        batch = manager.batch(requests)
        popularity = _scan_popularity(gathered)
        for tag in _TAGS:
            assert batch.popularity(tag) == popularity.get(tag, 0)
        active = manager.active_constraints()
        for tags in _TAG_SETS:
            assert batch.relevant(tags) == relevant_constraints(gathered, tags)
            assert JKubePlusPlusScheduler()._relevant(batch, tags) == (
                relevant_constraints(gathered, tags)
            )
            assert JKubeScheduler()._relevant(batch, tags) == (
                relevant_constraints(mapped, tags)
            )
            assert manager.constraints_applying_to(tags) == [
                c for c in active if c.applies_to(tags)
            ]
            assert manager.constraints_touching(tags) == (
                relevant_constraints(active, tags)
            )
