"""Unit tests for the constraint model (paper §4.2)."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro import (
    CompoundConstraint,
    PlacementConstraint,
    TagConstraint,
    TagExpression,
    UNBOUNDED,
    affinity,
    anti_affinity,
    cardinality,
)
from repro.cluster.state import _conjunction_count


def _gamma_in(tags, tc):
    """γ of ``tc``'s tag conjunction in one node set holding the tag
    multiset ``tags``, by the state's min-fold."""
    counts = {t: np.array([n]) for t, n in Counter(tags).items()}
    return _conjunction_count(counts, 0, tc.c_tag.tags)


class TestTagExpression:
    def test_single_tag(self):
        expr = TagExpression("storm")
        assert expr.tags == {"storm"}
        assert expr.matches({"storm", "other"})
        assert not expr.matches({"other"})

    def test_conjunction(self):
        expr = TagExpression(["hb", "mem"])
        assert expr.matches({"hb", "mem", "x"})
        assert not expr.matches({"hb"})

    def test_and_operator(self):
        expr = TagExpression("hb") & TagExpression("mem")
        assert expr.tags == {"hb", "mem"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TagExpression([])

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            TagExpression("bad tag")

    def test_hashable_and_eq(self):
        assert TagExpression(["a", "b"]) == TagExpression(["b", "a"])
        assert len({TagExpression("a"), TagExpression("a")}) == 1

    def test_repr_sorted(self):
        assert repr(TagExpression(["b", "a"])) == "a ∧ b"


class TestTagConstraint:
    def test_affinity_detection(self):
        assert TagConstraint(TagExpression("x"), 1, UNBOUNDED).is_affinity()
        assert not TagConstraint(TagExpression("x"), 0, 0).is_affinity()

    def test_anti_affinity_detection(self):
        assert TagConstraint(TagExpression("x"), 0, 0).is_anti_affinity()
        assert not TagConstraint(TagExpression("x"), 0, 1).is_anti_affinity()

    def test_satisfaction_interval(self):
        tc = TagConstraint(TagExpression("x"), 2, 5)
        assert not tc.satisfied_by(1)
        assert tc.satisfied_by(2)
        assert tc.satisfied_by(5)
        assert not tc.satisfied_by(6)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            TagConstraint(TagExpression("x"), -1, 2)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            TagConstraint(TagExpression("x"), 3, 2)

    def test_string_coerced_to_expression(self):
        tc = TagConstraint("x", 0, 1)
        assert isinstance(tc.c_tag, TagExpression)

    def test_repr_infinity(self):
        assert "∞" in repr(TagConstraint(TagExpression("x"), 1, UNBOUNDED))


class TestViolationExtent:
    """Eq. 8: relative violation extents."""

    def test_no_violation_zero_extent(self):
        tc = TagConstraint(TagExpression("x"), 1, 3)
        assert tc.violation_extent(2) == 0.0

    def test_min_side_relative(self):
        tc = TagConstraint(TagExpression("x"), 4, UNBOUNDED)
        assert tc.violation_extent(3) == pytest.approx(0.25)
        assert tc.violation_extent(0) == pytest.approx(1.0)

    def test_max_side_relative(self):
        """Paper footnote 3: 10 containers against cmax=5 is a worse
        violation than 6."""
        tc = TagConstraint(TagExpression("x"), 0, 5)
        assert tc.violation_extent(10) == pytest.approx(1.0)
        assert tc.violation_extent(6) == pytest.approx(0.2)
        assert tc.violation_extent(10) > tc.violation_extent(6)

    def test_anti_affinity_raw_slack(self):
        tc = TagConstraint(TagExpression("x"), 0, 0)
        assert tc.violation_extent(1) == pytest.approx(1.0)
        assert tc.violation_extent(3) == pytest.approx(3.0)


class TestPlacementConstraint:
    def test_factory_affinity(self):
        c = affinity("storm", ["hb", "mem"], "node")
        tc = c.tag_constraints[0]
        assert tc.cmin == 1 and tc.cmax == UNBOUNDED
        assert c.node_group == "node"

    def test_factory_anti_affinity(self):
        c = anti_affinity("storm", "hb", "upgrade_domain")
        tc = c.tag_constraints[0]
        assert tc.is_anti_affinity()
        assert c.node_group == "upgrade_domain"

    def test_factory_cardinality(self):
        c = cardinality("storm", "spark", 0, 5, "rack")
        tc = c.tag_constraints[0]
        assert (tc.cmin, tc.cmax) == (0, 5)

    def test_applies_to(self):
        c = affinity(["appID:0023", "storm"], "hb")
        assert c.applies_to({"appID:0023", "storm", "x"})
        assert not c.applies_to({"storm"})

    def test_satisfied_by_multiset(self):
        c = affinity("storm", ["hb", "mem"])
        (tc,) = c.tag_constraints
        assert tc.satisfied_by(_gamma_in(["hb", "mem"], tc))
        assert not tc.satisfied_by(_gamma_in(["hb"], tc))

    def test_violation_extent_multiset(self):
        c = cardinality("s", "x", 0, 2)
        (tc,) = c.tag_constraints
        assert tc.violation_extent(_gamma_in(["x"] * 4, tc)) == pytest.approx(1.0)

    def test_empty_tag_constraints_rejected(self):
        with pytest.raises(ValueError):
            PlacementConstraint(TagExpression("s"), (), "node")

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            affinity("a", "b", "")

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            affinity("a", "b", weight=0)
        with pytest.raises(ValueError):
            affinity("a", "b", weight=float("inf"))

    def test_bad_origin_rejected(self):
        with pytest.raises(ValueError):
            affinity("a", "b", origin="martian")

    def test_single_tag_constraint_coerced_to_tuple(self):
        c = PlacementConstraint(
            TagExpression("s"), TagConstraint("x", 0, 1), "node"
        )
        assert isinstance(c.tag_constraints, tuple)
        assert len(c.tag_constraints) == 1

    def test_intra_application_detection(self):
        intra = cardinality("spark", "spark", 3, 10, "rack")
        inter = cardinality("storm", "spark", 0, 5, "rack")
        assert intra.is_intra_application()
        assert not inter.is_intra_application()

    def test_hashable(self):
        assert len({affinity("a", "b"), affinity("a", "b")}) == 1

    def test_hash_is_the_dataclass_hash(self):
        for c in (affinity("a", ["b", "c"]), cardinality("s", "x", 0, 2, "rack"),
                  anti_affinity("a", "b", hard=True, origin="operator")):
            fields = tuple(getattr(c, f.name) for f in dataclasses.fields(c))
            assert hash(c) == hash(c) == hash(fields)

    def test_cached_hash_is_not_pickled(self):
        """``str`` hashes are per process: a constraint hashed and pickled
        under another hash seed must hash here like a fresh equal one."""
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from repro import affinity\n"
            "c = affinity('a', ['b', 'c'], 'rack')\n"
            "hash(c)\n"
            "sys.stdout.buffer.write(pickle.dumps((hash('probe'), c)))\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            check=True, timeout=60,
        ).stdout
        remote_probe, loaded = pickle.loads(out)
        assert remote_probe != hash("probe")
        fresh = affinity("a", ["b", "c"], "rack")
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert {fresh: 1}[loaded] == 1

    def test_hard_flag(self):
        assert anti_affinity("a", "b", hard=True).hard


class TestCompoundConstraint:
    def test_dnf_structure(self):
        c1, c2 = affinity("a", "b"), anti_affinity("a", "c")
        comp = CompoundConstraint(((c1,), (c2,)))
        assert len(comp.conjuncts) == 2
        assert set(comp.all_constraints()) == {c1, c2}

    def test_subjects(self):
        comp = CompoundConstraint(((affinity("a", "b"),),))
        assert TagExpression("a") in comp.subjects()

    def test_empty_dnf_rejected(self):
        with pytest.raises(ValueError):
            CompoundConstraint(())

    def test_empty_conjunct_rejected(self):
        with pytest.raises(ValueError):
            CompoundConstraint(((),))

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            CompoundConstraint(((affinity("a", "b"),),), weight=-1)


class TestPaperExamples:
    """The four worked examples of §4.2."""

    def test_caf_storm_hbase_memcached(self):
        caf = affinity("storm", ["hb", "mem"], "node")
        assert caf.applies_to({"storm"})
        (tc,) = caf.tag_constraints
        assert tc.c_tag.tags == {"hb", "mem"}
        assert tc.satisfied_by(1)  # a node with one hb ∧ mem container
        assert not tc.satisfied_by(0)  # hb alone leaves the conjunction at 0

    def test_caa_upgrade_domain(self):
        caa = anti_affinity("storm", "hb", "upgrade_domain")
        (tc,) = caa.tag_constraints
        assert not tc.satisfied_by(1)
        assert tc.satisfied_by(0)

    def test_cca_rack_spark_limit(self):
        cca = cardinality("storm", "spark", 0, 5, "rack")
        (tc,) = cca.tag_constraints
        assert tc.satisfied_by(5)
        assert not tc.satisfied_by(6)

    def test_ccg_group_self_constraint(self):
        ccg = cardinality("spark", "spark", 3, 10, "rack")
        assert ccg.applies_to({"spark"})
        (tc,) = ccg.tag_constraints
        assert not tc.satisfied_by(2)
        assert tc.satisfied_by(5)
