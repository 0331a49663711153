"""``MilpModel``'s row-block contract and the array load into HiGHS.

Every row enters a model through :meth:`MilpModel.add_rows` (``add_constraint``
is a one-row block), so both entry points must build the same model and
reject the same malformed input with the same error.  Non-finite data is
rejected when it is added: no backend ever sees a NaN bound or coefficient.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.solver import INF, MilpModel, Sense, SolveStatus, solve, standard_form
from repro.solver.highs import load_highs, run_highs
from tests.test_ilp_model_pinned import model_digest

NAN = float("nan")


def with_variables(count: int = 4) -> MilpModel:
    model = MilpModel(Sense.MAXIMIZE)
    for i in range(count):
        model.add_binary(f"x{i}")
    return model


def block(model: MilpModel, rows: list[tuple[dict, float, float, str]]) -> int:
    """``rows`` as one block, each row's columns in descending order."""
    indptr, cols, vals = [0], [], []
    for coeffs, _, _, _ in rows:
        for col in sorted(coeffs, reverse=True):
            cols.append(col)
            vals.append(coeffs[col])
        indptr.append(len(cols))
    return model.add_rows(
        np.array(indptr), np.array(cols, dtype=np.int64), np.array(vals, dtype=float),
        np.array([lo for _, lo, _, _ in rows], dtype=float),
        np.array([hi for _, _, hi, _ in rows], dtype=float),
        [name for _, _, _, name in rows],
    )


ROWS = [
    ({0: 1.0, 2: 3.5, 3: -1.0}, -INF, 4.0, "a"),
    ({1: 2.0}, 1.0, INF, "b"),
    ({}, -1.0, 1.0, "empty"),
    ({3: 0.25, 0: 1.0, 1: 0.0}, 0.0, 0.0, "c"),
]


def by_rows(rows=ROWS) -> MilpModel:
    model = with_variables()
    for coeffs, lower, upper, name in rows:
        model.add_constraint(coeffs, lower=lower, upper=upper, name=name)
    return model


class TestBlockAppend:
    def test_blocks_and_rows_build_the_same_model(self):
        one = with_variables()
        assert block(one, ROWS) == 0
        two = with_variables()
        assert block(two, ROWS[:1]) == 0
        assert block(two, ROWS[1:]) == 1
        assert model_digest(one) == model_digest(two) == model_digest(by_rows())
        assert [one.constraint_name(r) for r in range(4)] == ["a", "b", "empty", "c"]

    def test_explicit_zeros_are_dropped_in_both_paths(self):
        rows = [({0: 0.0, 1: 2.0}, -INF, 1.0, "z")]
        blocked = with_variables()
        block(blocked, rows)
        for model in (by_rows(rows), blocked):
            matrix, _, _ = model.constraint_matrix()
            assert len(matrix.data) == 1
            assert matrix.indices.tolist() == [1]

    def test_columns_come_out_sorted(self):
        matrix, lower, upper = by_rows().constraint_matrix()
        assert matrix.indptr.tolist() == [0, 3, 4, 4, 6]
        assert matrix.indices.tolist() == [0, 2, 3, 1, 0, 3]
        assert lower.tolist() == [-INF, 1.0, -1.0, 0.0]
        assert upper.tolist() == [4.0, INF, 1.0, 0.0]

    def test_duplicate_column_in_a_row_is_rejected(self):
        model = with_variables()
        with pytest.raises(ValueError, match="'dup' lists variable 2 twice"):
            model.add_rows(
                np.array([0, 1, 3]), np.array([1, 2, 2]), np.array([1.0, 1.0, 2.0]),
                np.array([-INF, -INF]), np.array([1.0, 1.0]), ["ok", "dup"],
            )
        assert model.num_constraints == 0

    @pytest.mark.parametrize(
        "row, error",
        [
            (({7: 1.0}, -INF, 1.0, "far"), IndexError),
            (({-1: 1.0}, -INF, 1.0, "negative"), IndexError),
            (({0: 1.0}, -INF, INF, "vacuous"), ValueError),
            (({0: 1.0}, 2.0, 1.0, "inverted"), ValueError),
        ],
    )
    def test_both_entry_points_raise_the_same_error(self, row, error):
        with pytest.raises(error) as single:
            by_rows([row])
        with pytest.raises(error) as blocked:
            block(with_variables(), [ROWS[0], row])
        assert str(single.value) == str(blocked.value)
        assert repr(row[3]) in str(single.value)

    def test_rejected_block_leaves_the_model_unchanged(self):
        model = by_rows()
        before = model_digest(model)
        with pytest.raises(ValueError):
            block(model, [ROWS[0], ({0: 1.0}, 2.0, 1.0, "inverted")])
        assert model_digest(model) == before

    def test_variables_in_a_block(self):
        model = MilpModel()
        assert model.add_variables(["a", "b"], upper=1.0, integer=True) == 0
        assert model.add_continuous("c", lower=-INF) == 2
        lower, upper = model.variable_bounds()
        assert lower.tolist() == [0.0, 0.0, -INF]
        assert upper.tolist() == [1.0, 1.0, INF]
        assert model.integrality().tolist() == [1, 1, 0]


class TestNonFiniteData:
    """A NaN bound or a non-finite coefficient is an error naming where it
    is; ±inf bounds stay legal.  (HiGHS, branch-and-bound and ``auto`` used
    to disagree on such models, or solve them to ``OPTIMAL nan``.)"""

    def test_nan_coefficient_rejected(self):
        model = with_variables(2)
        with pytest.raises(ValueError, match="'row'.*not finite"):
            model.add_le({0: 1.0, 1: NAN}, 1.0, name="row")

    def test_infinite_coefficient_rejected(self):
        model = with_variables(2)
        with pytest.raises(ValueError, match="'row'.*not finite"):
            model.add_ge({0: INF}, 0.0, name="row")

    def test_nan_right_hand_side_rejected(self):
        model = with_variables(1)
        with pytest.raises(ValueError, match="'row'.*NaN"):
            model.add_le({0: 1.0}, NAN, name="row")

    def test_nan_objective_coefficient_rejected(self):
        model = with_variables(1)
        with pytest.raises(ValueError, match="not finite"):
            model.add_objective_term(0, NAN)
        with pytest.raises(ValueError, match="not finite"):
            model.set_objective_coefficient(0, -INF)

    def test_nan_variable_bound_rejected(self):
        with pytest.raises(ValueError, match="'v'.*NaN"):
            MilpModel().add_variable("v", upper=NAN)

    def test_infinite_bounds_stay_legal(self):
        model = MilpModel(Sense.MINIMIZE)
        x = model.add_variable("x", lower=-INF, upper=INF)
        model.add_constraint({x: 1.0}, lower=-3.0, upper=INF)
        model.add_objective_term(x, 1.0)
        for backend in ("highs", "bnb", "auto"):
            solution = solve(model, backend=backend)
            assert solution.status is SolveStatus.OPTIMAL
            assert solution.objective == -3.0


class TestArrayLoad:
    """``load_highs`` passes numpy buffers through HiGHS's array overload."""

    def test_empty_model(self):
        highs = load_highs(standard_form(MilpModel()), output_flag=False)
        assert run_highs(highs) is SolveStatus.OPTIMAL

    def test_columns_without_rows(self):
        model = MilpModel(Sense.MAXIMIZE)
        model.add_objective_term(model.add_continuous("x", upper=2.5), 1.0)
        model.add_objective_term(model.add_binary("y"), -1.0)
        highs = load_highs(standard_form(model), output_flag=False)
        assert run_highs(highs) is SolveStatus.OPTIMAL
        assert list(highs.getSolution().col_value) == [2.5, 0.0]

    def test_mip_keeps_integrality_and_lp_relaxes_it(self):
        model = MilpModel(Sense.MAXIMIZE)
        x = model.add_variable("x", upper=10.0, integer=True)
        y = model.add_continuous("y", upper=10.0)
        model.add_le({x: 2.0, y: 1.0}, 5.0)
        model.add_objective_term(x, 3.0)
        model.add_objective_term(y, 1.0)
        form = standard_form(model)
        mip = load_highs(form, integer=True, output_flag=False)
        assert run_highs(mip) is SolveStatus.OPTIMAL
        assert list(mip.getSolution().col_value) == pytest.approx([2.0, 1.0])
        assert mip.getInfo().mip_node_count >= 0
        lp = load_highs(form, output_flag=False)
        assert run_highs(lp) is SolveStatus.OPTIMAL
        assert lp.getInfo().objective_function_value == pytest.approx(-7.5)
        assert math.isclose(lp.getSolution().col_value[0], 2.5)
