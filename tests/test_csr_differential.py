"""Differential test: the solver's CSR record against SciPy's sparse matrices.

:class:`repro.solver.model.CsrMatrix` replaced ``scipy.sparse`` in the
solver under one promise: HiGHS receives the same arrays, and presolve and
branch and bound compute the same floats, so every solve runs the same LP
sequence.  Each operation the solver uses is compared here with what SciPy
gives for the same matrix — the mat-vec (bit for bit, NaN for NaN where an
infinite bound meets a row's entries), the column-wise export, row and
column selection, and the positive and negative splits — over the 200
random MILPs of ``tests/test_solver_differential.py``, the pinned
``lra_ilp`` models of ``tests/test_ilp_model_pinned.py`` and Hypothesis
matrices with empty rows, empty columns and explicit zeros.  SciPy is
imported here only as the reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.solver import standard_form
from repro.solver.highs import load_highs
from repro.solver.model import CsrMatrix

from .test_ilp_model_pinned import lra_ilp_batches
from .test_solver_differential import random_model


def reference(a: CsrMatrix) -> sparse.csr_matrix:
    return sparse.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def bits(v: np.ndarray) -> bytes:
    """``v``'s bytes with every NaN made the same NaN."""
    return np.where(np.isnan(v), np.nan, np.asarray(v, dtype=np.float64)).tobytes()


def assert_same_arrays(ours, ref) -> None:
    """Two ``(indptr, indices, data)`` triples hold the same entries in the same order."""
    assert np.asarray(ours[0]).tolist() == np.asarray(ref[0]).tolist()
    assert np.asarray(ours[1]).tolist() == np.asarray(ref[1]).tolist()
    assert bits(np.asarray(ours[2])) == bits(np.asarray(ref[2]))


def assert_same_matrix(ours: CsrMatrix, ref) -> None:
    assert ours.shape == ref.shape
    assert_same_arrays(ours[:3], (ref.indptr, ref.indices, ref.data))


def check_against_scipy(
    a: CsrMatrix, vectors: list[np.ndarray], rows: np.ndarray, cols: np.ndarray
) -> None:
    """Every operation the solver uses on ``a``, against SciPy's."""
    ref = reference(a)
    with np.errstate(invalid="ignore", over="ignore"):
        for x in vectors:
            assert bits(a @ x) == bits(ref @ x)
    csc = ref.tocsc()
    assert_same_arrays(a.by_columns(), (csc.indptr, csc.indices, csc.data))
    assert_same_matrix(a.select(rows, cols), ref[rows][:, cols].tocsr())
    positive, negative = a.where(a.data > 0), a.where(a.data < 0)
    assert_same_matrix(positive, ref.maximum(0))
    assert_same_matrix(negative, ref.minimum(0))
    if len(vectors) >= 2:  # the activity bounds of ``_LpContext.provably_infeasible``
        lower, upper = vectors[:2]
        with np.errstate(invalid="ignore", over="ignore"):
            ours = positive @ lower + negative @ upper
            theirs = ref.maximum(0) @ lower + ref.minimum(0) @ upper
        assert bits(ours) == bits(theirs)


def subsets(rng: np.random.Generator, a: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = a.shape
    return np.flatnonzero(rng.random(rows) < 0.6), np.flatnonzero(rng.random(cols) < 0.6)


def check_form(form, seed: int) -> None:
    """The four operations on ``form.a``, with its bounds as vectors; and
    the column-wise matrix HiGHS holds after :func:`load_highs` is SciPy's
    ``tocsc()``."""
    rng = np.random.default_rng(seed)
    vectors = [form.col_lb, form.col_ub, rng.normal(size=form.num_cols)]
    check_against_scipy(form.a, vectors, *subsets(rng, form.a))
    held = load_highs(form, output_flag=False).getLp().a_matrix_
    csc = reference(form.a).tocsc()
    assert_same_arrays((held.start_, held.index_, held.value_), (csc.indptr, csc.indices, csc.data))


@pytest.mark.parametrize("chunk", range(4))
def test_random_milp_corpus(chunk: int) -> None:
    for seed in range(chunk * 50, chunk * 50 + 50):
        check_form(standard_form(random_model(random.Random(seed))), seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_lra_ilp_models(seed: int) -> None:
    for i, (model, _) in enumerate(lra_ilp_batches(seed)):
        check_form(standard_form(model), 1000 * seed + i)


_VALUES = st.sampled_from([-4.0, -1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300])
_POINTS = st.one_of(
    st.sampled_from([-np.inf, np.inf, 0.0, -0.0, 1.0]),
    st.floats(allow_nan=False, allow_infinity=True),
)


@st.composite
def matrices(draw) -> tuple[CsrMatrix, list[np.ndarray], np.ndarray, np.ndarray]:
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = draw(st.lists(st.one_of(st.none(), _VALUES), min_size=rows * cols,
                          max_size=rows * cols))
    indptr, indices, data = [0], [], []
    for r in range(rows):
        for c in range(cols):
            if cells[r * cols + c] is not None:
                indices.append(c)
                data.append(cells[r * cols + c])
        indptr.append(len(data))
    a = CsrMatrix(np.array(indptr), np.array(indices, dtype=np.int64),
                  np.array(data, dtype=np.float64), (rows, cols))
    vector = st.lists(_POINTS, min_size=cols, max_size=cols)
    vectors = [np.array(draw(vector), dtype=np.float64) for _ in range(2)]
    kept = [np.array(sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))),
                     dtype=np.int64) for n in (rows, cols)]
    return a, vectors, *kept


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_hypothesis_matrices(case) -> None:
    check_against_scipy(*case)
