"""The sparse apply kernel and ``Matrix @``, ``+`` and ``-``, checked against
dense triple-loop and entrywise oracles over both scalar rings, the zero drop
of the constructor, and the column-sum check of ``TransitionMatrix``."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidbowl.matrix import Matrix, TransitionMatrix, apply
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly

# Small pools with additive inverses, so sums cancel to zero often.  ONE is the
# shared constant that ``Matrix.identity`` stores, multiplied like any other
# entry; the zeros are dropped on entry.
QPOLY_VALUES = [ONE, -ONE, Q, -Q, ONE_MINUS_Q, QPoly()]
FRACTION_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(0)]


@st.composite
def matrix_pairs(draw, values):
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    column = st.dictionaries(index, st.sampled_from(values), max_size=dim)
    # Columns may be absent, empty, or hold only zeros.
    matrix = lambda: Matrix(dim, draw(st.dictionaries(index, column, max_size=dim)))
    return matrix(), matrix()


def dense_product(a: Matrix, b: Matrix, zero) -> dict:
    """Column-major dict of every nonzero entry of a @ b, by triple loop."""
    cols = {}
    for j in range(a.dim):
        for i in range(a.dim):
            total = zero
            for r in range(a.dim):
                x, y = a.cols.get(r, {}).get(i), b.cols.get(j, {}).get(r)
                if x is not None and y is not None:
                    total = total + x * y
            if total:
                cols.setdefault(j, {})[i] = total
    return cols


def check_product(a: Matrix, b: Matrix, zero) -> None:
    expected = dense_product(a, b, zero)
    for j, bcol in b.cols.items():
        assert apply(a.cols, bcol) == expected.get(j, {})
    assert (a @ b).cols == expected


@given(matrix_pairs(QPOLY_VALUES))
@settings(max_examples=300, deadline=None)
def test_matmul_matches_dense_product_over_qpoly(pair):
    check_product(*pair, QPoly())


@given(matrix_pairs(FRACTION_VALUES))
@settings(max_examples=300, deadline=None)
def test_matmul_matches_dense_product_over_fraction(pair):
    check_product(*pair, Fraction(0))


def check_sum_and_difference(a: Matrix, b: Matrix) -> None:
    for got, combine in ((a + b, operator.add), (a - b, operator.sub)):
        expected = {}
        for j in range(a.dim):
            for i in range(a.dim):
                x, y = a.cols.get(j, {}).get(i), b.cols.get(j, {}).get(i)
                total = combine(x if x is not None else 0, y if y is not None else 0)
                if total:
                    expected.setdefault(j, {})[i] = total
        assert got.cols == expected
        assert all(all(col.values()) for col in got.cols.values())


@given(matrix_pairs(QPOLY_VALUES))
@settings(max_examples=300, deadline=None)
def test_sum_and_difference_match_dense_entrywise_over_qpoly(pair):
    check_sum_and_difference(*pair)


@given(matrix_pairs(FRACTION_VALUES))
@settings(max_examples=300, deadline=None)
def test_sum_and_difference_match_dense_entrywise_over_fraction(pair):
    check_sum_and_difference(*pair)


def test_apply_drops_cancelled_entries():
    cols = {0: {0: ONE, 1: Q}, 1: {0: -ONE, 1: -Q}}
    assert apply(cols, {0: Q, 1: Q}) == {}
    assert apply(cols, {0: Q, 1: Q, 2: ONE}) == {}


@given(st.sampled_from([QPOLY_VALUES, FRACTION_VALUES]).flatmap(matrix_pairs))
@settings(max_examples=200, deadline=None)
def test_difference_with_itself_stores_no_columns(pair):
    a, _ = pair
    assert (a - a).cols == {}
    assert a - a == Matrix(a.dim)


def test_eval_at_a_root_drops_that_entry():
    m = Matrix(2, {0: {0: ONE_MINUS_Q, 1: Q}, 1: {1: ONE_MINUS_Q}})
    assert m.eval_at(Fraction(1)).cols == {0: {1: Fraction(1)}}


def test_constructor_copies_only_columns_holding_a_zero():
    clean, dirty = {0: ONE, 1: Q}, {0: QPoly(), 1: Q}
    m = Matrix(2, {0: clean, 1: dirty})
    assert m.cols[0] is clean
    assert m.cols[1] == {1: Q}
    assert dirty == {0: QPoly(), 1: Q}


def test_transition_matrix_accepts_columns_summing_to_one():
    m = TransitionMatrix(2, {0: {0: Q, 1: ONE_MINUS_Q}, 1: {1: ONE}})
    assert m.cols == {0: {0: Q, 1: ONE_MINUS_Q}, 1: {1: ONE}}


def test_transition_matrix_rejects_a_column_summing_to_q():
    with pytest.raises(ValueError, match=r"^column 1 sums to q, expected 1$"):
        TransitionMatrix(2, {0: {0: ONE}, 1: {0: Q}})


def test_transition_matrix_rejects_a_missing_column():
    with pytest.raises(ValueError, match=r"^column 1 sums to 0, expected 1$"):
        TransitionMatrix(2, {0: {0: Q, 1: ONE_MINUS_Q}})
