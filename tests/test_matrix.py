"""The sparse apply kernel, ``Matrix @`` and ``+``, and the oracles'
difference and scalar multiple, checked against dense triple-loop and
entrywise oracles over both scalar rings; the contract
that no matrix stores a zero entry, which the constructor does not enforce
(it drops only empty columns) and every operation that can make a zero keeps;
and the column-sum check that ``multiball.push_columns`` makes before it
returns a ``TransitionMatrix``."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import difference, scale

from braidbowl import multiball
from braidbowl.braid import BraidWord, specht_element
from braidbowl.matrix import Matrix, TransitionMatrix, apply
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly

# Small pools with additive inverses, so sums cancel to zero often.  ONE is the
# shared constant that ``oracles.identity`` stores, multiplied like any other
# entry; 1 - q and 1 + q vanish at q = 1 and q = -1.  The zeros are drawn and
# then dropped before the constructor, as every producer drops them.
QPOLY_VALUES = [ONE, -ONE, Q, -Q, ONE_MINUS_Q, ONE + Q, QPoly()]
FRACTION_VALUES = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(0)]


@st.composite
def matrix_pairs(draw, values):
    dim = draw(st.integers(1, 3))
    index = st.integers(0, dim - 1)
    column = st.dictionaries(index, st.sampled_from(values), max_size=dim)
    # Columns may be absent, empty, or hold only zeros.
    nonzero = lambda cols: {j: {i: v for i, v in col.items() if v} for j, col in cols.items()}
    matrix = lambda: Matrix(dim, nonzero(draw(st.dictionaries(index, column, max_size=dim))))
    return matrix(), matrix()


def stores_no_zero(m: Matrix) -> bool:
    """No stored column is empty or holds a zero entry."""
    return all(col and all(col.values()) for col in m.cols.values())


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
    for got, combine in ((a + b, operator.add), (difference(a, b), operator.sub)):
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
    assert difference(a, a).cols == {}
    assert difference(a, a) == Matrix(a.dim)


def test_eval_at_a_root_drops_that_entry():
    m = Matrix(2, {0: {0: ONE_MINUS_Q, 1: Q}, 1: {1: ONE_MINUS_Q}})
    assert m.eval_at(Fraction(1)).cols == {0: {1: Fraction(1)}}


def test_constructor_keeps_a_column_by_reference_and_drops_an_empty_one():
    col = {0: ONE, 1: Q}
    m = Matrix(2, {0: col, 1: {}})
    assert m.cols == {0: col} and m.cols[0] is col


@given(
    st.sampled_from([QPOLY_VALUES, FRACTION_VALUES]).flatmap(
        lambda pool: st.tuples(matrix_pairs(pool), st.sampled_from(pool))
    )
)
@settings(max_examples=300, deadline=None)
def test_no_result_stores_a_zero_entry_or_an_empty_column(drawn):
    (a, b), scalar = drawn
    zero = type(scalar)()  # QPoly() or Fraction(0)
    assert scale(a, zero) == Matrix(a.dim)
    results = [a + b, difference(a, b), a @ b, scale(a, scalar), scale(a, zero)]
    if isinstance(scalar, QPoly):
        results += [a.eval_at(Fraction(1)), a.eval_at(Fraction(-1))]
    assert all(map(stores_no_zero, results))


def test_a_window_element_whose_matrix_is_zero_stores_no_column():
    assert multiball.rho_element(specht_element(4, 1, 1), 1).cols == {}


def test_push_skips_a_branch_of_weight_zero(monkeypatch):
    word = BraidWord(2, (1,))
    expected = multiball.rho_matrix(word, 2)
    original = multiball.apply_generator
    fall = lambda a, b: (*original(a, b), (1, QPoly())) if (a, b) == (2, 0) else original(a, b)
    monkeypatch.setattr(multiball, "apply_generator", fall)
    m = multiball.rho_matrix(word, 2)
    assert m == expected and stores_no_zero(m)


def sigma_1_with_branches(monkeypatch, branches):
    """rho(sigma_1) on two strands at N = 1, where the fall at counts (1, 0),
    the column of state (1,0), index 1, gives ``branches``."""
    original = multiball.apply_generator
    fall = lambda a, b: branches if (a, b) == (1, 0) else original(a, b)
    monkeypatch.setattr(multiball, "apply_generator", fall)
    return multiball.rho_matrix(BraidWord(2, (1,)), 1)


def test_transition_matrix_accepts_columns_summing_to_one(monkeypatch):
    m = sigma_1_with_branches(monkeypatch, ((0, Q), (1, ONE_MINUS_Q)))
    assert isinstance(m, TransitionMatrix)
    assert m.cols == {0: {0: ONE}, 1: {2: Q, 1: ONE_MINUS_Q}, 2: {1: ONE}, 3: {3: ONE}}


def test_transition_matrix_rejects_a_column_summing_to_q(monkeypatch):
    # The push checks the column sums, on its packed ints, before it decodes.
    with pytest.raises(ValueError, match=r"^column 1 sums to q, expected 1$"):
        sigma_1_with_branches(monkeypatch, ((0, Q),))


def test_transition_matrix_rejects_a_missing_column(monkeypatch):
    with pytest.raises(ValueError, match=r"^column 1 sums to 0, expected 1$"):
        sigma_1_with_branches(monkeypatch, ())
