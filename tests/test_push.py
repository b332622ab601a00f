"""The tabulated packed-integer push behind rho_matrix, rho_element and
rho_cabled_matrix, checked exactly against a per-column push of state tuples
in QPoly arithmetic, including words on both sides of every digit-width
change, and against the per-word sum of scaled matrices for combinations of
words.  The reference rules are written out here on whole states, so they
check where the push places each branch, and share no code with the fall
distributions the push reads or with its digit moves.  One-letter matrices
are also built state by state from those same fall distributions
(``oracles.generator_by_states``), which checks the layout of the push's
generator tables alone."""

import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    column_sum_failure,
    drawn_stochastic_words,
    entries_sorted,
    generator_by_states,
    generator_matrix,
    identity,
    scale,
)

from braidbowl import cabled, multiball
from braidbowl.braid import BraidWord, HeckeElement, HeckeProduct, specht_element, specht_half
from braidbowl.cabled import falling_probability, rho_cabled_matrix
from braidbowl.matrix import Matrix
from braidbowl.multiball import index_state, rho_element, rho_matrix, state_index
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly, digit_width, poly_sum


def push_one(factors, n, radix, fall):
    """The matrix of one product, from a push of a batch of that product alone."""
    (m,) = multiball.push_columns([factors], n, radix, fall)
    return m


def reference_push(word, cap, rule, encode, decode):
    """Push every basis state through the word as a dict of state tuples,
    calling the crossing rule on every branch and multiplying every weight."""
    dim = (cap + 1) ** word.n
    cols = {}
    for idx in range(dim):
        dist = {decode(idx, word.n, cap): ONE}
        for i in word.letters:
            nxt = {}
            for u, w in dist.items():
                for v, branch in rule(i, u):
                    acc = nxt.get(v)
                    total = w * branch if acc is None else acc + w * branch
                    if total:
                        nxt[v] = total
                    elif v in nxt:
                        del nxt[v]
            dist = nxt
        cols[idx] = {encode(v, cap): w for v, w in dist.items()}
    return Matrix(dim, cols)


def multiball_rule(i, u):
    """The single-lane crossing written out as swap and keep branches."""
    a, b = u[i - 1], u[i]
    swapped = u[: i - 1] + (b, a) + u[i + 1 :]
    if a <= b:
        return [(swapped, ONE)]
    return [(swapped, Q), (u, ONE_MINUS_Q)]


def uncached_cabled_rule(K):
    """The cabled crossing straight from the closed formula, without
    ``fall_distribution``."""

    def rule(i, s):
        a, b = s[i - 1], s[i]
        out = []
        for c in range(min(a, K - b) + 1):
            p = falling_probability(K, a, b, c)
            if p:
                out.append((s[: i - 1] + (b + c, a - c) + s[i + 1 :], p))
        return out

    return rule


@st.composite
def words(draw, max_n=4, max_len=6):
    n = draw(st.integers(1, max_n))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=max_len)) if n > 1 else []
    return BraidWord(n, tuple(letters))


@given(words(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_rho_matrix_matches_reference_push(word, N):
    expected = reference_push(word, N, multiball_rule, state_index, index_state)
    assert rho_matrix(word, N) == expected


@given(words(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_rho_cabled_matrix_matches_reference_push(word, K):
    expected = reference_push(word, K, uncached_cabled_rule(K), state_index, index_state)
    assert rho_cabled_matrix(word, K) == expected


# Word lengths L on both sides of each change of the push's digit width, which
# comes from the bound growth^L on every coefficient: growth is the largest
# total coefficient L1 norm of a generator column, 3 for the single-lane model
# and 9 and 21 for cabled widths 2 and 3.  Above 64 bits the width grows by 8.
EDGES = {
    "single": (multiball_rule, 2, 3, (4, 5, 9, 10, 19, 20, 39, 40, 41)),
    "cabled K=2": (uncached_cabled_rule(2), 2, 9, (2, 3, 4, 5, 9, 10, 19, 20, 21)),
    "cabled K=3": (uncached_cabled_rule(3), 3, 21, (1, 2, 3, 4, 7, 8, 14, 15, 16)),
}


@pytest.mark.parametrize("model", EDGES)
def test_edge_lengths_straddle_every_digit_width(model):
    rule, cap, growth, lengths = EDGES[model]
    assert growth == max(
        sum(abs(c) for _v, w in rule(1, u) for c in w.coeffs)
        for u in (index_state(idx, 2, cap) for idx in range((cap + 1) ** 2))
    )
    steps = {
        (digit_width(growth**length), digit_width(growth ** (length + 1)))
        for length in lengths
        if length + 1 in lengths
    }
    assert {(8, 16), (16, 32), (32, 64), (64, 72)} <= steps


def edge_word(n, length):
    """Letter 1 repeated on two strands, letters 1 and 2 alternating on three."""
    return BraidWord(n, tuple(1 + k % (n - 1) for k in range(length)))


@pytest.mark.parametrize("length", EDGES["single"][-1])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("N", [1, 2])
def test_rho_matrix_at_digit_width_edges(n, N, length):
    word = edge_word(n, length)
    expected = reference_push(word, N, multiball_rule, state_index, index_state)
    assert rho_matrix(word, N) == expected


@pytest.mark.parametrize(
    "K, length", [(K, length) for K in (2, 3) for length in EDGES[f"cabled K={K}"][-1]]
)
@pytest.mark.parametrize("n", [2, 3])
def test_rho_cabled_matrix_at_digit_width_edges(n, K, length):
    word = edge_word(n, length)
    expected = reference_push(word, K, uncached_cabled_rule(K), state_index, index_state)
    assert rho_cabled_matrix(word, K) == expected


@pytest.mark.parametrize("letters", [(2, 3, 3, 1, 1, 1), (1, 2, 2, 2, 3, 3, 1, 3)])
def test_rho_cabled_matrix_with_entries_beyond_8_bit_digits(letters):
    word = BraidWord(4, letters)
    expected = reference_push(word, 3, uncached_cabled_rule(3), state_index, index_state)
    assert max(abs(c) for _i, _j, v in entries_sorted(expected) for c in v.coeffs) >= 2**7
    assert rho_cabled_matrix(word, 3) == expected


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("n, i", [(n, i) for n in (2, 3, 4) for i in range(1, n)])
def test_generator_tables_match_a_state_by_state_build(n, i, cap):
    # The push lays sigma_i's table out from one period of (a, b) pairs: each
    # pair holds for a run of (cap+1)^(i-1) states, so i = 1 has runs of one
    # state, and i = n - 1 has one period over the whole state space.
    assert generator_matrix(i, n, cap) == generator_by_states(
        i, n, cap, multiball.apply_generator
    )
    fall = lambda a, b: cabled.apply_generator_cabled(a, b, cap)
    word = BraidWord(n, (i,))
    assert rho_cabled_matrix(word, cap) == generator_by_states(i, n, cap, fall)


def scaled_sum(n, terms, N, matrix_of=rho_matrix):
    """sum_t c_t rho(w_t) the per-word way: one push, one ``scale`` and one
    ``+`` per term, in the order given (repeated words included)."""
    out = Matrix((N + 1) ** n)
    for word, coeff in terms:
        out = out + scale(matrix_of(word, N), coeff)
    return out


coefficients = st.one_of(
    st.integers(-6, 6).map(lambda c: QPoly((c,))),
    st.lists(st.integers(-5, 5), max_size=4).map(lambda cs: QPoly(tuple(cs))),
)


@st.composite
def elements(draw, max_n=4, max_terms=5, max_len=6, n=None):
    """(n, raw terms) with words of length 0..max_len that may repeat, on n
    strands if n is given."""
    n = draw(st.integers(1, max_n)) if n is None else n
    letters = st.lists(st.integers(1, n - 1), max_size=max_len) if n > 1 else st.just([])
    pool = draw(st.lists(letters.map(lambda ls: BraidWord(n, tuple(ls))), min_size=1, max_size=3))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=max_terms))
    return n, terms


@given(elements(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_rho_element_matches_sum_of_scaled_word_matrices(element, N):
    n, terms = element
    assert rho_element(HeckeElement(n, tuple(terms)), N) == scaled_sum(n, terms, N)


@given(st.data(), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_rho_element_of_a_product_matches_the_sum_over_its_expansion(data, N):
    n, first = data.draw(elements(max_terms=3, max_len=4))
    rest = data.draw(st.lists(elements(max_terms=3, max_len=3, n=n), min_size=1, max_size=2))
    factors = [first, *(terms for _n, terms in rest)]
    x = HeckeProduct(n, tuple(HeckeElement(n, tuple(terms)) for terms in factors))
    assert rho_element(x, N) == scaled_sum(n, x.terms, N)


nonzero_coefficients = coefficients.filter(bool)


@st.composite
def suffix_elements(draw, max_n=4, max_len=6):
    """(n, terms) whose words are suffixes of one or two base words, so that
    they share suffixes, and some words end inside longer ones.  The terms
    always hold the empty word, one word twice and a pair of terms that
    cancels, in a drawn order."""
    n = draw(st.integers(2, max_n))
    letters = st.lists(st.integers(1, n - 1), min_size=1, max_size=max_len)
    bases = draw(st.lists(letters, min_size=1, max_size=2))
    pool = [BraidWord(n, tuple(base[k:])) for base in bases for k in range(len(base) + 1)]
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=5))
    again, cancelled = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    c = draw(nonzero_coefficients)
    terms += [
        (BraidWord(n), draw(nonzero_coefficients)),
        (again, draw(coefficients)),
        (again, draw(coefficients)),
        (cancelled, c),
        (cancelled, -c),
    ]
    return n, draw(st.permutations(terms))


@given(suffix_elements(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_shared_suffixes_match_sum_of_scaled_word_matrices(element, N):
    n, terms = element
    assert rho_element(HeckeElement(n, tuple(terms)), N) == scaled_sum(n, terms, N)


@given(suffix_elements(max_n=3, max_len=5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_shared_cabled_suffixes_match_sum_of_scaled_word_matrices(element, K):
    n, terms = element
    fall = lambda a, b: cabled.apply_generator_cabled(a, b, K)
    expected = scaled_sum(n, terms, K, rho_cabled_matrix)
    assert push_one((terms,), n, K + 1, fall) == expected


@pytest.fixture(scope="module")
def window_word_matrix():
    """rho at N' = 3, where x_1 at (6,2,1) is not killed, of a word of x_1
    or of one of its halves, each word pushed once.  A half's expanded words
    are not all words of x_1's expansion: both are products of coset
    ladders, grown along different chains."""
    return functools.cache(lambda word, _N: rho_matrix(word, 3))


@pytest.mark.parametrize("half", [None, 1, 2, 3])
def test_window_elements_match_sum_of_scaled_word_matrices(window_word_matrix, half):
    x = specht_element(6, 2, 1) if half is None else specht_half(6, 2, 1, half)
    expected = scaled_sum(6, x.terms, 3, window_word_matrix)
    assert expected != Matrix(4**6)
    assert rho_element(x, 3) == expected


def test_returned_columns_share_no_dict():
    # Most crossings of this word meet a <= b and so share a column of the
    # previous step inside the push; the result must not.  In the last model
    # every ball that fits falls with weight 1, so a crossing sends several
    # states to one state, and their columns are one dict inside the push.
    word = BraidWord(4, (1, 2, 3, 1, 2, 1, 3, 2, 3))
    x = HeckeElement(4, ((word, ONE), (BraidWord(4, word.letters[3:]), Q)))
    all_fall = lambda a, b: ((min(a, 2 - b), ONE),)
    for m in (
        rho_matrix(word, 2),
        rho_element(x, 2),
        rho_cabled_matrix(word, 2),
        push_one([[(word, ONE)]], 4, 3, all_fall),
    ):
        assert len({id(col) for col in m.cols.values()}) == len(m.cols) == m.dim


def test_only_split_columns_are_applied(monkeypatch):
    # On two strands at N = 1 the crossing splits only the state (1, 0), so
    # each letter of sigma_1^3 costs one apply; the other columns are shared.
    calls = recorded_calls(monkeypatch, multiball, "apply")
    rho_matrix(BraidWord(2, (1, 1, 1)), 1)
    assert len(calls) == 3


def test_rho_element_of_the_empty_element_is_zero():
    m = rho_element(HeckeElement(3), 2)
    assert m.dim == 27 and not m.cols


def test_rho_element_of_x_minus_x_is_zero():
    terms = ((BraidWord(3, (1, 2, 1)), QPoly((2, -1))), (BraidWord(3, (2,)), Q))
    x_minus_x = HeckeElement(3, terms + tuple((w, -c) for w, c in terms))
    assert rho_element(x_minus_x, 2) == Matrix(27)


LARGE_WORD = BraidWord(3, (1, 2, 1))
LARGE_TERMS = [(LARGE_WORD, QPoly((2**70, -3))), (BraidWord(3, (2,)), Q), (LARGE_WORD, ONE)]


def test_a_large_coefficient_alone_widens_the_digits():
    # Generator columns have L1 norm 3, so the words alone need 8-bit digits;
    # only the coefficient 2^70 pushes the bound past 64 bits.
    assert digit_width(3 ** len(LARGE_WORD)) == 8
    assert digit_width((2**70 + 3) * 3 ** len(LARGE_WORD)) > 64
    assert rho_element(HeckeElement(3, tuple(LARGE_TERMS)), 2) == scaled_sum(3, LARGE_TERMS, 2)


def test_a_product_with_a_coefficient_past_64_bits_matches_its_expansion():
    # The chain multiplies packed entries of the first factor, whose
    # coefficient 2^70 alone needs digits wider than 64 bits.
    second = ((BraidWord(3, (2, 1)), QPoly((1, -2))), (BraidWord(3), Q), (LARGE_WORD, -ONE))
    x = HeckeProduct(3, (HeckeElement(3, tuple(LARGE_TERMS)), HeckeElement(3, second)))
    bound = math.prod(
        sum(sum(map(abs, c.coeffs)) * 3 ** len(w) for w, c in f.terms) for f in x.factors
    )
    assert digit_width(bound) > 64
    expected = scaled_sum(3, x.terms, 2)
    assert expected != Matrix(27)
    assert rho_element(x, 2) == expected


def test_an_element_column_with_the_wrong_sum_is_named(monkeypatch):
    original = multiball.apply_generator

    def skewed(a, b):
        # Both branches of a crossing at counts (1, 0) get weight 1, so sigma_1
        # takes the column of (1,0,0) to a sum of 2.
        branches = original(a, b)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    x = HeckeElement(3, ((BraidWord(3, (1,)), QPoly((2,))), (BraidWord(3, (2,)), QPoly((3,)))))
    column = state_index((1, 0, 0), 1)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 7, expected 5$"):
        rho_element(x, 1)


def test_a_product_column_with_the_wrong_sum_is_named(monkeypatch):
    original = multiball.apply_generator

    def skewed(a, b):
        branches = original(a, b)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    # sigma_1 takes the column of (1,0,0) to (0,1,0) + (1,0,0), a sum of 2;
    # sigma_2 then splits (0,1,0) into two states of weight 1 and keeps
    # (1,0,0), so the column sums to 3 times the product 2 * 3 of epsilons.
    x = HeckeProduct(3, (
        HeckeElement(3, ((BraidWord(3, (1,)), QPoly((2,))),)),
        HeckeElement(3, ((BraidWord(3, (2,)), QPoly((3,))),)),
    ))
    column = state_index((1, 0, 0), 1)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 18, expected 6$"):
        rho_element(x, 1)


def test_a_cabled_column_with_the_wrong_sum_is_named(monkeypatch):
    original = cabled.apply_generator_cabled

    def skewed(a, b, K):
        # At K = 2 the crossing at counts (1, 0) has the branches c = 0 and 1;
        # both get weight 1, so the column of (1,0,0) under sigma_1 sums to 2,
        # and sigma_2 then sends (1,0,0) to itself.
        branches = original(a, b, K)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(cabled, "apply_generator_cabled", skewed)
    column = state_index((1, 0, 0), 2)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 2, expected 1$"):
        rho_cabled_matrix(BraidWord(3, (2, 1)), 2)


def test_a_fall_without_branches_fails_the_column_sum_check():
    # Every column of sigma_1 is lost, so every column sums to 0.  Were growth
    # read as 0, not 1, the digits would be 8 bits wide, and the int sum 0
    # would match q - 256, which packs to 0 at that width.
    terms = [(BraidWord(2, (1,)), QPoly((-256, 1)))]
    with pytest.raises(ValueError, match=r"^column 0 sums to 0, expected -256 \+ q$"):
        push_one((terms,), 2, 2, lambda a, b: ())


@pytest.mark.parametrize(
    "terms, N, width",
    [
        ([(BraidWord(3, (1, 2, 1)), ONE)], 2, 8),
        ([(BraidWord(2, (1,) * 12), ONE)], 1, 32),
        (LARGE_TERMS, 2, 80),
    ],
)
def test_a_packed_entry_off_by_one_fails_the_column_sum_check(monkeypatch, terms, N, width):
    # Mutant: the push's last ``apply``, which builds a column of the result,
    # adds 1 to the packed int of one entry, so that column sums to epsilon + 1.
    # The error text decodes that sum with a cast at 8 and 32 bits and with
    # from_bytes above 64.
    n = terms[0][0].n
    assert digit_width(sum(sum(map(abs, c.coeffs)) * 3 ** len(w) for w, c in terms)) == width
    epsilon = poly_sum(c for _w, c in terms)
    push = lambda: push_one((terms,), n, N + 1, multiball.apply_generator)
    original, outputs, last = multiball.apply, [], None

    def off_by_one(cols, vec):
        out = original(cols, vec)
        outputs.append(out)
        if len(outputs) == last:
            out[next(iter(out))] += 1
        return out

    monkeypatch.setattr(multiball, "apply", off_by_one)
    push()
    last = len(outputs)
    outputs.clear()
    wrong, right = (re.escape(str(p)) for p in (epsilon + ONE, epsilon))
    with pytest.raises(ValueError, match=rf"^column \d+ sums to {wrong}, expected {right}$"):
        push()
    assert len(outputs) == last


def test_the_decoded_column_sum_oracle_names_a_wrong_or_missing_column():
    assert column_sum_failure(Matrix(2, {0: {0: Q, 1: ONE_MINUS_Q}, 1: {1: ONE}}), ONE) is None
    wrong = Matrix(2, {0: {0: ONE}, 1: {0: Q}})
    assert column_sum_failure(wrong, ONE) == "column 1 sums to q, expected 1"
    missing = Matrix(2, {0: {0: Q, 1: ONE_MINUS_Q}})
    assert column_sum_failure(missing, ONE) == "column 1 sums to 0, expected 1"


wide_coefficients = st.builds(
    lambda low, big, sign: QPoly((*low, sign * big)),
    st.lists(st.integers(-5, 5), max_size=2),
    st.integers(2**64, 2**80),
    st.sampled_from([1, -1]),
)


@st.composite
def summing_elements(draw):
    """(n, terms, epsilon) of three shapes: a lone word, so epsilon = 1; a
    combination with negative coefficients and one over 64 bits; and that
    combination minus itself, so epsilon = 0."""
    n, terms = draw(suffix_elements(max_n=3, max_len=4))
    terms.append((draw(st.sampled_from(terms))[0], draw(wide_coefficients)))
    shape = draw(st.sampled_from(["word", "combination", "cancelled"]))
    if shape == "word":
        return n, [(terms[0][0], ONE)], ONE
    if shape == "cancelled":
        return n, terms + [(w, -c) for w, c in terms], ZERO
    return n, terms, poly_sum(c for _w, c in terms)


@pytest.mark.parametrize("model", ["single-lane", "cabled"])
@given(summing_elements(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_pushed_columns_pass_the_decoded_column_sum_oracle(model, element, cap):
    n, terms, epsilon = element
    fall = multiball.apply_generator
    if model == "cabled":
        fall = lambda a, b: cabled.apply_generator_cabled(a, b, cap)
    m = push_one((terms,), n, cap + 1, fall)
    assert epsilon == poly_sum(c for _w, c in terms)
    assert column_sum_failure(m, epsilon) is None
    assert column_sum_failure(m, epsilon + Q) == f"column 0 sums to {epsilon}, expected {epsilon + Q}"


@pytest.mark.parametrize("a, b, c", [(1, 0, 2), (0, 2, 1), (2, 0, -1)])
def test_a_fall_outside_its_range_is_named(monkeypatch, a, b, c):
    # Negative control for the push's fall contract, c in 0..min(a, N - b):
    # the last branch at (a, b) gets c.  Unchecked, c = 2 at (1, 0) moves a
    # digit past N = 2 and aliases into the next one: sigma_1 sends the
    # 1 - q branch of the column of (1,0,1) to (2,2,0) instead of (1,0,1).
    original = multiball.apply_generator

    def skewed(a0, b0):
        branches = original(a0, b0)
        return branches[:-1] + ((c, branches[-1][1]),) if (a0, b0) == (a, b) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    top = min(a, 2 - b)
    with pytest.raises(ValueError, match=rf"^fall\({a}, {b}\) gives c = {c}, outside 0\.\.{top}$"):
        rho_matrix(BraidWord(3, (1,)), 2)


def recorded_calls(monkeypatch, module, name):
    """The argument tuple of every call to ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_distinct_letter_is_tabulated_once_per_element(monkeypatch):
    calls = recorded_calls(monkeypatch, multiball, "apply_generator")
    words = [(1, 2, 1, 1), (2, 1), (3, 1, 3), (1, 2, 1, 1)]
    x = HeckeElement(4, tuple((BraidWord(4, w), QPoly((k + 1,))) for k, w in enumerate(words)))
    rho_element(x, 2)
    # Three distinct letters, but one fall call per pair of counts (a, b) in 0..2.
    assert sorted(calls) == [(a, b) for a in range(3) for b in range(3)]


@pytest.mark.parametrize("n, N", [(1, 5000), (2, 3)])
def test_a_push_without_letters_calls_no_rule(monkeypatch, n, N):
    # On one strand there is no letter, so no generator table, in either model.
    calls = recorded_calls(monkeypatch, multiball, "apply_generator")
    cabled_calls = recorded_calls(monkeypatch, cabled, "apply_generator_cabled")
    assert rho_matrix(BraidWord(n), N) == identity((N + 1) ** n)
    assert rho_cabled_matrix(BraidWord(n), N) == identity((N + 1) ** n)
    assert calls == cabled_calls == []


@pytest.mark.parametrize("K", [1, 2, 3])
def test_a_cabled_push_calls_the_rule_once_per_pair_of_counts(monkeypatch, K):
    calls = recorded_calls(monkeypatch, cabled, "apply_generator_cabled")
    rho_cabled_matrix(BraidWord(3, (1, 2, 1, 2)), K)
    pairs = [(a, b, K) for a in range(K + 1) for b in range(K + 1)]
    assert sorted(calls) == pairs
    rho_cabled_matrix(BraidWord(4, (3,)), K)
    assert sorted(calls) == sorted(pairs * 2)


@given(elements(), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_every_rule_call_gets_the_two_counts_of_one_crossing(element, N):
    n, terms = element
    x = HeckeElement(n, tuple(terms))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = recorded_calls(monkeypatch, multiball, "apply_generator")
        rho_element(x, N)
    letters = any(word.letters for word, _c in x.terms)
    pairs = [(a, b) for a in range(N + 1) for b in range(N + 1)] if letters else []
    assert sorted(calls) == pairs


# A batch on two strands.  The bound of sigma_1^40 (3^40 single-lane, 9^40
# and 21^40 cabled) sets wide digits, which the short words share, but its
# entries' coefficients are small; BIG's coefficient 2^80 really needs more
# than 80 bits, so a width taken from any one other product would wrap it.
# P is listed twice apart, and G F G twice in a row; F and G are factors of
# two products in either order and of one alone; X - X cancels to 0, with
# epsilon 0.
LONG = BraidWord(2, (1,) * 40)
F = HeckeElement(2, ((BraidWord(2), ONE), (BraidWord(2, (1,)), -ONE)))
G = HeckeElement(2, ((BraidWord(2, (1, 1)), QPoly((2, -1))), (BraidWord(2), Q)))
P = HeckeProduct(2, (F, G))
X = ((BraidWord(2, (1, 1, 1)), QPoly((3, 1))), (BraidWord(2, (1,)), Q))
BIG = HeckeElement(2, ((BraidWord(2, (1, 1)), QPoly((2**80, -3))), (BraidWord(2), Q)))
BATCH = [
    LONG,
    BraidWord(2),
    BraidWord(2, (1,)),
    BIG,
    P,
    HeckeProduct(2, (G, F, G)),
    HeckeProduct(2, (G, F, G)),
    F,
    P,
    HeckeElement(2, X + tuple((w, -c) for w, c in X)),
    BraidWord(2, (1, 1)),
]


def batch_factors(x):
    return [[(x, ONE)]] if isinstance(x, BraidWord) else [f.terms for f in x.factors]


@pytest.mark.parametrize(
    "model, cap", [("single-lane", 1), ("single-lane", 3), ("cabled", 2), ("cabled", 3)]
)
def test_each_batched_matrix_equals_its_product_pushed_alone(model, cap):
    fall = multiball.apply_generator
    if model == "cabled":
        fall = lambda a, b: cabled.apply_generator_cabled(a, b, cap)
    products = [batch_factors(x) for x in BATCH]
    batch = list(multiball.push_columns(products, 2, cap + 1, fall))
    assert len(batch) == len(BATCH)
    for factors, m in zip(products, batch):
        assert m == push_one(factors, 2, cap + 1, fall)
    assert batch[4] == batch[8] != Matrix((cap + 1) ** 2)
    assert batch[5] == batch[6] != Matrix((cap + 1) ** 2)
    assert batch[9] == Matrix((cap + 1) ** 2)
    if model == "single-lane":
        assert batch[0] == reference_push(LONG, cap, multiball_rule, state_index, index_state)
        assert batch[3] == scaled_sum(2, BIG.terms, cap)
        assert batch[4] == scaled_sum(2, P.terms, cap)


# Two factors on three strands at N = 1 (dim 8) whose products in either
# order differ.
REPEAT_F = HeckeElement(3, ((BraidWord(3), ONE), (BraidWord(3, (2, 1)), -Q)))
REPEAT_G = HeckeElement(3, ((BraidWord(3, (1,)), QPoly((2,))), (BraidWord(3, (1, 2)), ONE)))
FG = HeckeProduct(3, (REPEAT_F, REPEAT_G))
GF = HeckeProduct(3, (REPEAT_G, REPEAT_F))


def push_cost(monkeypatch, xs):
    """The matrices of one push of ``xs`` at N = 1, and its (step, apply)
    call counts; ``step`` calls ``apply``, and those calls count too."""
    with monkeypatch.context() as m:
        steps = recorded_calls(m, multiball, "step")
        applies = recorded_calls(m, multiball, "apply")
        matrices = list(multiball.rho_batch(xs, 3, 1))
    return matrices, (len(steps), len(applies))


def test_a_product_equal_to_the_one_before_it_costs_nothing(monkeypatch):
    # The second FG is another object with equal factor lists.
    (alone,), cost = push_cost(monkeypatch, [FG])
    assert cost[0] and cost[1]
    twice, twice_cost = push_cost(monkeypatch, [FG, HeckeProduct(3, (REPEAT_F, REPEAT_G))])
    assert twice_cost == cost
    assert twice == [alone, alone]


def test_a_reversed_product_is_built_in_full_and_a_shared_first_factor_once(monkeypatch):
    (fg,), fg_cost = push_cost(monkeypatch, [FG])
    (gf,), gf_cost = push_cost(monkeypatch, [GF])
    (g,), g_cost = push_cost(monkeypatch, [REPEAT_G])
    # G and F cost 2 steps and 4 applies each, and chaining them 7 applies,
    # one per root column.
    assert fg != gf and fg_cost == gf_cost == (4, 15) and g_cost == (2, 4)
    matrices, cost = push_cost(monkeypatch, [FG, GF])
    assert matrices == [fg, gf]
    assert cost == (8, 30)
    # Read from its end, FG is G, then F, so REPEAT_G's path is a prefix of
    # FG's and is built first: FG starts from its partial, and the second FG,
    # of the same path, is the first FG's matrix.  The batch costs FG alone.
    matrices, cost = push_cost(monkeypatch, [FG, REPEAT_G, FG])
    assert matrices == [fg, g, fg] and matrices[0] is matrices[2]
    assert cost == (4, 15) == fg_cost


def model_fall(model, cap):
    if model == "cabled":
        return lambda a, b: cabled.apply_generator_cabled(a, b, cap)
    return multiball.apply_generator


def counted_push(monkeypatch, products, n, cap, fall):
    """The matrices of one push and its number of ``step`` calls."""
    with monkeypatch.context() as m:
        steps = recorded_calls(m, multiball, "step")
        matrices = list(multiball.push_columns(products, n, cap + 1, fall))
    return matrices, len(steps)


# Words on three strands that end alike, and one of 41 letters whose bound
# (3^41 single-lane, 9^41 and 21^41 cabled) sets digits past 64 bits.
SUFFIX_WORDS = [
    BraidWord(3, letters)
    for letters in [(), (1,), (2, 1), (1, 2, 1), (2, 2, 1), (1, 2), (2, 1, 2), (2,), (1, 2, 1, 2)]
] + [BraidWord(3, tuple(1 + k % 2 for k in range(41)))]


@pytest.mark.parametrize("model, cap", [("single-lane", 1), ("single-lane", 2), ("cabled", 2)])
def test_a_batch_in_suffix_order_steps_each_distinct_suffix_once(monkeypatch, model, cap):
    fall = model_fall(model, cap)
    words = sorted(SUFFIX_WORDS, key=lambda w: w.letters[::-1])
    products = [[[(w, ONE)]] for w in words]
    assert digit_width(3**41) > 64
    matrices, steps = counted_push(monkeypatch, products, 3, cap, fall)
    assert steps == len({w.letters[k:] for w in words for k in range(len(w))})
    assert steps < sum(map(len, words))
    for product, m in zip(products, matrices):
        assert m == push_one(product, 3, cap + 1, fall)


@pytest.mark.parametrize("model", ["single-lane", "cabled"])
def test_a_shared_suffix_is_stepped_once_in_either_order(monkeypatch, model):
    # (2, 1) and (1, 2, 1) end alike; (1, 2) ends otherwise.  Listed between
    # them, it does not stop (1, 2, 1) from starting at (2, 1)'s partial, and
    # a lone word costs a step a letter.
    fall = model_fall(model, 2)
    push = lambda *ws: counted_push(monkeypatch, [[[(w, ONE)]] for w in ws], 3, 2, fall)
    a, b, c = (BraidWord(3, ls) for ls in [(2, 1), (1, 2), (1, 2, 1)])
    ((ma,), sa), ((mb,), sb), ((mc,), sc) = push(a), push(b), push(c)
    assert (sa, sb, sc) == (2, 2, 3)
    assert push(a, b, c) == ([ma, mb, mc], 5)
    assert push(a, c, b) == ([ma, mc, mb], 5)


def path_of(factors):
    """A product's atoms read from its end: each letter of a factor that is
    one word with coefficient 1, else the factor's terms."""
    out = []
    for f in reversed(factors):
        out += reversed(f[0][0].letters) if len(f) == 1 and f[0][1] == ONE else [tuple(f)]
    return tuple(out)


def assert_order_free(monkeypatch, products, n, cap, fall, orders):
    """Each order of ``products`` pushes to the matrices of its products
    pushed alone, in that order, with one object for equal paths, and with
    one step per distinct path prefix that ends with a letter, plus a
    factor's own steps per distinct prefix that ends with it.  Returns that
    step count."""
    alone = [push_one(factors, n, cap + 1, fall) for factors in products]
    paths = [*map(path_of, products)]
    prefixes = {path[: d + 1] for path in paths for d in range(len(path))}
    own = lambda f: counted_push(monkeypatch, [[f]], n, cap, fall)[1]
    steps = sum(1 if type(p[-1]) is int else own(p[-1]) for p in prefixes)
    for order in orders:
        matrices, count = counted_push(monkeypatch, [products[k] for k in order], n, cap, fall)
        assert count == steps
        assert len(matrices) == len(order)
        assert all(m == alone[k] for m, k in zip(matrices, order))
        for (a, m), (b, other) in itertools.combinations(zip(order, matrices), 2):
            assert (m is other) == (paths[a] == paths[b])
    return steps


# On three strands: two words that end alike, (1 2 1) and the word factor
# of Z (2 1), whose other factor Z is 0; FG and GF, whose factors are shared,
# and G, equal to FG's first atom, whose path is a prefix of FG's; and the
# empty word, whose path is a prefix of every path.
ZERO_FACTOR = [(BraidWord(3, (2,)), Q), (BraidWord(3, (2,)), -Q)]
MIXED = [
    [[(BraidWord(3, (1, 2, 1)), ONE)]],
    [ZERO_FACTOR, [(BraidWord(3, (2, 1)), ONE)]],
    batch_factors(FG),
    batch_factors(GF),
    batch_factors(REPEAT_G),
    [[(BraidWord(3), ONE)]],
]


@pytest.mark.parametrize("model, cap", [("single-lane", 1), ("cabled", 2)])
def test_every_order_of_a_mixed_batch_gives_the_same_matrices_and_steps(monkeypatch, model, cap):
    fall = model_fall(model, cap)
    alone = [push_one(factors, 3, cap + 1, fall) for factors in MIXED]
    assert all(a != b for a, b in itertools.combinations(alone, 2))
    orders = list(itertools.permutations(range(len(MIXED))))
    # Three steps for (1 2 1), whose first two Z (2 1) shares; two each for
    # G and F, each built once in FG and once in GF; none for G alone, which
    # is FG's first atom, for Z, which is 0, or for the empty word.
    assert assert_order_free(monkeypatch, MIXED, 3, cap, fall, orders) == 3 + 4 * 2


@pytest.mark.parametrize("model", ["single-lane", "cabled"])
def test_the_stochastic_words_take_197_steps_in_any_order(monkeypatch, model):
    words = drawn_stochastic_words(4)
    assert len(set(words)) < len(words)
    products = [[[(w, ONE)]] for w in words]
    orders = [range(len(words))]
    for seed in range(3):
        order = list(range(len(words)))
        random.Random(seed).shuffle(order)
        orders.append(order)
    assert assert_order_free(monkeypatch, products, 4, 2, model_fall(model, 2), orders) == 197


def test_sharing_stops_at_the_first_factor_that_is_not_a_word(monkeypatch):
    # Read from its end, F w is the letters of w and then F, so F w and G w
    # share w's two steps; w F starts with F, which w G does not share.
    w = HeckeElement(3, ((BraidWord(3, (1, 2)), ONE),))
    for first, second, saved in [
        (HeckeProduct(3, (REPEAT_F, w)), HeckeProduct(3, (REPEAT_G, w)), 2),
        (HeckeProduct(3, (w, REPEAT_F)), HeckeProduct(3, (w, REPEAT_G)), 0),
    ]:
        (one,), one_cost = push_cost(monkeypatch, [first])
        (two,), two_cost = push_cost(monkeypatch, [second])
        matrices, cost = push_cost(monkeypatch, [first, second])
        assert matrices == [one, two]
        assert cost[0] == one_cost[0] + two_cost[0] - saved


def test_check_specht_steps_the_ladders_of_x_k_once(monkeypatch):
    # check_specht(6, 2, 1) pushes x_1, (1 - sigma_i) half_i for i = 1, 2, 3,
    # sigma_j x_1 for j = 1, 2, 3 and (-q) x_1.  (1 - sigma_1) half_1 has x_1's
    # path, and every sigma_j x_1 and (-q) x_1 starts with x_1's ladders, so
    # those are stepped once, and each sigma_j adds one step.
    n, N, k = 6, 2, 1

    def steps_of(run):
        with monkeypatch.context() as m:
            calls = recorded_calls(m, multiball, "step")
            run()
        return len(calls)

    x = specht_element(n, N, k)
    one_minus = lambda i: HeckeElement(n, ((BraidWord(n), ONE), (BraidWord(n, (i,)), -ONE)))
    factored = [HeckeProduct(n, (one_minus(i), *specht_half(n, N, k, i).factors)) for i in (3, 2)]
    alone = steps_of(lambda: list(multiball.rho_batch([x], n, N)))
    # A ladder of m words costs m - 1 steps.
    assert alone == sum(len(ladder.terms) - 1 for ladder in x.factors) == 6
    others = steps_of(lambda: list(multiball.rho_batch(factored, n, N)))
    assert steps_of(lambda: multiball.check_specht(n, N, k)) == alone + (N + 1) + others


@pytest.mark.parametrize("model", ["single-lane", "cabled"])
def test_a_zero_factor_followed_by_letters_yields_zero(model):
    # Read from its end, the product w Z is Z, whose terms cancel, and then
    # the letters of w, stepped from the zero matrix.
    z = ((BraidWord(3, (2,)), Q), (BraidWord(3, (2,)), -Q))
    product = [[(BraidWord(3, (1, 2)), ONE)], z]
    batch = [product, [[(BraidWord(3, (2, 1, 2)), ONE)]]]
    zero, word = multiball.push_columns(batch, 3, 3, model_fall(model, 2))
    assert zero == Matrix(27)
    assert word == push_one(batch[1], 3, 3, model_fall(model, 2)) != Matrix(27)


def test_a_fall_that_breaks_column_sums_fails_before_its_matrix_is_yielded(monkeypatch):
    original = multiball.apply_generator

    def skewed(a, b):
        # As above: sigma_1 takes the column of (1,0,0) to a sum of 2.
        branches = original(a, b)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    # The empty word meets no crossing and is yielded as it is; sigma_1 fails
    # its check, so neither it nor anything after it is yielded.
    words = [BraidWord(3), BraidWord(3, (1,)), BraidWord(3, (2,))]
    yielded = []
    column = state_index((1, 0, 0), 1)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 2, expected 1$"):
        for m in multiball.rho_batch(words, 3, 1):
            yielded.append(m)
    assert yielded == [identity(8)]


def test_a_failing_product_that_sorts_ahead_stops_the_products_before_it(monkeypatch):
    original = multiball.apply_generator

    def skewed(a, b):
        # As above: sigma_1 takes the column of (1,0,0) to a sum of 2.
        branches = original(a, b)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    # The push builds the paths (), () and (1,) in that order: the empty
    # word, then 1, which is the empty word's matrix, then sigma_1, which
    # fails.  Only the empty word has every product before it built, so it
    # alone is yielded; sigma_2 and 1 come before or after sigma_1 in the
    # batch and are not.
    one = HeckeElement(3, ((BraidWord(3), ONE),))
    xs = [BraidWord(3), BraidWord(3, (2,)), BraidWord(3, (1,)), one]
    yielded = []
    column = state_index((1, 0, 0), 1)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 2, expected 1$"):
        for m in multiball.rho_batch(xs, 3, 1):
            yielded.append(m)
    assert yielded == [identity(8)]


def test_a_batch_checks_each_product_against_its_own_epsilon():
    # Epsilons 1, 3 + q, 0 and (3 + q)^2 in one batch: a check against any
    # one epsilon for all products would raise.
    three = HeckeElement(2, ((BraidWord(2, (1,)), QPoly((3,))), (BraidWord(2), Q)))
    zero = HeckeElement(2, ((BraidWord(2, (1,)), ONE), (BraidWord(2, (1,)), -ONE)))
    xs = [BraidWord(2, (1,)), three, zero, HeckeProduct(2, (three, three))]
    epsilons = [ONE, 3 + Q, ZERO, (3 + Q) * (3 + Q)]
    matrices = list(multiball.rho_batch(xs, 2, 2))
    assert [column_sum_failure(m, e) for m, e in zip(matrices, epsilons)] == [None] * 4


def test_a_batch_with_a_word_on_another_strand_count_is_refused():
    message = r"^every word of a push on 3 strands must have 3 strands$"
    with pytest.raises(ValueError, match=message):
        list(multiball.rho_batch([BraidWord(3, (1,)), BraidWord(4, (3,))], 3, 1))
