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

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import column_sum_failure, entries_sorted, generator_by_states

from braidbowl import cabled, multiball
from braidbowl.braid import BraidWord, HeckeElement, specht_element, specht_half
from braidbowl.cabled import falling_probability, rho_cabled_matrix
from braidbowl.matrix import Matrix
from braidbowl.multiball import (
    generator_matrix, index_state, rho_element, rho_matrix, state_index,
)
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly, digit_width, poly_sum


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
        out = out + matrix_of(word, N).scale(coeff)
    return out


coefficients = st.one_of(
    st.integers(-6, 6).map(lambda c: QPoly((c,))),
    st.lists(st.integers(-5, 5), max_size=4).map(lambda cs: QPoly(tuple(cs))),
)


@st.composite
def elements(draw, max_n=4, max_terms=5, max_len=6):
    """(n, raw terms) with words of length 0..max_len that may repeat."""
    n = draw(st.integers(1, max_n))
    letters = st.lists(st.integers(1, n - 1), max_size=max_len) if n > 1 else st.just([])
    pool = draw(st.lists(letters.map(lambda ls: BraidWord(n, tuple(ls))), min_size=1, max_size=3))
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficients), max_size=max_terms))
    return n, terms


@given(elements(), st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_rho_element_matches_sum_of_scaled_word_matrices(element, N):
    n, terms = element
    assert rho_element(HeckeElement(n, tuple(terms)), N) == scaled_sum(n, terms, N)


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
    assert multiball.push_columns(terms, n, K + 1, fall) == expected


@pytest.fixture(scope="module")
def window_word_matrices():
    """rho at N' = 3 of every word of the window element x_1 at (6,2,1), where
    x_1 is not killed; its halves' words are among them."""
    return {word: rho_matrix(word, 3) for word, _c in specht_element(6, 2, 1).terms}


@pytest.mark.parametrize("half", [None, 1, 2, 3])
def test_window_elements_match_sum_of_scaled_word_matrices(window_word_matrices, half):
    x = specht_element(6, 2, 1) if half is None else specht_half(6, 2, 1, half)
    expected = scaled_sum(6, x.terms, 3, lambda word, _N: window_word_matrices[word])
    assert expected != Matrix(4**6)
    assert rho_element(x, 3) == expected


def test_returned_columns_share_no_dict():
    # Most crossings of this word meet a <= b and so share a column of the
    # suffix matrix inside the push; the result must not.  In the last model
    # every ball that fits falls with weight 1, so a crossing sends several
    # states to one state, and their columns are one dict inside the push.
    word = BraidWord(4, (1, 2, 3, 1, 2, 1, 3, 2, 3))
    x = HeckeElement(4, ((word, ONE), (BraidWord(4, word.letters[3:]), Q)))
    all_fall = lambda a, b: ((min(a, 2 - b), ONE),)
    for m in (
        rho_matrix(word, 2),
        rho_element(x, 2),
        rho_cabled_matrix(word, 2),
        multiball.push_columns(((word, ONE),), 4, 3, all_fall),
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
        multiball.push_columns(terms, 2, 2, lambda a, b: ())


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
    push = lambda: multiball.push_columns(terms, n, N + 1, multiball.apply_generator)
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
    m = multiball.push_columns(terms, n, cap + 1, fall)
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
    assert rho_matrix(BraidWord(n), N) == Matrix.identity((N + 1) ** n)
    assert rho_cabled_matrix(BraidWord(n), N) == Matrix.identity((N + 1) ** n)
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
