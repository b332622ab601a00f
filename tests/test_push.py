"""The tabulated packed-integer push behind rho_matrix, rho_element and
rho_cabled_matrix, checked exactly against a per-column push of state tuples
in QPoly arithmetic, including words on both sides of every digit-width
change, and against the per-word sum of scaled matrices for combinations of
words.  The reference rules are written out here on whole states, so they
check where the push places each branch, and share no code with the fall
distributions the push reads or with its digit moves."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidbowl import cabled, multiball
from braidbowl.braid import BraidWord, HeckeElement
from braidbowl.cabled import rho_cabled_matrix
from braidbowl.matrix import Matrix
from braidbowl.multiball import index_state, rho_element, rho_matrix, state_index
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly, digit_width, falling_probability


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
    assert max(abs(c) for _i, _j, v in expected.entries_sorted() for c in v.coeffs) >= 2**7
    assert rho_cabled_matrix(word, 3) == expected


def scaled_sum(n, terms, N):
    """sum_t c_t rho(w_t) the per-word way: one push, one ``scale`` and one
    ``+`` per term, in the order given (repeated words included)."""
    out = Matrix((N + 1) ** n)
    for word, coeff in terms:
        out = out + rho_matrix(word, N).scale(coeff)
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


def test_rho_element_of_the_empty_element_is_zero():
    m = rho_element(HeckeElement(3), 2)
    assert m.dim == 27 and m.is_zero()


def test_rho_element_of_x_minus_x_is_zero():
    terms = ((BraidWord(3, (1, 2, 1)), QPoly.of(2, -1)), (BraidWord(3, (2,)), Q))
    x_minus_x = HeckeElement(3, terms + tuple((w, -c) for w, c in terms))
    assert rho_element(x_minus_x, 2) == Matrix(27)


def test_a_large_coefficient_alone_widens_the_digits():
    # Generator columns have L1 norm 3, so the words alone need 8-bit digits;
    # only the coefficient 2^70 pushes the bound past 64 bits.
    word, short = BraidWord(3, (1, 2, 1)), BraidWord(3, (2,))
    terms = [(word, QPoly.of(2**70, -3)), (short, Q), (word, ONE)]
    assert digit_width(3 ** len(word)) == 8
    assert digit_width((2**70 + 3) * 3 ** len(word)) > 64
    assert rho_element(HeckeElement(3, tuple(terms)), 2) == scaled_sum(3, terms, 2)


def test_an_element_column_with_the_wrong_sum_is_named(monkeypatch):
    original = multiball.apply_generator

    def skewed(a, b):
        # Both branches of a crossing at counts (1, 0) get weight 1, so sigma_1
        # takes the column of (1,0,0) to a sum of 2.
        branches = original(a, b)
        return [(c, ONE) for c, _w in branches] if (a, b) == (1, 0) else branches

    monkeypatch.setattr(multiball, "apply_generator", skewed)
    x = HeckeElement(3, ((BraidWord(3, (1,)), QPoly.of(2)), (BraidWord(3, (2,)), QPoly.of(3))))
    column = state_index((1, 0, 0), 1)
    with pytest.raises(ValueError, match=rf"^column {column} sums to 7, expected 5$"):
        rho_element(x, 1)


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
    x = HeckeElement(4, tuple((BraidWord(4, w), QPoly.of(k + 1)) for k, w in enumerate(words)))
    rho_element(x, 2)
    # Three distinct letters, but one fall call per pair of counts (a, b) in 0..2.
    assert sorted(calls) == [(a, b) for a in range(3) for b in range(3)]


@pytest.mark.parametrize("n, N", [(1, 5000), (2, 3)])
def test_a_push_without_letters_calls_no_rule(monkeypatch, n, N):
    calls = recorded_calls(monkeypatch, multiball, "apply_generator")
    assert rho_matrix(BraidWord(n), N) == Matrix.identity((N + 1) ** n)
    assert calls == []


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
