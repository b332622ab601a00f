"""The tabulated packed-integer push behind rho_matrix and rho_cabled_matrix,
checked exactly against a per-column push of state tuples in QPoly
arithmetic, including words on both sides of every digit-width change.  The
reference rules are written out here, sharing no code with
``multiball.crossing``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidbowl.braid import BraidWord
from braidbowl.cabled import rho_cabled_matrix
from braidbowl.matrix import Matrix
from braidbowl.multiball import index_state, rho_matrix, state_index
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, digit_width, falling_probability


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
    """The cabled crossing straight from the closed formula, bypassing the
    fall-distribution cache."""

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
