"""Jones's bowling-alley remark: with one ball on the alley, both models are
the Burau representation.  The one-ball sector of ``rho_matrix(w, N)`` is
checked against a Burau product written out here on dense n x n matrices, at
q for every cap N, and the sector of ``rho_cabled_matrix(w, K)`` against the
same product at q^K (one ball passes the K under lanes of a group)."""

import random

import pytest

from braidbowl import multiball
from braidbowl.braid import BraidWord
from braidbowl.cabled import rho_cabled_matrix
from braidbowl.multiball import rho_matrix, state_index
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly


def burau_generator(n, i, t):
    """sigma_i sends e_i to (1 - t) e_i + t e_(i+1) and e_(i+1) to e_i."""
    m = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    m[i - 1][i - 1], m[i][i - 1] = ONE - t, t
    m[i - 1][i], m[i][i] = ONE, ZERO
    return m


def burau(word, t):
    """B(w_m) ... B(w_1) for the word w_1 ... w_m."""
    n = word.n
    out = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for i in word.letters:
        g = burau_generator(n, i, t)
        out = [[sum((g[r][k] * out[k][c] for k in range(n)), ZERO) for c in range(n)]
               for r in range(n)]
    return out


def one_ball_mismatches(m, word, cap, t):
    """Columns of m at the n one-ball states that differ from the Burau
    product at t, including any entry outside the one-ball sector."""
    n = word.n
    index = [state_index(tuple(int(p == r) for p in range(n)), cap) for r in range(n)]
    expected = burau(word, t)
    return [
        c for c in range(n)
        if m.cols.get(index[c], {}) != {index[r]: expected[r][c] for r in range(n) if expected[r][c]}
    ]


def seeded_words(count=60, seed=0):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        yield BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 8))))


@pytest.mark.parametrize("N", [1, 2])
def test_one_ball_sector_of_rho_is_burau(N):
    for word in seeded_words():
        assert one_ball_mismatches(rho_matrix(word, N), word, N, Q) == [], str(word)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_one_ball_sector_of_cabled_rho_is_burau_at_q_to_the_K(K):
    # At K = 3 the first 30 words: the five-strand pushes of the rest take seconds.
    for word in seeded_words(60 if K < 3 else 30):
        m = rho_cabled_matrix(word, K)
        assert one_ball_mismatches(m, word, K, QPoly.monomial(K)) == [], str(word)


def test_a_fall_with_q_and_one_minus_q_swapped_is_not_burau(monkeypatch):
    def swapped(a, b):
        return ((0, ONE),) if a <= b else ((0, ONE_MINUS_Q), (a - b, Q))

    monkeypatch.setattr(multiball, "apply_generator", swapped)
    # sigma_1 sigma_2 moves only the ball that starts in lane 1.
    word = BraidWord(3, (1, 2))
    assert one_ball_mismatches(rho_matrix(word, 1), word, 1, Q) == [0]


def test_cabled_rho_is_not_burau_at_q():
    word = BraidWord(3, (1, 2))
    assert one_ball_mismatches(rho_cabled_matrix(word, 2), word, 2, Q) == [0]
