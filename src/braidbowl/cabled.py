"""The cabled representation: every lane becomes K parallel lanes, each
carrying at most one ball, and the state tracks only the per-group counts.

The cabled model is the single-lane model with another fall distribution:
with a balls in the over group and b in the under group, exactly c balls
fall with probability f(c) = ``falling_probability(K, a, b, c)``, a Gaussian
binomial times c factors 1 - q^j and a power of q, and
``multiball.push_columns`` moves them.  A push asks for each pair (a, b)
once, so ``fall_distribution`` keeps no cache; ``rho_cabled_batch`` pushes
all the words of a check in one call, so the check asks for each once.

``cable_word`` makes the cabling literal: it replaces every lane by K
single-ball lanes and every crossing by its K^2 micro-crossings, so the lane
level of a cabled word is the single-lane (N=1) model on the cabled word, and
rho_K is its lumping onto group counts.  ``crossing_oracle`` reads the fall
distribution off one lumped lane column; it shares no code with the closed
formula, which ``check_cabled_formula`` compares it against.
``check_oracle_placement_invariance`` compares the lumped column of every lane
placement with rho_K.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .braid import BraidWord
from .matrix import TransitionMatrix
from .multiball import (
    braid_pairs, far_pairs, fmt_state, index_state, matrix_report, push_columns, pushed_pairs,
    rho_matrix, state_index,
)
from .qpoly import ONE, ZERO, QPoly, poly_sum
from .report import CheckReport

FallDistribution = dict[int, QPoly]

# The widest cable whose 4^K lane placements ``check_oracle_placement_invariance``
# enumerates, and so the widest ``check`` accepts for the cabled suites.
MAX_PLACEMENT_CABLE = 4


def validate_cable(K: int, a: int = 0, b: int = 0) -> None:
    """Raise unless cable width K >= 1 and over/under group counts a, b lie in 0..K."""
    if K < 1:
        raise ValueError(f"cable width must be >= 1, got {K}")
    if not 0 <= a <= K or not 0 <= b <= K:
        raise ValueError(f"need 0 <= a, b <= K, got a={a}, b={b}, K={K}")


@lru_cache(maxsize=None)
def gauss_binom(k: int, r: int) -> QPoly:
    """Gaussian binomial [k]! / ([r]! [k-r]!), and 0 when r < 0 or r > k.

    Computed by the q-Pascal recursion, which stays in Z[q] throughout:
    choosing whether the last slot of a 0/1 sequence holds a 1 gives
    gauss(k, r) = gauss(k-1, r-1) + q^r * gauss(k-1, r).
    """
    if k < 0:
        raise ValueError(f"Gaussian binomial needs k >= 0, got {k}")
    if r < 0 or r > k:
        return ZERO
    if r == 0 or r == k:
        return ONE
    return gauss_binom(k - 1, r - 1) + QPoly.monomial(r) * gauss_binom(k - 1, r)


def falling_probability(K: int, a: int, b: int, c: int) -> QPoly:
    """Probability, as a polynomial in q, that exactly c balls fall at one
    cabled crossing of width K when a balls enter the over group and b the
    under group.  With m = K - b empty under lanes, the closed form is

        gauss(a, c) * (1 - q^(m-c+1)) ... (1 - q^m) * q^((a-c)(m-c)),

    which is gauss(a, c) * gauss(m, c) * [c]! * (1 - q)^c * q^((a-c)(m-c)),
    since gauss(m, c) [c]! = [m]!/[m-c]! and [j] (1 - q) = 1 - q^j.
    Vanishes when c > a or c > m (no way to pick the falling balls or the
    lanes they land in).
    """
    validate_cable(K, a, b)
    if c < 0:
        raise ValueError(f"need c >= 0, got c={c}")
    m = K - b
    if c > a or c > m:
        return ZERO
    out = gauss_binom(a, c)
    for j in range(m - c + 1, m + 1):
        out = out * (ONE - QPoly.monomial(j))
    return out * QPoly.monomial((a - c) * (m - c))


def fall_distribution(K: int, a: int, b: int) -> FallDistribution:
    """Closed-form distribution of the number of falling balls at one
    cabled crossing: f(c) for c in 0..min(a, K-b), each a product of nonzero
    polynomials and so nonzero.  Returns a fresh dict on every call."""
    validate_cable(K, a, b)
    return {c: falling_probability(K, a, b, c) for c in range(min(a, K - b) + 1)}


def apply_generator_cabled(a: int, b: int, K: int):
    """The cabled fall distribution as the push reads it.  The push calls it
    by this module-global name, which ``perfbench/layertrace.py`` wraps to
    count branches, so the name stays until the benchmark is revised."""
    return fall_distribution(K, a, b).items()


def rho_cabled_batch(words: Sequence[BraidWord], n: int, K: int) -> list[TransitionMatrix]:
    """The cabled matrix of each word on n strands, as a list in the order of
    ``words`` from one push, which asks for the (K+1)^2 fall distributions
    once and builds each distinct word once.  A column that fails its sum
    raises before anything is returned."""
    validate_cable(K)
    fall = lambda a, b: apply_generator_cabled(a, b, K)
    return push_columns([[[(word, ONE)]] for word in words], n, K + 1, fall)


def rho_cabled_matrix(word: BraidWord, K: int) -> TransitionMatrix:
    """Transition matrix of a word on group-count states, dimension (K+1)^n."""
    return rho_cabled_batch([word], word.n, K)[0]


def cable_word(word: BraidWord, K: int) -> BraidWord:
    """The word on nK single-ball lanes that replaces each lane of ``word`` by
    K parallel lanes.  Group i holds lanes (i-1)K+1..iK.  Each sigma_i becomes
    its K^2 micro-crossings: the upper lanes p from K-1 down to 0 (the side that
    meets the under group first), each passing the under lanes l = 0..K-1 in
    the order met, as the letter (i-1)K + p + l + 1."""
    letters = [
        (i - 1) * K + p + l + 1 for i in word.letters for p in reversed(range(K)) for l in range(K)
    ]
    return BraidWord(word.n * K, tuple(letters))


@lru_cache(maxsize=None)
def _lane_matrix(K: int) -> TransitionMatrix:
    """The single-lane (N=1) matrix of one cabled crossing sigma_1 on 2K lanes."""
    return rho_matrix(cable_word(BraidWord(2, (1,)), K), 1)


def _lumped_column(K: int, lanes: tuple[int, ...]) -> dict[tuple[int, int], QPoly]:
    """The column of the 0/1 lane state ``lanes`` (2K lanes, over group first)
    in ``_lane_matrix(K)``, summed onto group counts: {(balls in the first K
    lanes, balls in the last K): weight}."""
    parts: dict[tuple[int, int], list[QPoly]] = {}
    for t, w in _lane_matrix(K).cols[state_index(lanes, 1)].items():
        v = index_state(t, 2 * K, 1)
        parts.setdefault((sum(v[:K]), sum(v[K:])), []).append(w)
    return {s: poly_sum(ws) for s, ws in sorted(parts.items())}


def crossing_oracle(K: int, a: int, b: int) -> FallDistribution:
    """The fall distribution of one cabled crossing, read off the lane level:
    the lumped column of the placement with the first a over and the first b
    under lanes occupied, keyed by c, the balls in the first K lanes of the
    target minus b.  Which placement is read does not matter, as
    ``check_oracle_placement_invariance`` confirms."""
    validate_cable(K, a, b)
    lanes = (1,) * a + (0,) * (K - a) + (1,) * b + (0,) * (K - b)
    return {top - b: w for (top, _), w in _lumped_column(K, lanes).items()}


def check_cabled_formula(K: int) -> CheckReport:
    """Lane-level oracle == the fall distribution the push reads, for every
    (a, b, c) at width K, and that distribution sums to 1 for every (a, b)."""
    report = CheckReport(name=f"cabled-formula K={K}")
    for a in range(K + 1):
        for b in range(K + 1):
            oracle = crossing_oracle(K, a, b)
            dist = fall_distribution(K, a, b)
            for c in range(min(a, K - b) + 1):
                formula = dist.get(c, ZERO)
                report.record(
                    formula == oracle.get(c, ZERO),
                    lambda: (
                        f"a={a} b={b} c={c}: formula {formula} "
                        f"!= oracle {oracle.get(c, ZERO)}"
                    ),
                )
            total = poly_sum(dist.values())
            report.record(
                total == ONE,
                lambda: f"a={a} b={b}: formula distribution sums to {total}",
            )
    return report


def check_oracle_placement_invariance(K: int) -> CheckReport:
    """rho_K is the lumping of the lane level: for each of the 4^K 0/1 lane
    states of one cabled crossing, the lumped column equals the column of
    rho_K(sigma_1) at the state's own group counts (a, b).  So neither the
    placement of the balls nor the push departs from the lane level.  The
    name stays while ``perfbench/layertrace.py`` wraps the function by it."""
    if K > MAX_PLACEMENT_CABLE:
        raise ValueError(
            f"placement enumeration is desk-scale only (K <= {MAX_PLACEMENT_CABLE}), got {K}"
        )
    report = CheckReport(name=f"placement-invariance K={K}")
    pushed = rho_cabled_matrix(BraidWord(2, (1,)), K)
    show = lambda col: "{" + ", ".join(f"{fmt_state(v)}: {w}" for v, w in col.items()) + "}"
    for j in range(4**K):
        lanes = index_state(j, 2 * K, 1)
        a, b = sum(lanes[:K]), sum(lanes[K:])
        got = _lumped_column(K, lanes)
        column = pushed.cols[state_index((a, b), K)]
        expected = dict(sorted((index_state(t, 2, K), w) for t, w in column.items()))
        report.record(
            got == expected,
            lambda: (
                f"lanes {fmt_state(lanes)} (a={a} b={b}): lumped {show(got)} "
                f"!= rho_K {show(expected)}"
            ),
        )
    return report


def check_cabled_braid_relation(n: int, K: int) -> CheckReport:
    """Braid relation and far commutativity for the cabled matrices."""
    matrices_of = lambda words: rho_cabled_batch(words, n, K)
    comparisons = pushed_pairs(braid_pairs(n) + far_pairs(n), matrices_of)
    return matrix_report(f"cabled-braid-relation n={n} K={K}", comparisons, n, K)
