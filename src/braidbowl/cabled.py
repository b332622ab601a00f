"""The cabled representation: every lane becomes K parallel lanes, each
carrying at most one ball, and the state tracks only the per-group counts.

The cabled model is the single-lane model with another fall distribution:
with a balls in the over group and b in the under group, exactly c balls
fall with probability f(c) = ``falling_probability(K, a, b, c)``, and
``multiball.push_columns`` moves them.  A push asks for each pair (a, b)
once, so ``fall_distribution`` keeps no cache.

``cable_word`` makes the cabling literal: it replaces every lane by K
single-ball lanes and every crossing by its K^2 micro-crossings, so the lane
level of a cabled word is the single-lane (N=1) model on the cabled word.
``crossing_oracle`` reads the fall distribution off that model: it sums the
N=1 column of one 0/1 lane placement by the number of balls that fell.  It
shares no code with the closed formula, which ``check_cabled_formula``
compares it against, and ``check_oracle_placement_invariance`` confirms
rather than assumes that the initial choice of occupied lanes does not
matter.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .braid import BraidWord
from .matrix import TransitionMatrix
from .multiball import (
    braid_pairs, far_pairs, index_state, push_columns, record_word_pairs, rho_matrix,
    state_index,
)
from .qpoly import ONE, QPoly, falling_probability, poly_sum, validate_cable
from .report import CheckReport

FallDistribution = dict[int, QPoly]


def fall_distribution(K: int, a: int, b: int) -> FallDistribution:
    """Closed-form distribution of the number of falling balls at one
    cabled crossing: the nonzero f(c) for c in 0..min(a, K-b).  Returns a
    fresh dict on every call."""
    validate_cable(K, a, b)
    terms = ((c, falling_probability(K, a, b, c)) for c in range(min(a, K - b) + 1))
    return {c: p for c, p in terms if p}


def apply_generator_cabled(a: int, b: int, K: int):
    """The cabled fall distribution as the push reads it.  The push calls it
    by this module-global name, which ``perfbench/layertrace.py`` wraps to
    count branches, so the name stays until the benchmark is revised."""
    return fall_distribution(K, a, b).items()


def rho_cabled_matrix(word: BraidWord, K: int) -> TransitionMatrix:
    """Transition matrix of a word on group-count states, dimension (K+1)^n."""
    validate_cable(K)
    return push_columns(
        ((word, ONE),), word.n, K + 1, lambda a, b: apply_generator_cabled(a, b, K)
    )


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


def crossing_oracle(
    K: int,
    a: int,
    b: int,
    *,
    upper: tuple[bool, ...] | None = None,
    lower: tuple[bool, ...] | None = None,
) -> FallDistribution:
    """The fall distribution of one cabled crossing, read off the lane level.

    ``upper``/``lower`` fix which of the K lanes of the over and under group
    start occupied (default: the first a and the first b).  The column of that
    0/1 lane state in ``_lane_matrix(K)`` is summed by c, the number of balls
    in the first K lanes of the target minus b.
    """
    validate_cable(K, a, b)
    if upper is None:
        upper = tuple(p < a for p in range(K))
    if lower is None:
        lower = tuple(l < b for l in range(K))
    if sum(upper) != a or sum(lower) != b or len(upper) != K or len(lower) != K:
        raise ValueError("placement masks must match K, a, b")

    column = _lane_matrix(K).cols[state_index(upper + lower, 1)]
    dist: dict[int, list[QPoly]] = {}
    for t, w in column.items():
        dist.setdefault(sum(index_state(t, 2 * K, 1)[:K]) - b, []).append(w)
    return {c: poly_sum(ws) for c, ws in sorted(dist.items())}


def check_cabled_formula(K: int) -> CheckReport:
    """Closed formula == lane-level oracle for every (a, b, c) at width K, and
    the formula's distribution sums to 1 for every (a, b)."""
    report = CheckReport(name=f"cabled-formula K={K}")
    for a in range(K + 1):
        for b in range(K + 1):
            oracle = crossing_oracle(K, a, b)
            formulas = [falling_probability(K, a, b, c) for c in range(min(a, K - b) + 1)]
            for c, formula in enumerate(formulas):
                report.record(
                    formula == oracle.get(c, QPoly()),
                    lambda a=a, b=b, c=c, formula=formula, oracle=oracle: (
                        f"a={a} b={b} c={c}: formula {formula} "
                        f"!= oracle {oracle.get(c, QPoly())}"
                    ),
                )
            total = poly_sum(formulas)
            report.record(
                total == ONE,
                lambda a=a, b=b, total=total: f"a={a} b={b}: formula distribution sums to {total}",
            )
    return report


def check_oracle_placement_invariance(K: int, a: int, b: int) -> CheckReport:
    """Every initial choice of occupied lanes gives the same distribution."""
    if K > 4:
        raise ValueError(f"placement enumeration is desk-scale only (K <= 4), got {K}")
    report = CheckReport(name=f"placement-invariance K={K} a={a} b={b}")
    baseline = crossing_oracle(K, a, b)
    for up_occ in itertools.combinations(range(K), a):
        for lo_occ in itertools.combinations(range(K), b):
            upper = tuple(p in up_occ for p in range(K))
            lower = tuple(l in lo_occ for l in range(K))
            got = crossing_oracle(K, a, b, upper=upper, lower=lower)
            report.record(
                got == baseline,
                lambda upper=upper, lower=lower, got=got: (
                    f"placement upper={upper} lower={lower} gives {got} "
                    f"!= baseline {baseline}"
                ),
            )
    return report


def check_cabled_braid_relation(n: int, K: int) -> CheckReport:
    """Braid relation and far commutativity for the cabled matrices."""
    report = CheckReport(name=f"cabled-braid-relation n={n} K={K}")
    pairs = braid_pairs(n) + far_pairs(n)
    return record_word_pairs(report, pairs, lambda w: rho_cabled_matrix(w, K), n, K)
