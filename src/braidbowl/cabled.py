"""The cabled representation: every lane becomes K parallel lanes, each
carrying at most one ball, and the state tracks only the per-group counts.

A cabled crossing is ``multiball.crossing`` with another fall distribution:
with a balls in the over group and b in the under group, exactly c balls
fall with probability f(c) = ``falling_probability(K, a, b, c)``.

``crossing_oracle`` recomputes the fall distribution without the closed
formula, by brute-force branch enumeration over the K^2 micro-crossings of
one cabled crossing: upper lanes are swept starting from the side that meets
the under group first, each passing over the under lanes in the order it
meets them, and every pass of a ball over an empty lane branches into fall
(weight 1 - q, the ball stops in that lane) and pass (weight q).  This is an
independent computation path used to validate the formula, and the micro
crossing order and the initial ball placement provably do not matter, which
``check_oracle_placement_invariance`` and the order tests confirm rather
than assume.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .braid import BraidWord
from .matrix import TransitionMatrix
from .multiball import (
    BallState, braid_pairs, crossing, far_pairs, push_columns, record_word_pairs
)
from .qpoly import ONE, ONE_MINUS_Q, Q, QPoly, falling_probability, poly_sum
from .report import CheckReport

FallDistribution = dict[int, QPoly]
MicroOrder = list[tuple[int, int]]


def fall_distribution(K: int, a: int, b: int) -> FallDistribution:
    """Closed-form distribution of the number of falling balls at one
    cabled crossing; keys range over 0..min(a, K-b).  Returns a fresh dict
    on every call."""
    if K < 1:
        raise ValueError(f"cable width must be >= 1, got {K}")
    if not 0 <= a <= K or not 0 <= b <= K:
        raise ValueError(f"need 0 <= a, b <= K, got a={a}, b={b}, K={K}")
    return dict(_fall_items(K, a, b))


@lru_cache(maxsize=None)
def _fall_items(K: int, a: int, b: int) -> tuple[tuple[int, QPoly], ...]:
    """The nonzero (c, f(c)) pairs of ``fall_distribution``, computed once
    per (K, a, b)."""
    terms = ((c, falling_probability(K, a, b, c)) for c in range(min(a, K - b) + 1))
    return tuple((c, p) for c, p in terms if p)


def apply_generator_cabled(
    i: int, s: BallState, K: int
) -> list[tuple[BallState, QPoly]]:
    """Branches of one cabled crossing sigma_i applied to group counts s."""
    return crossing(i, s, lambda a, b: fall_distribution(K, a, b).items())


def rho_cabled_matrix(word: BraidWord, K: int) -> TransitionMatrix:
    """Transition matrix of a word on group-count states, dimension (K+1)^n."""
    if K < 1:
        raise ValueError(f"cable width must be >= 1, got {K}")
    return push_columns(
        word.letters, word.n, K + 1, lambda i, s: apply_generator_cabled(i, s, K)
    )


def sweep_order(K: int) -> MicroOrder:
    """Default micro-crossing linearization: upper lanes from the side that
    reaches the under group first (index K-1), each crossing under lanes in
    the order met (index 0 first)."""
    return [(p, l) for p in reversed(range(K)) for l in range(K)]


def crossing_oracle(
    K: int,
    a: int,
    b: int,
    *,
    upper: tuple[bool, ...] | None = None,
    lower: tuple[bool, ...] | None = None,
    order: MicroOrder | None = None,
) -> FallDistribution:
    """Lane-level enumeration of one cabled crossing.

    ``upper``/``lower`` fix which lanes start occupied (default: the first a
    upper and first b under lanes); ``order`` fixes the micro-crossing
    linearization.  Both are exposed so the invariance checks can vary them.
    """
    if K < 1:
        raise ValueError(f"cable width must be >= 1, got {K}")
    if not 0 <= a <= K or not 0 <= b <= K:
        raise ValueError(f"need 0 <= a, b <= K, got a={a}, b={b}, K={K}")
    if upper is None:
        upper = tuple(p < a for p in range(K))
    if lower is None:
        lower = tuple(l < b for l in range(K))
    if sum(upper) != a or sum(lower) != b or len(upper) != K or len(lower) != K:
        raise ValueError("placement masks must match K, a, b")
    if order is None:
        order = sweep_order(K)
    if sorted(order) != sorted((p, l) for p in range(K) for l in range(K)):
        raise ValueError("order must linearize all K^2 micro-crossings exactly once")

    # Branch states: (upper occupancy, lower occupancy) -> accumulated weight.
    states: dict[tuple[tuple[bool, ...], tuple[bool, ...]], QPoly] = {
        (upper, lower): ONE
    }
    for p, l in order:
        nxt: dict[tuple[tuple[bool, ...], tuple[bool, ...]], QPoly] = {}

        def accumulate(key, w):
            acc = nxt.get(key)
            total = w if acc is None else acc + w
            if total:
                nxt[key] = total
            elif key in nxt:
                del nxt[key]

        for (up, lo), w in states.items():
            if up[p] and not lo[l]:
                fallen_up = up[:p] + (False,) + up[p + 1 :]
                fallen_lo = lo[:l] + (True,) + lo[l + 1 :]
                accumulate((fallen_up, fallen_lo), w * ONE_MINUS_Q)
                accumulate((up, lo), w * Q)
            else:
                accumulate((up, lo), w)
        states = nxt

    dist: FallDistribution = {}
    for (up, _lo), w in states.items():
        c = a - sum(up)
        acc = dist.get(c)
        dist[c] = w if acc is None else acc + w
    return {c: w for c, w in sorted(dist.items()) if w}


def check_cabled_formula(K: int) -> CheckReport:
    """Closed formula == lane-level oracle for every (a, b, c) at width K."""
    report = CheckReport(name=f"cabled-formula K={K}")
    for a in range(K + 1):
        for b in range(K + 1):
            oracle = crossing_oracle(K, a, b)
            for c in range(0, min(a, K - b) + 1):
                formula = falling_probability(K, a, b, c)
                report.record(
                    formula == oracle.get(c, QPoly()),
                    lambda a=a, b=b, c=c, formula=formula, oracle=oracle: (
                        f"a={a} b={b} c={c}: formula {formula} "
                        f"!= oracle {oracle.get(c, QPoly())}"
                    ),
                )
            report.record(
                poly_sum(oracle.values()) == ONE,
                lambda a=a, b=b, oracle=oracle: (
                    f"a={a} b={b}: oracle distribution sums to "
                    f"{poly_sum(oracle.values())}"
                ),
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
