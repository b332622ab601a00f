"""Acceptance suite: the exact identities the library must satisfy, one test
per criterion, each printing a PASS/FAIL line (run with -s to see them all).

Everything here is an exact polynomial or exact rational equality; there are
no tolerances anywhere.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from lane_reference import reference
from oracles import entries_sorted, gauss_by_inversions, q_factorial, qfact_by_inversions

from braidbowl.braid import BraidWord, parse_word
from braidbowl.cabled import (
    check_cabled_braid_relation,
    check_cabled_formula,
    check_oracle_placement_invariance,
    crossing_oracle,
    falling_probability,
    gauss_binom,
    rho_cabled_matrix,
)
from braidbowl.matrix import Matrix
from braidbowl.multiball import (
    all_states,
    check_braid_relation,
    check_far_commutativity,
    check_hecke,
    check_inverse,
    check_specht,
    index_state,
    rho_matrix,
    state_index,
)
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly, poly_sum


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def column_states(m, u, n, N):
    col = m.cols.get(state_index(u, N), {})
    return {index_state(i, n, N): v for i, v in col.items()}


def test_criterion_1_golden_values():
    with criterion("1 golden-values"):
        beta = parse_word("1 2 1", 3)
        m1 = rho_matrix(beta, 1)
        assert column_states(m1, (1, 0, 0), 3, 1) == {
            (0, 0, 1): QPoly.monomial(2),
            (0, 1, 0): Q - QPoly.monomial(2),
            (1, 0, 0): ONE_MINUS_Q,
        }
        assert column_states(m1, (1, 1, 0), 3, 1) == {
            (0, 1, 1): QPoly.monomial(2),
            (1, 0, 1): Q - QPoly.monomial(2),
            (1, 1, 0): ONE_MINUS_Q,
        }
        m2 = rho_matrix(beta, 2)
        assert m2.cols[state_index((2, 1, 0), 2)][state_index((0, 1, 2), 2)] == QPoly.monomial(3)


def test_criterion_2_well_definedness():
    with criterion("2 well-definedness"):
        for n, N in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
            assert check_braid_relation(n, N).passed
        for N in (1, 2):
            assert check_far_commutativity(4, N).passed


def test_criterion_3_hecke_relation():
    with criterion("3 hecke-relation"):
        for n in (2, 3, 4):
            for N in (1, 2):
                assert check_hecke(n, N).passed
        assert check_hecke(2, 3).passed


def test_criterion_4_specht_kernel():
    with criterion("4 specht-kernel"):
        for n, N, k in [(3, 1, 1), (4, 1, 1), (4, 1, 2), (4, 2, 1)]:
            report = check_specht(n, N, k)
            assert report.passed, report.failures


def test_criterion_5_inverse_formula():
    with criterion("5 inverse-formula"):
        for x in (Fraction(1, 2), Fraction(2), Fraction(-1)):
            for n in (2, 3):
                for N in (1, 2):
                    assert check_inverse(n, N, x).passed


def test_criterion_6_cabled_well_definedness():
    with criterion("6 cabled-well-definedness"):
        for K in (1, 2, 3):
            assert check_cabled_braid_relation(3, K).passed
        for n in (1, 2, 3):
            for length in range(5):
                for letters in itertools.product(range(1, n), repeat=length):
                    word = BraidWord(n, letters)
                    assert rho_cabled_matrix(word, 1) == rho_matrix(word, 1)


def test_criterion_7_falling_probability_formula():
    with criterion("7 falling-probability-formula"):
        for K in (1, 2, 3):
            assert check_cabled_formula(K).passed
            assert check_oracle_placement_invariance(K).passed
            lex = [(p, l) for p in range(K) for l in range(K)]
            geometric = sorted(lex, key=lambda pl: (pl[1] - pl[0], pl[0]))
            for a in range(K + 1):
                for b in range(K + 1):
                    base = crossing_oracle(K, a, b)
                    assert reference(K, a, b, order=lex) == base
                    assert reference(K, a, b, order=geometric) == base
                    for c, p in base.items():
                        assert falling_probability(K, a, b, c) == p


def test_criterion_8_property_suites():
    with criterion("8 property-suites"):
        rng = random.Random(20260810)
        for _ in range(100):
            n = rng.randint(2, 4)
            N = rng.randint(1, 3)
            length = rng.randint(0, 8)
            letters = tuple(rng.randint(1, n - 1) for _ in range(length))
            m = rho_matrix(BraidWord(n, letters), N)

            for j in range(m.dim):
                assert poly_sum(m.cols.get(j, {}).values()) == ONE
            for i, j, _v in entries_sorted(m):
                assert sum(index_state(i, n, N)) == sum(index_state(j, n, N))

            def run(u, swap_when):
                state = list(u)
                for i in letters:
                    a, b = state[i - 1], state[i]
                    if swap_when(a, b):
                        state[i - 1], state[i] = b, a
                return tuple(state)

            at1 = m.eval_at(Fraction(1))
            at0 = m.eval_at(Fraction(0))
            for u in all_states(n, N):
                j = state_index(u, N)
                assert at1.cols.get(j, {}) == {
                    state_index(run(u, lambda a, b: True), N): 1
                }
                assert at0.cols.get(j, {}) == {
                    state_index(run(u, lambda a, b: a <= b), N): 1
                }


def test_criterion_9_combinatorial_identities():
    with criterion("9 combinatorial-identities"):
        for k in range(7):
            assert q_factorial(k) == qfact_by_inversions(k)
        for k in range(9):
            for r in range(k + 1):
                assert gauss_binom(k, r) == gauss_by_inversions(k, r)
