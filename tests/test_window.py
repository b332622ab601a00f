"""The alternating window elements as products of coset ladders, checked
against the direct sum over all (N+2)! window permutations
(``oracles.direct_sum``): term by term, and after the push at N' = N, where
x_k dies, and at N' = N + 1, where it does not."""

import math

import pytest
from oracles import (
    difference,
    direct_sum,
    identity,
    inversions_perm,
    permutation_of,
    scale,
    window_permutations,
)

from braidbowl import braid, multiball
from braidbowl.braid import BraidWord, HeckeElement, HeckeProduct, specht_element, specht_half
from braidbowl.matrix import Matrix
from braidbowl.multiball import check_specht, rho_element, rho_matrix
from braidbowl.qpoly import ONE, Q

# Every window (n, N, k) with N + 2 <= 5 strands and n <= 6.
WINDOWS = [
    (n, N, k) for n in range(3, 7) for N in range(1, min(3, n - 2) + 1) for k in range(1, n - N)
]


def elements(n, N, k):
    """(i, factored element): x_k for i = None, then half_i for each i."""
    yield None, specht_element(n, N, k)
    for i in range(k, k + N + 1):
        yield i, specht_half(n, N, k, i)


@pytest.mark.parametrize("n, N, k", WINDOWS)
def test_expansion_hits_each_window_permutation_once_with_its_sign(n, N, k):
    for i, x in elements(n, N, k):
        perms = [w for w in window_permutations(n, N, k) if i is None or w[i - 1] < w[i]]
        expanded = {}
        for word, c in x.terms:
            w = permutation_of(word)
            assert w not in expanded
            # A reduced word: a ladder product never cancels a crossing.
            assert len(word) == inversions_perm(w)
            expanded[w] = c
        assert expanded == {w: (-1) ** inversions_perm(w) * ONE for w in perms}
        assert len(x.terms) == math.factorial(N + 2) // (1 if i is None else 2)


# Every window at N' = N and at N' = N + 1, up to dimension (N'+1)^n = 4096.
# The two windows of 5 strands in 6 at N' = 4, dimension 15625, took 84 s
# between them on a 2-vCPU VM, most of it in the direct sums, so they are
# left out.
PUSHED = [
    (n, N, k, extra)
    for n, N, k in WINDOWS
    for extra in (0, 1)
    if (N + extra + 1) ** n <= 4096
]


@pytest.mark.parametrize("n, N, k, extra", PUSHED)
def test_factored_push_matches_the_push_of_the_direct_sum(n, N, k, extra):
    for i, x in elements(n, N, k):
        expected = rho_element(direct_sum(n, N, k, i), N + extra)
        assert rho_element(x, N + extra) == expected
        # At N' = N + 1 no element is killed, so the comparison is not vacuous.
        assert (expected == Matrix(expected.dim)) == (i is None and not extra)


@pytest.mark.parametrize("n, N, k", [(4, 2, 1), (5, 2, 1), (6, 2, 1)])
def test_the_pushed_factorization_matches_the_matrix_product(monkeypatch, n, N, k):
    # check_specht pushes, in one batch of (left, right) pairs, x_k and the
    # zero it is compared with, then for each i, x_k and (1 - sigma_i) half_i,
    # and sigma_i x_k and (-q) x_k.
    # Its batch, pushed again at N' = N and at N' = N + 1, where nothing is
    # killed, must match the QPoly products that it replaced:
    # rho(half_i) @ (I - rho(sigma_i)), rho(x_k) @ rho(sigma_i) and
    # -q rho(x_k).
    batches, original = [], multiball.rho_batch
    spy = lambda xs, n, N: batches.append(list(xs)) or original(xs, n, N)
    monkeypatch.setattr(multiball, "rho_batch", spy)
    assert check_specht(n, N, k).passed
    (xs,) = batches
    window = range(k, k + N + 1)
    x = specht_element(n, N, k)
    one_minus = lambda i: HeckeElement(n, ((BraidWord(n), ONE), (BraidWord(n, (i,)), -ONE)))
    times = lambda term: HeckeProduct(n, (HeckeElement(n, (term,)), *x.factors))
    assert xs == [x, HeckeElement(n)] + [
        side
        for i in window
        for side in (
            x,
            HeckeProduct(n, (one_minus(i), *specht_half(n, N, k, i).factors)),
            times((BraidWord(n, (i,)), ONE)),
            times((BraidWord(n), -Q)),
        )
    ]
    for extra in (0, 1):
        pushed = list(original(xs, n, N + extra))
        rho_x, zero = pushed[:2]
        ident = identity(rho_x.dim)
        assert zero == Matrix(rho_x.dim)
        for t, i in enumerate(window):
            again, product, times_sigma, minus_q = pushed[2 + 4 * t : 6 + 4 * t]
            gen = rho_matrix(BraidWord(n, (i,)), N + extra)
            half = rho_element(specht_half(n, N, k, i), N + extra)
            expected = half @ difference(ident, gen)
            assert again is rho_x
            assert product == expected == rho_x
            assert (expected == Matrix(expected.dim)) == (not extra)
            if extra:
                assert times_sigma == rho_x @ gen
                assert minus_q == scale(rho_x, -Q) != Matrix(rho_x.dim)


def test_a_flipped_ladder_term_fails_the_kernel_first(monkeypatch):
    # Seeded fault: the longest term of the last ladder of x_1 at (4,2,1),
    # T(3, 2, 1), gets the wrong sign.  The halves' ladders are left alone.
    original = braid._ladder

    def flipped(n, start, stop):
        ladder = original(n, start, stop)
        if (start, stop) != (4, 1):
            return ladder
        (word, c), *rest = reversed(ladder.terms)
        assert word.letters == (3, 2, 1)
        return HeckeElement(n, (*reversed(rest), (word, -c)))

    assert check_specht(4, 2, 1).passed
    monkeypatch.setattr(braid, "_ladder", flipped)
    report = check_specht(4, 2, 1)
    assert not report.passed
    assert report.failures[0].startswith("rho(x_1): ")


def test_a_flipped_term_of_half_k_fails_its_factorization(monkeypatch):
    # Seeded fault: at i = k the longest term of the last ladder of half_1 at
    # (4,2,1), T(3, 2, 1), gets the wrong sign, so (1 - sigma_1) half_1 no
    # longer has the factor lists of x_1.  The push must build it rather than
    # share x_1's matrix, and x_1 itself still dies.
    original = multiball.specht_half

    def flipped(n, N, k, i):
        half = original(n, N, k, i)
        if i != k:
            return half
        *ladders, last = half.factors
        (word, c), *rest = reversed(last.terms)
        assert word.letters == (3, 2, 1)
        return HeckeProduct(n, (*ladders, HeckeElement(n, (*reversed(rest), (word, -c)))))

    assert check_specht(4, 2, 1).passed
    monkeypatch.setattr(multiball, "specht_half", flipped)
    report = check_specht(4, 2, 1)
    assert not report.passed
    assert report.failures[0].startswith("rho(x_1) = rho(half_1)(I - sigma_1): ")
