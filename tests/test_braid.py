"""Braid words, permutations, minimal braids, and the alternating window sums."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import inversions_perm, permutation_of

from braidbowl.braid import (
    BraidWord,
    HeckeElement,
    HeckeProduct,
    minimal_braid,
    parse_word,
    specht_element,
    specht_half,
)
from braidbowl.matrix import Matrix
from braidbowl.multiball import rho_element
from braidbowl.qpoly import ONE, Q, QPoly


def word(n, *letters):
    return BraidWord(n, letters)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


class TestParsing:
    def test_examples(self):
        assert parse_word("1 2 1", 3) == word(3, 1, 2, 1)
        assert parse_word("", 3) == word(3)
        assert parse_word("  2   1 ", 3) == word(3, 2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parse_word("3", 3)
        with pytest.raises(ValueError):
            parse_word("0", 3)

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_word("1 x", 3)


class TestPermutations:
    def test_examples(self):
        assert permutation_of(word(3)) == (1, 2, 3)
        assert permutation_of(word(3, 1)) == (2, 1, 3)
        assert permutation_of(word(3, 1, 2, 1)) == (3, 2, 1)

    def test_sign(self):
        # The sign of w is the parity of its minimal braid's length.
        assert len(minimal_braid((1, 2, 3))) % 2 == 0
        assert len(minimal_braid((2, 1, 3))) % 2 == 1
        assert len(minimal_braid((3, 2, 1))) % 2 == 1

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=40)
    def test_concatenation_composes(self, n, data):
        u = word(n, *data.draw(st.lists(st.integers(1, n - 1), max_size=6)))
        v = word(n, *data.draw(st.lists(st.integers(1, n - 1), max_size=6)))
        wu, wv = permutation_of(u), permutation_of(v)
        composed = tuple(wv[wu[i] - 1] for i in range(n))
        assert permutation_of(BraidWord(n, u.letters + v.letters)) == composed


class TestMinimalBraid:
    def test_examples(self):
        assert minimal_braid((1, 2, 3)) == word(3)
        assert minimal_braid((2, 1, 3)) == word(3, 1)
        assert minimal_braid((3, 2, 1)) == word(3, 1, 2, 1)

    def test_exhaustive_search_oracle(self):
        # All positive length-3 words on 3 strands realizing the reversal.
        target = (3, 2, 1)
        realizations = [
            w
            for letters in itertools.product((1, 2), repeat=3)
            if permutation_of(w := word(3, *letters)) == target
        ]
        assert word(3, 1, 2, 1) in realizations
        assert minimal_braid(target) in realizations

    @pytest.mark.parametrize("n", range(1, 7))
    def test_length_and_permutation(self, n):
        for w in all_perms(n):
            b = minimal_braid(w)
            assert len(b) == inversions_perm(w)
            assert permutation_of(b) == w

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            minimal_braid((1, 1, 3))


class TestHeckeElement:
    def test_zero_coefficients_dropped(self):
        x = HeckeElement(2, ((word(2), ONE), (word(2), -ONE)))
        assert rho_element(x, 2) == Matrix(9)

    def test_merges_terms(self):
        twice = HeckeElement(2, ((word(2, 1), ONE), (word(2, 1), ONE)))
        doubled = HeckeElement(2, ((word(2, 1), QPoly((2,))),))
        assert rho_element(twice, 2) == rho_element(doubled, 2)

    def test_mixed_strand_counts_rejected(self):
        with pytest.raises(ValueError):
            HeckeElement(2, ((word(3, 1), ONE),))


class TestHeckeProduct:
    def test_terms_are_the_expansion_in_product_order(self):
        left = HeckeElement(3, ((word(3), ONE), (word(3, 1), -ONE)))
        right = HeckeElement(3, ((word(3), Q), (word(3, 2, 1), QPoly((2,)))))
        assert HeckeProduct(3, (left, right)).terms == (
            (word(3), Q),
            (word(3, 2, 1), QPoly((2,))),
            (word(3, 1), -Q),
            (word(3, 1, 2, 1), QPoly((-2,))),
        )

    def test_mixed_strand_counts_and_no_factors_rejected(self):
        with pytest.raises(ValueError):
            HeckeProduct(2, (HeckeElement(3),))
        with pytest.raises(ValueError):
            HeckeProduct(2, ())


class TestSpechtElements:
    def test_three_strand_window(self):
        x = specht_element(3, 1, 1)
        expected = {
            word(3): ONE,
            word(3, 1): -ONE,
            word(3, 2): -ONE,
            word(3, 1, 2): ONE,
            word(3, 2, 1): ONE,
            word(3, 1, 2, 1): -ONE,
        }
        assert dict(x.terms) == expected

    def test_shifted_window(self):
        x = specht_element(4, 1, 2)
        shifted = {
            word(4): ONE,
            word(4, 2): -ONE,
            word(4, 3): -ONE,
            word(4, 2, 3): ONE,
            word(4, 3, 2): ONE,
            word(4, 2, 3, 2): -ONE,
        }
        assert dict(x.terms) == shifted

    @pytest.mark.parametrize("n,N,k", [(3, 1, 1), (4, 1, 2), (4, 2, 1), (5, 2, 2), (6, 4, 1)])
    def test_term_count_and_signs(self, n, N, k):
        import math

        x = specht_element(n, N, k)
        assert len(x.terms) == math.factorial(N + 2)
        # The sign oracle counts inversions, not the minimal braid's length.
        for w, c in x.terms:
            assert c == (-1) ** inversions_perm(permutation_of(w)) * ONE
        coeffs = [c for _, c in x.terms]
        # signed sum at q=1 cancels for N >= 1
        assert sum(c.eval_at(1) for c in coeffs) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            specht_element(3, 2, 1)  # n < N + 2
        with pytest.raises(ValueError):
            specht_element(3, 1, 2)  # k out of range

    def test_half_examples(self):
        h1 = specht_half(3, 1, 1, 1)
        assert dict(h1.terms) == {
            word(3): ONE,
            word(3, 2): -ONE,
            word(3, 2, 1): ONE,
        }
        h2 = specht_half(3, 1, 1, 2)
        assert dict(h2.terms) == {
            word(3): ONE,
            word(3, 1): -ONE,
            word(3, 1, 2): ONE,
        }

    def test_half_window_bound(self):
        with pytest.raises(ValueError):
            specht_half(3, 1, 1, 3)

    def test_halves_partition_by_sortedness(self):
        # every window permutation lands in exactly one of the two halves of
        # the defining sum for each i
        import math

        for i in (1, 2):
            h = specht_half(3, 1, 1, i)
            assert len(h.terms) == math.factorial(3) // 2
