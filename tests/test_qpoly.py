"""Ring arithmetic, q-combinatorics, and the falling-probability formula."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidbowl.qpoly import (
    ONE,
    ONE_MINUS_Q,
    Q,
    ZERO,
    QPoly,
    digit_width,
    falling_probability,
    fraction_to_json,
    gauss_binom,
    inversions_binary,
    inversions_perm,
    pack,
    poly_sum,
    q_factorial,
    quantum_int,
    unpack,
)

polys = st.builds(QPoly, st.lists(st.integers(-9, 9), max_size=6).map(tuple))


# --- independent counting oracles (enumeration, no q-Pascal, no products) ---

def qfact_by_inversions(k: int) -> QPoly:
    return poly_sum(
        QPoly.monomial(inversions_perm(w))
        for w in itertools.permutations(range(1, k + 1))
    )


def gauss_by_inversions(k: int, r: int) -> QPoly:
    return poly_sum(
        QPoly.monomial(inversions_binary(s))
        for s in itertools.product((0, 1), repeat=k)
        if sum(s) == r
    )


class TestRing:
    def test_additive_cancellation(self):
        assert ONE_MINUS_Q + Q == ONE

    def test_difference_of_squares(self):
        assert ONE_MINUS_Q * (ONE + Q) == QPoly.of(1, 0, -1)

    def test_absorbing_zero(self):
        assert QPoly.of(3, -2, 5) * ZERO == ZERO

    def test_canonical_trailing_zeros(self):
        assert QPoly((1, 0, 0)) == QPoly((1,))
        assert QPoly((0, 0)).coeffs == ()
        assert not QPoly((0,))

    def test_int_mixing(self):
        assert 1 - Q == ONE_MINUS_Q
        assert 2 * Q == QPoly.of(0, 2)
        assert Q * (-3) == QPoly.of(0, -3)

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a + (-a) == ZERO

    @given(st.lists(polys, max_size=6))
    @settings(max_examples=60)
    def test_poly_sum_is_repeated_addition(self, ps):
        total = ZERO
        for p in ps:
            total = total + p
        assert poly_sum(ps) == total
        assert poly_sum(iter(ps)) == total


class TestEval:
    def test_examples(self):
        assert (Q * Q).eval_at(Fraction(1, 2)) == Fraction(1, 4)
        assert ONE_MINUS_Q.eval_at(Fraction(1)) == 0
        assert QPoly.of(1, 1, 1).eval_at(Fraction(2)) == 7

    @given(polys, polys, st.fractions(max_denominator=20))
    @settings(max_examples=60)
    def test_eval_is_hom(self, a, b, x):
        assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


class TestQuantumCombinatorics:
    def test_quantum_int(self):
        assert quantum_int(0) == ZERO
        assert quantum_int(1) == ONE
        assert quantum_int(3) == QPoly.of(1, 1, 1)

    def test_quantum_int_is_formal_quotient(self):
        # (1 - q) [k] = 1 - q^k
        for k in range(8):
            assert ONE_MINUS_Q * quantum_int(k) == ONE - QPoly.monomial(k)

    def test_q_factorial(self):
        assert q_factorial(0) == ONE
        assert q_factorial(2) == QPoly.of(1, 1)
        assert q_factorial(3) == QPoly.of(1, 2, 2, 1)

    def test_q_factorial_counts_inversions(self):
        for k in range(5):
            assert q_factorial(k) == qfact_by_inversions(k)

    def test_gauss_binom_edges(self):
        for k in range(6):
            assert gauss_binom(k, 0) == ONE
            assert gauss_binom(k, k) == ONE
        assert gauss_binom(2, 1) == QPoly.of(1, 1)
        assert gauss_binom(4, 2) == QPoly.of(1, 1, 2, 1, 1)
        assert gauss_binom(3, -1) == ZERO
        assert gauss_binom(3, 4) == ZERO

    def test_gauss_binom_counts_inversions(self):
        for k in range(6):
            for r in range(k + 1):
                assert gauss_binom(k, r) == gauss_by_inversions(k, r)

    def test_gauss_binom_symmetry(self):
        for k in range(9):
            for r in range(k + 1):
                assert gauss_binom(k, r) == gauss_binom(k, k - r)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            quantum_int(-1)
        with pytest.raises(ValueError):
            q_factorial(-2)
        with pytest.raises(ValueError):
            gauss_binom(-1, 0)


class TestInversions:
    def test_perm(self):
        assert inversions_perm((1, 2, 3)) == 0
        assert inversions_perm((3, 2, 1)) == 3
        assert inversions_perm((2, 1, 3)) == 1

    def test_binary(self):
        assert inversions_binary((0, 0, 1)) == 0
        assert inversions_binary((1, 0, 1, 0)) == 3
        with pytest.raises(ValueError):
            inversions_binary((0, 2))


class TestFallingProbability:
    def test_single_lane(self):
        assert falling_probability(1, 1, 0, 1) == ONE_MINUS_Q
        assert falling_probability(1, 1, 0, 0) == Q

    def test_width_two(self):
        expect = Q * ONE_MINUS_Q * (ONE + Q) ** 2
        assert falling_probability(2, 2, 0, 1) == expect
        assert falling_probability(2, 1, 1, 1) == ONE_MINUS_Q

    def test_vanishing_out_of_range(self):
        assert falling_probability(2, 1, 0, 2) == ZERO  # c > a
        assert falling_probability(2, 2, 1, 2) == ZERO  # c > K - b

    def test_preconditions(self):
        with pytest.raises(ValueError):
            falling_probability(2, 3, 0, 0)
        with pytest.raises(ValueError):
            falling_probability(2, 0, -1, 0)
        with pytest.raises(ValueError):
            falling_probability(2, 0, 0, -1)
        with pytest.raises(ValueError):
            falling_probability(0, 0, 0, 0)

    def test_normalization(self):
        for K in range(1, 6):
            for a in range(K + 1):
                for b in range(K + 1):
                    total = poly_sum(
                        falling_probability(K, a, b, c) for c in range(K + 1)
                    )
                    assert total == ONE

    def test_specializations(self):
        for K in range(1, 5):
            for a in range(K + 1):
                for b in range(K + 1):
                    cmax = min(a, K - b)
                    for c in range(K + 1):
                        at1 = falling_probability(K, a, b, c).eval_at(Fraction(1))
                        assert at1 == (1 if c == 0 else 0)
                        at0 = falling_probability(K, a, b, c).eval_at(Fraction(0))
                        assert at0 == (1 if c == cmax else 0)


class TestJson:
    def test_poly_roundtrip(self):
        p = QPoly.of(1, -2, 0, 3)
        assert QPoly(tuple(p.to_json()["coeffs"])) == p
        assert p.to_json() == {"coeffs": [1, -2, 0, 3]}

    def test_fraction_roundtrip(self):
        x = Fraction(-3, 7)
        assert fraction_to_json(x) == {"num": -3, "den": 7}

    @given(polys)
    @settings(max_examples=40)
    def test_poly_roundtrip_property(self, p):
        assert QPoly(tuple(p.to_json()["coeffs"])) == p

    @pytest.mark.parametrize("coeffs", [[1.7, "2"], [1, 2.0], ["3"], [True], [1, None]])
    def test_from_json_rejects_non_int_coefficients(self, coeffs):
        with pytest.raises(TypeError):
            QPoly(tuple(coeffs))


def test_constructor_rejects_non_int_coefficients():
    with pytest.raises(TypeError):
        QPoly((1.5,))
    with pytest.raises(TypeError):
        QPoly.of(1, Fraction(1, 2))


class TestPackedCodec:
    WIDTHS = (8, 16, 24, 32, 64, 72)

    @given(st.sampled_from(WIDTHS), st.data())
    @settings(max_examples=200)
    def test_round_trip_up_to_the_digit_bound(self, width, data):
        top = 2 ** (width - 1) - 1
        extreme = st.sampled_from([top, -top, 1, -1, 0])
        coeffs = data.draw(st.lists(st.integers(-top, top) | extreme, max_size=8))
        p = QPoly(tuple(coeffs))
        assert unpack(pack(p, width), width) == p

    @pytest.mark.parametrize("width", WIDTHS)
    def test_round_trip_of_extreme_digits(self, width):
        top = 2 ** (width - 1) - 1
        for coeffs in [(top,), (-top,), (top, -top) * 3, (-top, top, -top), (0, 0, -1), (-1,) * 5]:
            assert unpack(pack(QPoly(coeffs), width), width) == QPoly(coeffs)

    def test_zero_packs_to_zero(self):
        assert pack(ZERO, 8) == 0
        assert unpack(0, 8) == ZERO

    def test_packed_arithmetic_is_polynomial_arithmetic(self):
        a, b = QPoly.of(3, -2, 1), QPoly.of(-1, 0, 5)
        assert unpack(pack(a, 16) * pack(b, 16) + pack(a, 16), 16) == a * b + a

    # Every width digit_width may return, in increasing order.
    WIDTH_STEPS = [8, 16, 32, 64] + list(range(72, 272, 8))

    def test_width_is_the_smallest_step_with_a_sign_bit_above_the_bound(self):
        for k in range(200):
            for bound in (2**k - 1, 2**k, 2**k + 1):
                width = digit_width(bound)
                assert 2 ** (width - 1) > bound
                step = self.WIDTH_STEPS.index(width)
                assert step == 0 or 2 ** (self.WIDTH_STEPS[step - 1] - 1) <= bound

    def test_width_steps_up_at_the_bound_it_cannot_hold(self):
        for width, wider in zip(self.WIDTH_STEPS, self.WIDTH_STEPS[1:]):
            assert digit_width(2 ** (width - 1) - 1) == width
            assert digit_width(2 ** (width - 1)) == wider
