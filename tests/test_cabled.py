"""The cabled representation, its lane-level oracle, and the lumping of the
single-lane model on the cabled word onto group counts."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lane_reference import reference, sweep_order
from oracles import (
    column_sum_failure,
    entries_sorted,
    falling_probability_by_factorials,
    gauss_by_inversions,
    identity,
    power,
    q_factorial,
    qfact_by_inversions,
)

import braidbowl.cabled as cabled
from braidbowl.braid import BraidWord
from braidbowl.cabled import (
    apply_generator_cabled,
    cable_word,
    check_cabled_braid_relation,
    check_cabled_formula,
    check_oracle_placement_invariance,
    crossing_oracle,
    fall_distribution,
    falling_probability,
    gauss_binom,
    rho_cabled_batch,
    rho_cabled_matrix,
)
from braidbowl.cli import MAX_CABLE
from braidbowl.multiball import (
    index_state, matrix_report, pushed_pairs, rho_matrix, state_index,
)
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly, poly_sum
from braidbowl.report import MAX_FAILURES


def all_words(n, max_len):
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, n), repeat=length):
            yield BraidWord(n, letters)


class TestCabledCrossing:
    """The cabled fall distribution as the push reads it: (c, weight) items."""

    def test_width_one_reduces_to_single_ball_rule(self):
        assert list(apply_generator_cabled(1, 0, 1)) == [(0, Q), (1, ONE_MINUS_Q)]

    def test_width_two_full_over_empty(self):
        assert dict(apply_generator_cabled(2, 0, 2)) == {
            0: QPoly.monomial(4),
            1: Q * ONE_MINUS_Q * power(ONE + Q, 2),
            2: (ONE + Q) * power(ONE_MINUS_Q, 2),
        }

    def test_no_empty_under_lanes(self):
        assert list(apply_generator_cabled(1, 2, 2)) == [(0, ONE)]

    def test_bad_count(self):
        with pytest.raises(ValueError):
            apply_generator_cabled(3, 0, 2)


class TestCabledMatrix:
    def test_width_one_is_multiball_with_one_ball_cap(self):
        for word in all_words(3, 3):
            assert rho_cabled_matrix(word, 1) == rho_matrix(word, 1)

    def test_braid_relation_width_two(self):
        left = rho_cabled_matrix(BraidWord(3, (1, 2, 1)), 2)
        right = rho_cabled_matrix(BraidWord(3, (2, 1, 2)), 2)
        assert left == right

    def test_empty_word_identity(self):
        assert rho_cabled_matrix(BraidWord(2), 3) == identity(16)

    def test_columns_sum_to_one(self):
        m = rho_cabled_matrix(BraidWord(3, (1, 2, 1, 1)), 2)
        assert column_sum_failure(m, ONE) is None

    def test_ball_conservation(self):
        m = rho_cabled_matrix(BraidWord(3, (2, 1, 2)), 2)
        for i, j, _v in entries_sorted(m):
            assert sum(index_state(i, 3, 2)) == sum(index_state(j, 3, 2))

    def test_index_roundtrip(self):
        for idx in range(27):
            assert state_index(index_state(idx, 3, 2), 2) == idx


class TestCrossingOracle:
    def test_single_lane(self):
        assert crossing_oracle(1, 1, 0) == {0: Q, 1: ONE_MINUS_Q}

    def test_full_under_group_blocks_falls(self):
        assert crossing_oracle(2, 2, 2) == {0: ONE}

    def test_width_two_reference_distribution(self):
        assert crossing_oracle(2, 2, 0) == {
            0: QPoly.monomial(4),
            1: Q * ONE_MINUS_Q * power(ONE + Q, 2),
            2: (ONE + Q) * power(ONE_MINUS_Q, 2),
        }

    def test_normalization(self):
        for K in (1, 2, 3):
            for a in range(K + 1):
                for b in range(K + 1):
                    assert poly_sum(crossing_oracle(K, a, b).values()) == ONE

    def test_degenerate_cases(self):
        for K in (1, 2, 3):
            for b in range(K + 1):
                assert crossing_oracle(K, 0, b) == {0: ONE}
            for a in range(K + 1):
                assert crossing_oracle(K, a, K) == {0: ONE}

    def test_micro_order_invariance(self):
        # Arbitrary linearizations run on the branch-enumeration reference:
        # for K >= 2 the lex order is not realizable by a braid.
        for K in (1, 2, 3):
            lex = [(p, l) for p in range(K) for l in range(K)]
            geometric = sorted(lex, key=lambda pl: (pl[1] - pl[0], pl[0]))
            for a in range(K + 1):
                for b in range(K + 1):
                    base = crossing_oracle(K, a, b)
                    assert reference(K, a, b, order=lex) == base
                    assert reference(K, a, b, order=geometric) == base

    def test_order_must_cover_all_micro_crossings(self):
        with pytest.raises(ValueError):
            reference(2, 1, 0, order=[(0, 0)])

    def test_sweep_order_covers_square(self):
        assert sorted(sweep_order(3)) == [
            (p, l) for p in range(3) for l in range(3)
        ]

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_reference_matches_oracle_on_every_placement(self, K):
        # The reference enumerates branches from any placement; the fall the
        # push reads is placement-free.
        for a in range(K + 1):
            for b in range(K + 1):
                for up_occ in itertools.combinations(range(K), a):
                    for lo_occ in itertools.combinations(range(K), b):
                        upper = tuple(p in up_occ for p in range(K))
                        lower = tuple(l in lo_occ for l in range(K))
                        assert reference(K, a, b, upper=upper, lower=lower) == (
                            fall_distribution(K, a, b)
                        )

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_braid_realizable_orders_give_equal_lane_matrices(self, K):
        # Before its micro-crossing (p, l), upper lane p has passed l under
        # lanes and under lane l has been passed by K-1-p upper lanes, so the
        # two meet at positions p+l+1 and p+l+2 in any order that keeps each
        # lane's own crossings in sequence.
        def lane_matrix(order):
            return rho_matrix(BraidWord(2 * K, tuple(p + l + 1 for p, l in order)), 1)

        sweep = sweep_order(K)
        anti_diagonal = sorted(sweep, key=lambda pl: (pl[1] - pl[0], pl[0]))
        assert anti_diagonal != sweep or K == 1
        assert lane_matrix(anti_diagonal) == lane_matrix(sweep)


class TestCableWord:
    def test_width_one_is_the_word(self):
        word = BraidWord(3, (1, 2, 1))
        assert cable_word(word, 1) == word

    def test_letters_follow_the_sweep_order(self):
        for K in (1, 2, 3, 4):
            expected = tuple(p + l + 1 for p, l in sweep_order(K))
            assert cable_word(BraidWord(2, (1,)), K) == BraidWord(2 * K, expected)

    def test_later_groups_are_offset_by_K(self):
        assert cable_word(BraidWord(3, (2, 1)), 2) == BraidWord(6, (4, 5, 3, 4, 2, 3, 1, 2))

    def test_bad_width(self):
        with pytest.raises(ValueError):
            cable_word(BraidWord(2, (1,)), 0)


def lumped_columns(word, K):
    """Each lane state's column of rho_{N=1}(cable_word(word, K)), summed onto
    the group counts of its targets, as (group-count index of the state, column)."""
    n = word.n
    lanes = rho_matrix(cable_word(word, K), 1)

    def group_index(lane_idx):
        u = index_state(lane_idx, n * K, 1)
        return state_index(tuple(sum(u[g * K : (g + 1) * K]) for g in range(n)), K)

    for j in range(lanes.dim):
        parts = {}
        for t, w in lanes.cols[j].items():
            parts.setdefault(group_index(t), []).append(w)
        yield group_index(j), {s: poly_sum(ws) for s, ws in parts.items()}


@st.composite
def cabled_words(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 9 // n))
    letters = draw(st.lists(st.integers(1, n - 1), max_size=4)) if n > 1 else []
    return BraidWord(n, tuple(letters)), K


@given(cabled_words())
@settings(max_examples=25, deadline=None)
def test_cabled_matrix_is_lumped_single_lane_model_on_cabled_word(word_and_K):
    word, K = word_and_K
    expected = rho_cabled_matrix(word, K)
    for source, column in lumped_columns(word, K):
        assert {s: w for s, w in column.items() if w} == expected.cols[source]


class TestClosedForm:
    """``falling_probability`` as one product against the form with two
    Gaussian binomials, [c]! and (1 - q)^c, and the q-combinatorics under
    both against inversion counts."""

    def test_product_form_equals_factorial_form(self):
        for K in range(1, 9):
            for a in range(K + 1):
                for b in range(K + 1):
                    with pytest.raises(ValueError, match="need c >= 0"):
                        falling_probability(K, a, b, -1)
                    for c in range(K + 2):
                        got = falling_probability(K, a, b, c)
                        assert got == falling_probability_by_factorials(K, a, b, c)
                        assert (got == ZERO) == (c > min(a, K - b)), (K, a, b, c)

    def test_product_form_at_the_widest_cable(self):
        K = MAX_CABLE
        for a, b in [(K, 0), (13, 5), (7, 12), (K, K), (0, 3)]:
            for c in range(min(a, K - b) + 1):
                expected = falling_probability_by_factorials(K, a, b, c)
                assert falling_probability(K, a, b, c) == expected

    def test_q_factorial_counts_inversions(self):
        for k in range(5):
            assert q_factorial(k) == qfact_by_inversions(k)

    def test_gauss_binom_counts_inversions(self):
        for k in range(6):
            for r in range(k + 1):
                assert gauss_binom(k, r) == gauss_by_inversions(k, r)


class TestFormulaChecks:
    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_formula_matches_oracle(self, K):
        assert check_cabled_formula(K).passed

    def test_formula_check_catches_a_perturbed_probability(self, monkeypatch):
        exact = cabled.falling_probability

        def perturbed(K, a, b, c):
            p = exact(K, a, b, c)
            return p + Q if (K, a, b, c) == (2, 2, 0, 1) else p

        baseline = check_cabled_formula(2)
        monkeypatch.setattr(cabled, "falling_probability", perturbed)
        report = check_cabled_formula(2)
        assert baseline.passed and not report.passed
        assert report.checks == baseline.checks
        assert len(report.failures) == 2
        assert report.failures[0].startswith("a=2 b=0 c=1: formula ")
        assert report.failures[1] == "a=2 b=0: formula distribution sums to 1 + q"

    def test_spot_check_width_four(self):
        for a, b in [(2, 1), (4, 0), (3, 2)]:
            oracle = crossing_oracle(4, a, b)
            for c in range(min(a, 4 - b) + 1):
                assert falling_probability(4, a, b, c) == oracle[c]

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_placement_invariance_all_lanes(self, K):
        report = check_oracle_placement_invariance(K)
        assert report.passed
        assert report.checks == 4**K

    @pytest.mark.parametrize(
        "K,a,b,placements",
        [(2, 1, 1, 4), (3, 2, 1, 9), (2, 0, 0, 1)],
    )
    def test_placement_invariance(self, K, a, b, placements, monkeypatch):
        # Every placement of (a, b) balls is compared: tilting the lumped
        # columns of those lane states fails exactly C(K, a) C(K, b) checks.
        exact = cabled._lumped_column
        seen = []

        def tilted(K_, lanes):
            col = exact(K_, lanes)
            if (sum(lanes[:K_]), sum(lanes[K_:])) == (a, b):
                seen.append(lanes)
                return {s: Q * w for s, w in col.items()}
            return col

        monkeypatch.setattr(cabled, "_lumped_column", tilted)
        report = check_oracle_placement_invariance(K)
        assert report.checks == 4**K and not report.passed
        assert len(set(seen)) == len(seen) == placements
        assert len(report.failures) == min(placements, MAX_FAILURES)
        assert all(f" (a={a} b={b}): lumped " in f for f in report.failures)

    def test_placement_check_catches_a_skewed_push(self, monkeypatch):
        # Swapping two weights keeps every column sum at 1, so only the
        # comparison with the lane level can see it.
        exact = cabled.fall_distribution

        def skewed(K, a, b):
            dist = exact(K, a, b)
            if (K, a, b) == (3, 2, 0):
                dist[1], dist[2] = dist[2], dist[1]
            return dist

        monkeypatch.setattr(cabled, "fall_distribution", skewed)
        report = check_oracle_placement_invariance(3)
        assert not report.passed and report.checks == 4**3
        assert len(report.failures) == 3  # the C(3, 2) placements of (a, b) = (2, 0)
        f0, f1, f2 = exact(3, 2, 0).values()
        lumped = f"{{[0,2]: {f0}, [1,1]: {f1}, [2,0]: {f2}}}"
        pushed = f"{{[0,2]: {f0}, [1,1]: {f2}, [2,0]: {f1}}}"
        for failure, lanes in zip(
            report.failures, ["[1,1,0,0,0,0]", "[1,0,1,0,0,0]", "[0,1,1,0,0,0]"]
        ):
            assert failure == f"lanes {lanes} (a=2 b=0): lumped {lumped} != rho_K {pushed}"

    def test_placement_check_is_desk_scale(self):
        with pytest.raises(ValueError, match="K <= 4"):
            check_oracle_placement_invariance(5)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_cabled_braid_relation(self, K):
        assert check_cabled_braid_relation(3, K).passed

    def test_cabled_far_commutativity(self):
        report = check_cabled_braid_relation(4, 2)
        assert report.passed
        assert report.checks == 3  # two adjacent pairs + far pair (1, 3)

    def test_cabled_mismatch_reports_failing_entry(self):
        pairs = [("1 vs 2", BraidWord(3, (1,)), BraidWord(3, (2,)))]
        comparisons = pushed_pairs(pairs, lambda words: rho_cabled_batch(words, 3, 2))
        report = matrix_report("cabled negative control", comparisons, 3, 2)
        assert not report.passed and report.checks == 1
        assert report.failures[0].startswith("1 vs 2: u=[")
        assert "expected" in report.failures[0]

    @pytest.mark.parametrize("K", [2, 3])
    def test_cabled_braid_relation_fails_when_q_moves_between_branches(self, monkeypatch, K):
        # A seeded fault that keeps the distribution's sum: at (a, b) = (1, 0)
        # weight q moves from c = 0 to c = 1.  (At K = 1 the relation survives it.)
        original = cabled.apply_generator_cabled

        def moved(a, b, K):
            dist = dict(original(a, b, K))
            if (a, b) == (1, 0):
                dist[0], dist[1] = dist[0] - Q, dist[1] + Q
            return dist.items()

        monkeypatch.setattr(cabled, "apply_generator_cabled", moved)
        report = check_cabled_braid_relation(3, K)
        assert not report.passed
        entry = r"1 2 1 vs 2 1 2: u=\[2,0,0\] v=\[2,0,0\] expected .+ actual .+"
        assert re.fullmatch(entry, report.failures[0])


def test_fall_distribution_keys_bounded():
    dist = fall_distribution(3, 2, 2)
    assert set(dist) <= set(range(0, 2))
    assert poly_sum(dist.values()) == ONE


def test_fall_distribution_returns_a_fresh_dict():
    first = fall_distribution(3, 2, 0)
    expected = {c: falling_probability(3, 2, 0, c) for c in range(3)}
    assert first == expected
    first[0] = ONE
    del first[1]
    first[7] = Q
    assert fall_distribution(3, 2, 0) == expected


@pytest.mark.parametrize("K, a, b", [(3, 0, 5), (3, -1, 0), (3, 4, 0), (2, 0, -1), (0, 0, 0)])
def test_fall_distribution_rejects_counts_outside_cable(K, a, b):
    with pytest.raises(ValueError):
        fall_distribution(K, a, b)


BAD_CABLE_CALLS = {
    "falling_probability K=0": lambda: falling_probability(0, 0, 0, 0),
    "falling_probability a=K+1": lambda: falling_probability(2, 3, 0, 0),
    "fall_distribution K=0": lambda: fall_distribution(0, 0, 0),
    "fall_distribution a=K+1": lambda: fall_distribution(2, 3, 0),
    "crossing_oracle K=0": lambda: crossing_oracle(0, 0, 0),
    "crossing_oracle a=K+1": lambda: crossing_oracle(2, 3, 0),
    "rho_cabled_matrix K=0": lambda: rho_cabled_matrix(BraidWord(2, (1,)), 0),
}


@pytest.mark.parametrize("case", BAD_CABLE_CALLS)
def test_every_cabled_entry_point_rejects_a_bad_width_or_count(case):
    with pytest.raises(ValueError, match=r"^cable width must be >= 1|^need 0 <= a, b <= K"):
        BAD_CABLE_CALLS[case]()
