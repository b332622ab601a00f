"""The multi-ball representation: golden columns, relation checks, properties."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    column_sum_failure,
    difference,
    drawn_stochastic_words,
    entries_sorted,
    generator_by_states,
    generator_matrix,
    identity,
    scale,
)

from braidbowl import multiball
from braidbowl.braid import BraidWord, HeckeElement, parse_word, specht_element
from braidbowl.matrix import Matrix, TransitionMatrix
from braidbowl.multiball import (
    all_states,
    apply_generator,
    check_braid_relation,
    check_far_commutativity,
    check_hecke,
    check_inverse,
    check_specht,
    check_stochastic,
    index_state,
    matrix_report,
    rho_element,
    rho_matrix,
    state_index,
)
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly, pack, unpack


def column_states(m, u, n, N):
    col = m.cols.get(state_index(u, N), {})
    return {index_state(i, n, N): v for i, v in col.items()}


class TestStateIndexing:
    def test_examples(self):
        assert state_index((0, 0, 0), 1) == 0
        assert state_index((1, 0, 0), 1) == 1
        assert state_index((2, 1, 0), 2) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            state_index((2, 0), 1)
        with pytest.raises(ValueError):
            index_state(8, 3, 1)

    @given(st.integers(1, 4), st.integers(1, 3), st.data())
    @settings(max_examples=40)
    def test_roundtrip(self, n, N, data):
        u = tuple(data.draw(st.integers(0, N)) for _ in range(n))
        assert index_state(state_index(u, N), n, N) == u


class TestSingleCrossing:
    """The single-lane fall distribution: (c, weight) for c balls falling."""

    def test_fall_branch(self):
        assert apply_generator(1, 0) == ((0, Q), (1, ONE_MINUS_Q))

    def test_equal_counts_fixed(self):
        assert apply_generator(1, 1) == ((0, ONE),)

    def test_balls_cannot_fall_up(self):
        assert apply_generator(0, 1) == ((0, ONE),)

    def test_interior_generator(self):
        # sigma_2 meets the counts (2, 1) and leaves lanes 1 and 4 alone
        assert column_states(generator_matrix(2, 4, 2), (0, 2, 1, 0), 4, 2) == {
            (0, 1, 2, 0): Q,
            (0, 2, 1, 0): ONE_MINUS_Q,
        }


class TestGoldenColumns:
    """The three-strand full-crossing probabilities, exact."""

    def test_one_ball_from_top(self):
        m = rho_matrix(parse_word("1 2 1", 3), 1)
        assert column_states(m, (1, 0, 0), 3, 1) == {
            (0, 0, 1): Q * Q,
            (0, 1, 0): Q - Q * Q,
            (1, 0, 0): ONE_MINUS_Q,
        }

    def test_two_balls_top_and_middle(self):
        m = rho_matrix(parse_word("1 2 1", 3), 1)
        assert column_states(m, (1, 1, 0), 3, 1) == {
            (0, 1, 1): Q * Q,
            (1, 0, 1): Q - Q * Q,
            (1, 1, 0): ONE_MINUS_Q,
        }

    def test_three_balls_descending(self):
        m = rho_matrix(parse_word("1 2 1", 3), 2)
        entry = m.cols[state_index((2, 1, 0), 2)][state_index((0, 1, 2), 2)]
        assert entry == QPoly.monomial(3)

    def test_empty_word_is_identity(self):
        m = rho_matrix(BraidWord(3), 1)
        assert m == identity(8)

    def test_word_equals_reversed_generator_product(self):
        # matrix of w1 w2 is M(w2) @ M(w1)
        m12 = rho_matrix(BraidWord(3, (1, 2)), 2)
        m1 = generator_matrix(1, 3, 2)
        m2 = generator_matrix(2, 3, 2)
        assert m12 == m2 @ m1

    def test_n_zero_or_bad_N_rejected(self):
        with pytest.raises(ValueError):
            rho_matrix(BraidWord(2, (1,)), 0)


class TestRhoElement:
    def test_identity_element(self):
        x = HeckeElement(3, ((BraidWord(3), ONE),))
        assert rho_element(x, 1) == identity(8)

    def test_specht_element_in_kernel(self):
        x = specht_element(3, 1, 1)
        assert not rho_element(x, 1).cols

    def test_quadratic_expansion_in_kernel(self):
        # (q + sigma)(1 - sigma) expanded: q*1 + (1-q)*sigma - sigma^2
        x = HeckeElement(
            2,
            (
                (BraidWord(2), Q),
                (BraidWord(2, (1,)), ONE_MINUS_Q),
                (BraidWord(2, (1, 1)), -ONE),
            ),
        )
        assert not rho_element(x, 2).cols


class TestRelationChecks:
    @pytest.mark.parametrize("n,N", [(3, 1), (3, 3), (4, 2)])
    def test_braid_relation(self, n, N):
        assert check_braid_relation(n, N).passed

    def test_far_commutativity(self):
        report = check_far_commutativity(4, 2)
        assert report.passed
        assert report.checks == 1  # the single far pair (1, 3)

    def test_far_commutativity_needs_four_strands(self):
        with pytest.raises(ValueError):
            check_far_commutativity(3, 1)

    @pytest.mark.parametrize("n,N", [(2, 1), (2, 3), (4, 2)])
    def test_hecke(self, n, N):
        assert check_hecke(n, N).passed

    def test_hecke_negative_control(self):
        report = check_hecke(2, 1, corrupt=True)
        assert not report.passed
        assert report.failures  # first failing entry is reported
        assert "expected" in report.failures[0]

    @pytest.mark.parametrize("n,N,k", [(3, 1, 1), (4, 1, 2), (5, 3, 1)])
    def test_specht(self, n, N, k):
        assert check_specht(n, N, k).passed

    def test_specht_preconditions(self):
        with pytest.raises(ValueError):
            check_specht(3, 2, 1)

    @pytest.mark.parametrize("n,N,x", [(2, 1, Fraction(1, 2)), (3, 2, Fraction(2))])
    def test_inverse(self, n, N, x):
        assert check_inverse(n, N, x).passed

    def test_inverse_rejects_zero(self):
        with pytest.raises(ValueError):
            check_inverse(2, 1, Fraction(0))


# n = N = 2: state index 3 is [0,1].  A's first entry in (col, row) order that
# B lacks is (3, 0) = q; B's (1, 2) = 2 comes later in that order.
A = Matrix(9, {0: {0: ONE, 3: Q}, 4: {4: ONE}})
B = Matrix(9, {0: {0: ONE}, 2: {1: QPoly((2,))}, 4: {4: Q}})
HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "got,expected,failures",
    [
        (A, B, ["L: u=[0,0] v=[0,1] expected 0 actual q"]),
        (B, A, ["L: u=[0,0] v=[0,1] expected q actual 0"]),
        (A.eval_at(HALF), B.eval_at(HALF), ["L: u=[0,0] v=[0,1] expected 0 actual 1/2"]),
        (A, A, []),
    ],
    ids=["a-b", "b-a", "at-half", "a-a"],
)
def test_matrix_mismatch_names_the_first_differing_entry(got, expected, failures):
    report = matrix_report("t", [("L", got, expected)], 2, 2)
    assert report.name == "t" and report.checks == 1
    assert report.passed == (not failures)
    assert report.failures == failures


def drop_one_ball(a, b):
    """The single-lane fall with a seeded fault: when a - b >= 2, one ball
    falls, not a - b.  Columns still sum to 1."""
    return ((0, ONE),) if a <= b else ((0, Q), (1 if a - b >= 2 else a - b, ONE_MINUS_Q))


# A failure line of ``matrix_report``: label, entry, expected and actual value.
ENTRY_LINE = re.compile(r"(?P<label>.+): u=\[[0-9,]+\] v=\[[0-9,]+\] expected .+ actual .+")


@pytest.mark.parametrize(
    "check, args, failing",
    [
        (check_braid_relation, (4, 2), ["1 2 1 vs 2 1 2"]),
        (check_hecke, (3, 2), ["(q+sigma_1)(1-sigma_1)"]),
        # The factorization is compared, not only the kernel it implies.
        (check_specht, (4, 2, 1), ["rho(x_1)", "rho(x_1) = rho(half_2)(I - sigma_2)"]),
        (check_inverse, (3, 2, Fraction(1, 2)), ["sigma_1 sigma_1^-1"]),
    ],
    ids=["braid", "hecke", "specht", "inverse"],
)
def test_matrix_check_fails_when_the_fall_drops_one_ball(monkeypatch, check, args, failing):
    checks = check(*args).checks
    monkeypatch.setattr(multiball, "apply_generator", drop_one_ball)
    report = check(*args)
    assert not report.passed and report.checks == checks
    labels = [ENTRY_LINE.fullmatch(line)["label"] for line in report.failures]
    assert labels[0] == failing[0] and set(failing) <= set(labels)


@pytest.mark.parametrize("n, N", [(3, 2), (4, 2)])
def test_pushed_hecke_and_inverse_sides_match_the_matrix_oracle(monkeypatch, n, N):
    # Under drop_one_ball the relations fail, so the pushed sides are neither
    # 0 nor q I by the relation; they must still equal the QPoly products of
    # the generator matrix built state by state, m = rho(sigma_i).
    batches, original = [], multiball.rho_batch

    def spy(xs, n, N):
        batches.append(list(original(xs, n, N)))
        return iter(batches[-1])

    monkeypatch.setattr(multiball, "apply_generator", drop_one_ball)
    monkeypatch.setattr(multiball, "rho_batch", spy)
    assert not check_hecke(n, N).passed
    assert not check_inverse(n, N, Fraction(2)).passed
    hecke, inverse = batches
    dim = (N + 1) ** n
    ident = identity(dim)
    for i in range(1, n):
        m = generator_by_states(i, n, N, drop_one_ball)
        assert hecke[2 * i - 2 : 2 * i] == [
            (scale(ident, Q) + m) @ difference(ident, m), Matrix(dim)
        ]
        assert inverse[2 * i - 2 : 2 * i] == [m @ (m + scale(ident, Q - 1)), scale(ident, Q)]
    assert len(hecke) == len(inverse) == 2 * (n - 1)


def test_far_commutativity_fails_when_one_word_is_tampered(monkeypatch):
    # No fault of the fall breaks far commutativity: far generators move
    # disjoint digits.  So the matrix of one word is changed instead, as the
    # check's one batched push yields it.
    original = multiball.rho_batch

    def rho_batch_tampered(words, n, N):
        for word, m in zip(words, original(words, n, N)):
            yield m + Matrix(m.dim, {1: {0: Q}}) if word.letters == (3, 1) else m

    monkeypatch.setattr(multiball, "rho_batch", rho_batch_tampered)
    report = check_far_commutativity(4, 2)
    assert report.failures == ["1 3 vs 3 1: u=[1,0,0,0] v=[0,0,0,0] expected q actual 0"]


words = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(1, n - 1), max_size=8).map(tuple)
    )
)


class TestProperties:
    @given(words, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_columns_sum_to_one(self, nw, N):
        n, letters = nw
        m = rho_matrix(BraidWord(n, letters), N)
        assert column_sum_failure(m, ONE) is None

    @given(words, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_ball_conservation(self, nw, N):
        n, letters = nw
        m = rho_matrix(BraidWord(n, letters), N)
        for i, j, _v in entries_sorted(m):
            assert sum(index_state(i, n, N)) == sum(index_state(j, n, N))

    @given(words, st.integers(1, 2), st.data())
    @settings(max_examples=25, deadline=None)
    def test_concatenation_multiplies(self, nw, N, data):
        n, letters = nw
        cut = data.draw(st.integers(0, len(letters)))
        u, v = BraidWord(n, letters[:cut]), BraidWord(n, letters[cut:])
        whole = rho_matrix(BraidWord(n, letters), N)
        assert whole == rho_matrix(v, N) @ rho_matrix(u, N)

    @given(words, st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_specializations(self, nw, N):
        n, letters = nw
        m = rho_matrix(BraidWord(n, letters), N)

        def run(u, swap_when):
            state = list(u)
            for i in letters:
                a, b = state[i - 1], state[i]
                if swap_when(a, b):
                    state[i - 1], state[i] = b, a
            return tuple(state)

        # q = 1: every crossing swaps; q = 0: swap only when a <= b
        at1, at0 = m.eval_at(Fraction(1)), m.eval_at(Fraction(0))
        for u in all_states(n, N):
            col1 = at1.cols.get(state_index(u, N), {})
            assert col1 == {state_index(run(u, lambda a, b: True), N): 1}
            col0 = at0.cols.get(state_index(u, N), {})
            assert col0 == {state_index(run(u, lambda a, b: a <= b), N): 1}

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_monotone_states_have_a_fixing_generator(self, N):
        # when n >= N + 2 a weakly increasing state repeats a value somewhere
        n = N + 2
        for u in all_states(n, N):
            if all(u[i] <= u[i + 1] for i in range(n - 1)):
                assert any(
                    column_states(generator_matrix(i, n, N), u, n, N) == {u: ONE}
                    for i in range(1, n)
                )

    def test_one_ball_block_is_single_crossing_matrix(self):
        # restricted to one total ball, sigma_i acts on positions (i, i+1) by
        # [[1-q, 1], [q, 0]] regardless of n and N
        def basis(n, pos):
            return tuple(1 if p == pos else 0 for p in range(1, n + 1))

        for n, i in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            for N in (1, 2, 3):
                m = generator_matrix(i, n, N)
                e = lambda v, u: m.cols.get(state_index(u, N), {}).get(state_index(v, N))
                lo, hi = basis(n, i), basis(n, i + 1)
                assert e(lo, lo) == ONE_MINUS_Q
                assert e(hi, lo) == Q
                assert e(lo, hi) == ONE
                assert e(hi, hi) is None
                # one ball away from the crossing is untouched
                for pos in range(1, n + 1):
                    if pos not in (i, i + 1):
                        u = basis(n, pos)
                        assert e(u, u) == ONE

    def test_one_ball_block_eigenvalue_relation(self):
        # (M - 1)(M + q) = 0 on the one-ball block of a single crossing
        N = 2
        m = Matrix(9, generator_matrix(1, 2, N).cols)
        one_ball = [state_index(u, N) for u in [(1, 0), (0, 1)]]
        ident = identity(9)
        product = difference(m, ident) @ (m + scale(ident, Q))
        for j in one_ball:
            for i in one_ball:
                assert i not in product.cols.get(j, {})


def test_stochastic_check_runs():
    report = check_stochastic(3, 2)
    assert report.passed


def tampered_stochastic_report(monkeypatch, edit):
    """``check_stochastic(3, 2)`` with ``edit(word, column, width)`` applied
    to the packed column of state (2,0,0) of every matrix that the check's
    one batched push yields; the edits keep its sum 1.  (2,0,0) is a copy of
    (1,0,0), so the tampered matrix holds its column as a root of its own."""
    original = multiball.rho_batch
    j = state_index((2, 0, 0), 2)

    def rho_batch_tampered(words, n, N):
        for word, m in zip(words, original(words, n, N)):
            packed, copies = dict(m.packed), dict(m.copies)
            r, rows = copies.pop(j)
            packed[j] = {rows[t]: x for t, x in m.packed[r].items()}
            edit(word, packed[j], m.width)
            yield TransitionMatrix(m.dim, packed, copies, m.width)

    monkeypatch.setattr(multiball, "rho_batch", rho_batch_tampered)
    return check_stochastic(3, 2)


def test_stochastic_check_fails_on_an_entry_that_changes_the_count_multiset(monkeypatch):
    # (1,1,0) has the ball total of (2,0,0) but another multiset.
    target = state_index((1, 1, 0), 2)

    def move_one_entry(word, col, _width):
        col[target] = col.pop(next(iter(col)))

    report = tampered_stochastic_report(monkeypatch, move_one_entry)
    assert not report.passed
    assert report.checks == check_stochastic(3, 2).checks
    assert "count multiset changes [2,0,0] -> [1,1,0]" in report.failures[0]


@pytest.mark.parametrize("n, N, steps, checks", [(4, 2, 197, 8200), (3, 2, 119, 2800)])
def test_stochastic_check_steps_each_distinct_suffix_once(monkeypatch, n, N, steps, checks):
    # The words one by one take 421 steps at (4, 2) and 379 at (3, 2).
    words = drawn_stochastic_words(n)
    assert steps == len({w.letters[k:] for w in words for k in range(len(w))})
    pushed, original = [], multiball.rho_batch

    def recorded(xs, n, N):
        pushed.extend(xs)
        return original(xs, n, N)

    def counted(*args):
        calls.append(args)
        return original_step(*args)

    calls, original_step = [], multiball.step
    monkeypatch.setattr(multiball, "rho_batch", recorded)
    monkeypatch.setattr(multiball, "step", counted)
    report = check_stochastic(n, N)
    assert report.passed and report.checks == checks
    assert len(calls) == steps
    assert pushed == words


def test_stochastic_failures_are_listed_in_push_order(monkeypatch):
    # Two words that are each drawn once, the first of which the push builds
    # after the second, since it walks the words by their reversed letters;
    # each fails one column, and the failures follow the order drawn.
    words = drawn_stochastic_words(3)
    once = [w for w in words if words.count(w) == 1]
    first, second = next(
        (a, b) for k, a in enumerate(once) for b in once[k + 1 :]
        if b.letters[::-1] < a.letters[::-1]
    )
    target = state_index((1, 1, 0), 2)

    def move_one_entry(word, col, _width):
        if word in (first, second):
            col[target] = col.pop(next(iter(col)))

    report = tampered_stochastic_report(monkeypatch, move_one_entry)
    assert report.checks == 2800
    assert report.failures == [
        f"word '{w}': count multiset changes [2,0,0] -> [1,1,0]" for w in (first, second)
    ]


def test_stochastic_word_failing_both_invariants_gets_one_line_for_each(monkeypatch):
    # Weight q^(len + 1) moved from row (2,0,0) to row (1,1,0) of the column
    # of (2,0,0), in one word drawn once: the column leaves its count
    # multiset, and the word has entries above its length.
    words = drawn_stochastic_words(3)
    word = next(w for w in words if words.count(w) == 1)
    same, target = state_index((2, 0, 0), 2), state_index((1, 1, 0), 2)
    kept = []

    def move_high_weight(w, col, width):
        if w == word:
            high = pack(QPoly.monomial(len(w.letters) + 1), width)
            col[same] = col.get(same, 0) - high
            col[target] = high
            kept.append(unpack(col[same], width))

    report = tampered_stochastic_report(monkeypatch, move_high_weight)
    assert report.checks == 2800
    assert report.failures == [
        f"word '{word}': count multiset changes [2,0,0] -> [1,1,0]",
        f"word '{word}': entry u=[2,0,0] v=[2,0,0] is {kept[0]}, of degree above the word length",
    ]


@pytest.mark.parametrize("above", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("top, lower", [(1, 0), ("large", 0), (1, "large"), ("large", "large")])
def test_stochastic_degree_bound_reads_the_digit_count_of_packed_entries(
    monkeypatch, above, sign, top, lower
):
    # sign (top q^d - lower q^(d-1)), d = len + above, moved from row (0,2,0)
    # to row (2,0,0) of the column of (2,0,0) in every word; "large" is
    # 2^(width-2), half a digit's range.  The check reads a packed entry's
    # degree as bit_length // width.  A negative top digit, a large one, or
    # a lower digit of the other sign, which leaves a bit length of exactly
    # width d, must not change that.  The decoded entries are the oracle:
    # the bound fails exactly where one has degree above the length.
    same, other = state_index((2, 0, 0), 2), state_index((0, 2, 0), 2)
    excess = []

    def shift(word, col, width):
        digit = lambda c: 1 << (width - 2) if c == "large" else c
        d = len(word.letters) + above
        moved = QPoly.monomial(d) * digit(top) - (QPoly.monomial(d - 1) * digit(lower) if d else 0)
        col[same] = col.get(same, 0) + pack(moved * sign, width)
        col[other] = col.get(other, 0) - pack(moved * sign, width)
        degree = max(len(unpack(x, width).coeffs) - 1 for x in col.values())
        excess.append(degree - len(word.letters))

    report = tampered_stochastic_report(monkeypatch, shift)
    assert report.checks == 2800 and max(excess) == above
    assert report.passed == (not above)
    if above:
        assert len(report.failures) == 5
        assert all("of degree above the word length" in f for f in report.failures)


def test_stochastic_check_fails_on_an_entry_above_the_word_length(monkeypatch):
    same, other = state_index((2, 0, 0), 2), state_index((0, 2, 0), 2)

    def shift_weight_up(word, col, width):
        high = pack(QPoly.monomial(len(word.letters) + 1), width)
        col[same] = col.get(same, 0) + high
        col[other] = col.get(other, 0) - high

    report = tampered_stochastic_report(monkeypatch, shift_weight_up)
    assert not report.passed
    assert report.failures
    assert all("of degree above the word length" in f for f in report.failures)
