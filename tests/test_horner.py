"""The push builds each factor by Horner's rule over the prefix trie of its
words (``multiball.push_columns``).  It is checked in exact arithmetic
against the sweep over the suffixes of the words that it replaced
(``oracles.suffix_sweep``), on arbitrary elements and products in the
single-lane and cabled models and one where every ball falls, and on the
window products of ``check_specht``.  A coset ladder is
one chain of the trie: its steps are counted, and its matrix is checked
against the signed sum of its words, with a seeded sign fault that must
fail."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scale, suffix_sweep

from braidbowl import cabled, multiball
from braidbowl.braid import BraidWord, HeckeElement, HeckeProduct, specht_element, specht_half
from braidbowl.matrix import Matrix
from braidbowl.multiball import rho_batch, rho_element, rho_matrix
from braidbowl.qpoly import ONE, Q, QPoly


def model_fall(model, cap):
    """The fall of a model.  In "all-fall" every ball that fits falls with
    weight 1, so a crossing sends several states to one state, and a step
    shares one column of the node below among several of its columns."""
    if model == "cabled":
        return lambda a, b: cabled.apply_generator_cabled(a, b, cap)
    if model == "all-fall":
        return lambda a, b: ((min(a, cap - b), ONE),)
    return multiball.apply_generator


def push_one(factors, n, cap, fall):
    (m,) = multiball.push_columns([factors], n, cap + 1, fall)
    return m


def recorded_steps(monkeypatch, fault=None):
    """(m, c) of every ``multiball.step`` call from now on; ``fault(k, c)``,
    if given, replaces the c of the k-th call."""
    calls, original = [], multiball.step

    def counted(m, gen, c=0):
        calls.append((m, c))
        return original(m, gen, c if fault is None else fault(len(calls), c))

    monkeypatch.setattr(multiball, "step", counted)
    return calls


def word_sum(terms, n, N):
    """sum_t c_t rho(w_t), word by word."""
    out = Matrix((N + 1) ** n)
    for word, c in terms:
        out = out + scale(rho_matrix(word, N), c)
    return out


coefficients = st.one_of(
    st.sampled_from([ONE, -ONE, Q]),
    st.lists(st.integers(-5, 5), max_size=3).map(lambda cs: QPoly(tuple(cs))),
)


@st.composite
def factors(draw, n, max_terms=5):
    """The terms of a factor on n strands.  Its words are prefixes of one or
    two base words, so that the trie has chains and branches, or any words
    of length up to 4; they may repeat, and their coefficients may cancel."""
    letters = st.lists(st.integers(1, n - 1), max_size=4) if n > 1 else st.just([])
    bases = draw(st.lists(letters, min_size=1, max_size=2))
    prefixes = [tuple(base[:k]) for base in bases for k in range(len(base) + 1)]
    word = st.one_of(st.sampled_from(prefixes), letters.map(tuple))
    terms = draw(st.lists(st.tuples(word, coefficients), max_size=max_terms))
    return [(BraidWord(n, w), c) for w, c in terms]


@st.composite
def products(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return n, draw(st.lists(factors(n), min_size=1, max_size=3))


MODELS = [("single-lane", 1), ("single-lane", 2), ("cabled", 2), ("all-fall", 2)]


@given(products(), st.sampled_from(MODELS))
@settings(max_examples=60, deadline=None)
def test_the_trie_push_matches_the_suffix_sweep(product, model):
    (n, fs), (name, cap) = product, model
    fall = model_fall(name, cap)
    assert push_one(fs, n, cap, fall) == suffix_sweep(fs, n, cap, fall)


@pytest.mark.parametrize("model, cap", [("single-lane", 2), ("cabled", 2)])
def test_the_trie_push_matches_the_suffix_sweep_past_64_bits(model, cap):
    # The coefficient 2^70 alone needs digits wider than 64 bits; the words
    # share the prefix (1, 2), so the trie has a branch below it.
    w = lambda *letters: BraidWord(3, letters)
    first = [(w(1, 2, 1), QPoly((2**70, -3))), (w(1, 2), -ONE), (w(1, 2, 2), Q), (w(), ONE)]
    second = [(w(2, 1), QPoly((1, -2))), (w(), Q), (w(2), -ONE)]
    fall = model_fall(model, cap)
    expected = suffix_sweep([first, second], 3, cap, fall)
    assert expected != Matrix((cap + 1) ** 3)
    assert push_one([first, second], 3, cap, fall) == expected


def one_minus(n, i):
    return HeckeElement(n, ((BraidWord(n), ONE), (BraidWord(n, (i,)), -ONE)))


@pytest.mark.parametrize("extra", [0, 1])
def test_window_products_match_the_suffix_sweep(extra):
    # x_1 and each (1 - sigma_i) half_i at (5,3,1), as check_specht pushes
    # them, at N' = N, where they die, and at N' = N + 1, where they do not.
    n, N, k = 5, 3, 1
    window = range(k, k + N + 1)
    xs = [specht_element(n, N, k)]
    xs += [HeckeProduct(n, (one_minus(n, i), *specht_half(n, N, k, i).factors)) for i in window]
    for x, m in zip(xs, rho_batch(xs, n, N + extra)):
        fs = [f.terms for f in x.factors]
        assert m == suffix_sweep(fs, n, N + extra, multiball.apply_generator)
        assert (m == Matrix(m.dim)) == (not extra)


def ladders(n, N, k):
    """The distinct ladders of x_k and of each half_i."""
    xs = [specht_element(n, N, k), *(specht_half(n, N, k, i) for i in range(k, k + N + 1))]
    return list(dict.fromkeys(f for x in xs for f in x.factors))


LADDERS = ladders(6, 3, 1)


def signed_sum(ladder, N):
    """The sum of sign(w) rho(w) over the words of a ladder."""
    assert all(c == (-1) ** len(word) * ONE for word, c in ladder.terms)
    return word_sum(ladder.terms, ladder.n, N)


def test_a_ladders_words_are_the_prefixes_of_its_longest_word():
    # 10 ladders with 36 words in all, so 26 steps.
    assert len(LADDERS) == 10
    assert sum(len(x.terms) - 1 for x in LADDERS) == 26
    for ladder in LADDERS:
        words = sorted((w.letters for w, _c in ladder.terms), key=len)
        assert words == [words[-1][:k] for k in range(len(words))]


@pytest.mark.parametrize("ladder", LADDERS, ids=lambda x: str(x.terms[-1][0]))
def test_a_ladder_of_m_words_costs_m_minus_1_steps(monkeypatch, ladder):
    calls = recorded_steps(monkeypatch)
    push_one([ladder.terms], ladder.n, 1, multiball.apply_generator)
    m = len(ladder.terms)
    # Every level of the chain adds its sign on the diagonal.
    assert [c for _m, c in calls] == [(-1) ** k for k in range(m - 2, -1, -1)]


@pytest.mark.parametrize("N", [1, 2])
def test_each_pushed_ladder_equals_the_signed_sum_of_its_words(N):
    for ladder in LADDERS:
        assert rho_element(ladder, N) == signed_sum(ladder, N)


LONGEST = max(LADDERS, key=lambda x: len(x.terms))


@pytest.mark.parametrize("level", range(1, len(LONGEST.terms)))
def test_a_flipped_level_sign_fails(monkeypatch, level):
    # Seeded fault: the step of one level adds -c, not c, on the diagonal.
    # That moves every column sum of the ladder by -2c, so the push's
    # column-sum check refuses it.
    assert rho_element(LONGEST, 2) == signed_sum(LONGEST, 2)
    recorded_steps(monkeypatch, lambda k, c: -c if k == level else c)
    with pytest.raises(ValueError, match=r"^column 0 sums to -?\d+, expected [01]$"):
        rho_element(LONGEST, 2)


def test_a_flipped_level_sign_fails_the_kernel(monkeypatch):
    # The same fault at the first step of x_1's chain in check_specht's push,
    # the deepest level of its last ladder, 1 - T_3(1 - T_2(1 - T_1)).  The
    # push builds (1 - sigma_i) half_i for i = 3, 2 first, then
    # (1 - sigma_1) half_1, which has x_1's factor lists, so x_1 is yielded
    # from it.  x_1's other ladders have epsilon 0, so its column sums stay
    # 0, and the kernel comparison fails instead.
    assert multiball.check_specht(4, 2, 1).passed
    one_minus = lambda i: HeckeElement(4, ((BraidWord(4), ONE), (BraidWord(4, (i,)), -ONE)))
    halves = [HeckeProduct(4, (one_minus(i), *specht_half(4, 2, 1, i).factors)) for i in (3, 2)]
    with monkeypatch.context() as m:
        before = recorded_steps(m)
        list(multiball.rho_batch(halves, 4, 2))
    recorded_steps(monkeypatch, lambda k, c: -c if k == len(before) + 1 else c)
    report = multiball.check_specht(4, 2, 1)
    assert not report.passed
    assert report.failures[0].startswith("rho(x_1): ")


@pytest.mark.parametrize("N", [1, 2])
def test_an_inner_node_with_empty_columns_is_stepped(monkeypatch, N):
    # 1 - sigma_2 + sigma_2 sigma_1: the inner node, the prefix (2,), is
    # 1 - sigma_1, whose column is empty wherever u_1 = u_2, and the step of
    # sigma_2 reads such columns.  The node holds the root columns, the
    # states whose values are 0..k-1: 7 of 8 at N = 1, 13 of 27 at N = 2.
    w = lambda *letters: BraidWord(3, letters)
    terms = ((w(), ONE), (w(2), -ONE), (w(2, 1), ONE))
    calls = recorded_steps(monkeypatch)
    got = rho_element(HeckeElement(3, terms), N)
    inner, _c = calls[-1]
    assert len(inner) == {1: 7, 2: 13}[N] and any(not col for col in inner.values())
    assert got == word_sum(terms, 3, N)
