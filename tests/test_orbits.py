"""The push reduced to one column per relabelling orbit of count states
(``multiball.push_columns``).  Where the fall only swaps or keeps a pair,
with weights that depend only on the order of its counts, the push steps the
root columns, whose values are 0..k-1, and writes every other column as its
root's, relabelled.  Checked in exact arithmetic against the state-by-state
oracle (``oracles.suffix_sweep``) on seeded words, sums and products, with
the number of columns pushed pinned by a ``step`` spy; falls that break the
condition, one of them only by a weight at one pair, must push every
column and still match the oracle."""

import random

import pytest
from oracles import suffix_sweep

from braidbowl import cabled, multiball
from braidbowl.braid import BraidWord, HeckeElement, HeckeProduct
from braidbowl.multiball import all_states, rho_batch
from braidbowl.qpoly import ONE, ONE_MINUS_Q, Q, QPoly

COEFFICIENTS = [ONE, -ONE, Q, QPoly((2, -1)), QPoly((0, 3, 1))]


def pushed_columns(monkeypatch):
    """The number of columns of each ``multiball.step`` from now on."""
    sizes, original = [], multiball.step

    def counted(m, gen, c=0):
        sizes.append(len(gen))
        return original(m, gen, c)

    monkeypatch.setattr(multiball, "step", counted)
    return sizes


def root_count(n, N):
    """The states whose count values are exactly 0..k-1 for some k."""
    return sum(set(u) == set(range(len(set(u)))) for u in all_states(n, N))


def seeded_items(n, seed):
    """A word, a sum of words and a product of two sums on n strands."""
    rng = random.Random(seed)
    letters = lambda: [rng.randint(1, n - 1) for _ in range(rng.randint(0, 5))] if n > 1 else []
    word = lambda: BraidWord(n, letters())
    element = lambda: HeckeElement(n, tuple((word(), rng.choice(COEFFICIENTS)) for _ in range(3)))
    return [word(), element(), HeckeProduct(n, (element(), element()))]


def factors_of(x):
    return [[(x, ONE)]] if isinstance(x, BraidWord) else [f.terms for f in x.factors]


SHAPES = [(n, N) for n in range(1, 6) for N in range(1, 5)] + [(4, 6), (2, 20), (3, 9)]


@pytest.mark.parametrize("n, N", SHAPES)
def test_the_orbit_push_matches_the_state_by_state_oracle(monkeypatch, n, N):
    xs = seeded_items(n, 100 * n + N)
    sizes = pushed_columns(monkeypatch)
    for x, m in zip(xs, rho_batch(xs, n, N)):
        assert m == suffix_sweep(factors_of(x), n, N, multiball.apply_generator)
    assert set(sizes) <= {root_count(n, N)}


@pytest.mark.parametrize(
    "n, N, roots", [(6, 3, 2163), (8, 2, 6051), (4, 5, 75), (3, 2, 13), (10, 1, 2**10 - 1)]
)
def test_one_column_is_pushed_per_orbit(monkeypatch, n, N, roots):
    assert root_count(n, N) == roots
    sizes = pushed_columns(monkeypatch)
    word = BraidWord(n, (1, n - 1, 1))
    (m,) = rho_batch([word], n, N)
    assert sizes == [roots] * 3
    assert m == suffix_sweep([[(word, ONE)]], n, N, multiball.apply_generator)


def test_a_cabled_push_steps_every_column(monkeypatch):
    sizes = pushed_columns(monkeypatch)
    cabled.rho_cabled_matrix(BraidWord(5, (1, 3, 2)), 3)
    assert sizes == [1024] * 3


def order_dependent(a, b):
    """The multi-ball fall, except that at (2, 0) it keeps with weight 1 - q^2:
    every branch still swaps or keeps, and columns still sum to 1."""
    if (a, b) == (2, 0):
        return ((0, QPoly((0, 0, 1))), (2, QPoly((1, 0, -1))))
    return multiball.apply_generator(a, b)


def all_fall(a, b, cap=2):
    """Every ball that fits falls: at a = b = 1 one ball moves, so a branch
    neither swaps nor keeps the pair."""
    return ((min(a, cap - b), ONE),)


def swaps_kept_in_place(a, b):
    """The multi-ball weights with the swap and the keep exchanged where a > b."""
    return multiball.apply_generator(a, b) if a <= b else ((0, ONE_MINUS_Q), (a - b, Q))


def steps_and_oracle(monkeypatch, n, N, fall, seed):
    """The columns of each step of a push of seeded items under ``fall``,
    once each matrix is checked against the oracle."""
    xs = seeded_items(n, seed)
    sizes = pushed_columns(monkeypatch)
    for x, m in zip(xs, multiball.push_columns([factors_of(x) for x in xs], n, N + 1, fall)):
        assert m == suffix_sweep(factors_of(x), n, N, fall)
    assert sizes
    return set(sizes)


@pytest.mark.parametrize("fall", [order_dependent, all_fall])
@pytest.mark.parametrize("n", [3, 4])
def test_a_fall_outside_the_condition_pushes_every_column(monkeypatch, fall, n):
    assert steps_and_oracle(monkeypatch, n, 2, fall, n) == {3**n}


def test_other_weights_of_the_same_order_still_reduce(monkeypatch):
    # Exchanging the swap and keep weights keeps them a function of the
    # order of a and b, so the push still steps the roots alone.
    assert steps_and_oracle(monkeypatch, 4, 3, swaps_kept_in_place, 7) == {root_count(4, 3)}


def test_a_copy_shares_its_roots_entries():
    # (1, 2, 2) is (0, 1, 1) with its values moved up by one.
    n, N = 3, 2
    (m,) = rho_batch([BraidWord(n, (1, 2))], n, N)
    index = lambda u: multiball.state_index(u, N)
    root, copy = m.cols[index((0, 1, 1))], m.cols[index((1, 2, 2))]
    up = lambda t: index(tuple(c + 1 for c in multiball.index_state(t, n, N)))
    moved = {up(t): v for t, v in root.items()}
    assert copy == moved
    assert all(copy[t] is v for t, v in moved.items())
