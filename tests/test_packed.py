"""A pushed matrix stays packed until an entry is read.

``push_columns`` returns ``TransitionMatrix`` objects that hold the packed
root columns of the push; ``cols`` decodes them on its first read.  Two
matrices of one push compare their packed root columns, any other pair
their decoded columns, and the two comparisons must always agree.  A
passing relation check compares packed columns only, so it decodes nothing.
"""

import itertools
import random

import pytest

from braidbowl import matrix, qpoly
from braidbowl.braid import BraidWord, HeckeElement, HeckeProduct
from braidbowl.cabled import check_cabled_braid_relation, rho_cabled_matrix
from braidbowl.multiball import (
    check_braid_relation,
    check_far_commutativity,
    check_hecke,
    check_specht,
    check_stochastic,
    rho_batch,
    rho_matrix,
)
from braidbowl.qpoly import ONE, Q


@pytest.fixture
def unpacked(monkeypatch):
    """The entries decoded, by any reader of ``unpack``."""
    seen, original = [], qpoly.unpack

    def spy(x, width):
        seen.append(x)
        return original(x, width)

    monkeypatch.setattr(qpoly, "unpack", spy)
    monkeypatch.setattr(matrix, "unpack", spy)
    return seen


def random_products(rng, n, count):
    """Seeded products of one or two combinations of short words, with the
    zero element, a Hecke relation that pushes to zero, a braid relation and
    repeats among them."""
    one, sigma = BraidWord(n), lambda i: BraidWord(n, (i,))
    word = lambda: BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3))))
    coeff = lambda: rng.choice([ONE, -ONE, Q, -Q, Q - 1])
    element = lambda: HeckeElement(n, tuple((word(), coeff()) for _ in range(rng.randint(1, 3))))
    products = [
        HeckeElement(n),
        HeckeProduct(n, (HeckeElement(n, ((one, Q), (sigma(1), ONE))),
                         HeckeElement(n, ((one, ONE), (sigma(1), -ONE))))),
        BraidWord(n, (1, 2, 1)),
        BraidWord(n, (2, 1, 2)),
    ]
    for _ in range(count):
        products.append(word() if rng.randint(0, 1) else
                        HeckeProduct(n, tuple(element() for _ in range(rng.randint(1, 2)))))
    products += rng.sample(products, 6)
    rng.shuffle(products)
    return products


@pytest.mark.parametrize("n, N, seed", [(3, 1, 0), (3, 2, 1), (4, 2, 2)])
def test_packed_and_decoded_equality_agree_within_one_push(unpacked, n, N, seed):
    products = random_products(random.Random(seed), n, 24)
    matrices = list(rho_batch(products, n, N))
    pairs = itertools.product(range(len(matrices)), repeat=2)
    packed = {(a, b): matrices[a] == matrices[b] for a, b in pairs}
    assert unpacked == []
    decoded = {(a, b): matrices[a].cols == matrices[b].cols for a, b in packed}
    assert packed == decoded
    # Both outcomes occur, and the zero products equal each other.
    assert set(packed.values()) == {True, False}
    zero = products.index(HeckeElement(n))
    assert sum(packed[zero, b] for b in range(len(matrices))) >= 2


def test_the_same_word_compares_equal_across_pushes_of_different_widths():
    word, longer = BraidWord(3, (1, 2, 1)), BraidWord(3, (1, 2) * 5)
    alone = rho_matrix(word, 2)
    beside, _ = rho_batch([word, longer], 3, 2)
    assert alone.width < beside.width
    assert alone.packed != beside.packed
    assert alone == beside and beside == alone


@pytest.mark.parametrize("letters", [(), (1,), (1, 2)])
def test_a_multiball_and_a_cabled_push_compare_by_their_decoded_columns(letters):
    # At n = 3 and N = K = 2 both have dim 27.  Given a letter, the
    # multi-ball push keeps only its roots packed, the cabled push every
    # column; the empty word is the identity in both.
    word = BraidWord(3, letters)
    ball, cable = rho_matrix(word, 2), rho_cabled_matrix(word, 2)
    assert ball.dim == cable.dim and ball.copies is not cable.copies
    if letters:
        assert ball.copies and not cable.copies
    assert (ball == cable) == (cable == ball) == (ball.cols == cable.cols) == (not letters)


@pytest.mark.parametrize(
    "check, args",
    [
        (check_hecke, (4, 2)),
        (check_braid_relation, (4, 2)),
        (check_stochastic, (3, 2)),
        (check_cabled_braid_relation, (4, 3)),
        (check_far_commutativity, (4, 2)),
        (check_specht, (5, 2, 1)),
    ],
    ids=["hecke", "braid", "stochastic", "cabled-braid", "far", "specht"],
)
def test_a_passing_check_decodes_nothing(unpacked, check, args):
    assert check(*args).passed
    assert unpacked == []


def test_a_failing_check_decodes_to_describe_the_failure(unpacked):
    report = check_hecke(3, 2, corrupt=True)
    assert not report.passed and report.failures
    assert unpacked


def test_cols_decodes_once(unpacked):
    m = rho_matrix(BraidWord(3, (1, 2, 1)), 2)
    assert m.cols is m.cols
    assert len(unpacked) == len(set(unpacked))
