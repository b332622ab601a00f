"""Positive braid words, minimal permutation braids, and the alternating
window elements built from them as products of coset ladders.

Conventions (fixed once, used everywhere):

* A word on n strands is a sequence of generator indices in 1..n-1, read
  first-to-last: the leftmost letter is the crossing the lanes meet first.
* A permutation w is a 1-based tuple of images, w(i) = final position of the
  lane that enters at position i.  ``permutation_of`` in ``tests/oracles.py``
  reads it off a word lane by lane, as the tests' oracle for this module.
* ``minimal_braid`` returns the canonical bubble-sort reduced word: scan
  positions left to right, emit sigma_p whenever the lanes at positions p,
  p+1 are out of order relative to their targets, repeat until sorted.  Its
  length always equals the inversion count of the permutation, so the sign
  of w is (-1)^len(minimal_braid(w)).
* A window element of m = N+2 positions is a ``HeckeProduct`` of coset
  ladders, O(m^2) letters, not the m! words of its direct sum, which
  ``tests/oracles.py`` keeps as the oracle.  A ladder's words are the
  prefixes of its longest word, so the push builds it as one Horner chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .qpoly import ONE, QPoly

Permutation = tuple[int, ...]


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word: n strands, letters in 1..n-1."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one strand, got n={self.n}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for i in self.letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(
                    f"generator index {i} out of range 1..{self.n - 1} for n={self.n}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(i) for i in self.letters)


def parse_word(text: str, n: int) -> BraidWord:
    """Parse whitespace-separated generator indices, e.g. "1 2 1"."""
    letters = []
    for tok in text.split():
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed generator token {tok!r}") from None
    return BraidWord(n, tuple(letters))


def minimal_braid(w: Permutation) -> BraidWord:
    """The canonical reduced word realizing w, length = inversion count."""
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {w!r}")
    lane_at = list(range(1, n + 1))
    letters: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for p in range(n - 1):
            if w[lane_at[p] - 1] > w[lane_at[p + 1] - 1]:
                letters.append(p + 1)
                lane_at[p], lane_at[p + 1] = lane_at[p + 1], lane_at[p]
                swapped = True
    return BraidWord(n, tuple(letters))


@dataclass(frozen=True)
class HeckeElement:
    """Formal linear combination sum_t c_t w_t of positive braid words with
    QPoly coefficients: the term list (w_t, c_t) as given, neither merged,
    sorted nor rewritten.  The push (``multiball.rho_element``) sums repeated
    words, cancels terms exactly and builds the rest by Horner's rule over
    the prefix trie of the words; a ladder's words are the prefixes of its
    longest word, so it is one chain."""

    n: int
    terms: tuple[tuple[BraidWord, QPoly], ...] = ()

    def __post_init__(self) -> None:
        if any(word.n != self.n for word, _c in self.terms):
            raise ValueError("all words in an element must share n")

    @property
    def factors(self) -> tuple[HeckeElement, ...]:
        """The element as a product of one factor, itself."""
        return (self,)


@dataclass(frozen=True)
class HeckeProduct:
    """The product f_1 f_2 ... f_r of elements on n strands, kept as its
    factors, which the push (``multiball.rho_element``) chains.  ``terms`` is
    the expansion: the word w_1 w_2 ... w_r with coefficient c_1 c_2 ... c_r
    for each choice of one term (w_p, c_p) of every factor, in the order of
    ``itertools.product``."""

    n: int
    factors: tuple[HeckeElement, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a product needs at least one factor")
        if any(f.n != self.n for f in self.factors):
            raise ValueError("all factors of a product must share n")

    @property
    def terms(self) -> tuple[tuple[BraidWord, QPoly], ...]:
        return tuple(
            (
                BraidWord(self.n, tuple(i for word, _c in choice for i in word.letters)),
                math.prod((c for _w, c in choice), start=ONE),
            )
            for choice in itertools.product(*(f.terms for f in self.factors))
        )


def validate_window(n: int, N: int, k: int) -> None:
    """Raise unless N >= 1 and the window k..k+N+1 fits in positions 1..n."""
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    if n < N + 2:
        raise ValueError(f"need n >= N + 2, got n={n}, N={N}")
    if not 1 <= k <= n - N - 1:
        raise ValueError(f"window start k={k} out of range 1..{n - N - 1}")


def _signed_sum(n: int, perms) -> HeckeElement:
    """The sum over the permutations w of sign(w) b_w, b_w the minimal braid
    of w and sign(w) = (-1)^len(b_w).  Distinct permutations have distinct
    minimal braids, so each term is one word with coefficient +-1."""
    signs = (ONE, -ONE)
    return HeckeElement(n, tuple((b, signs[len(b) % 2]) for b in map(minimal_braid, perms)))


def _ladder(n: int, start: int, stop: int) -> HeckeElement:
    """The signed sum over the moves of the lane at position ``start`` to each
    position from ``start`` to ``stop``, the lanes between moving one place
    back.  From b + 2 down to a, its words are (), (b+1), (b+1, b), ...,
    (b+1, b, ..., a): it grows the parabolic subgroup <s_a..s_b> by s_(b+1).
    From a - 1 up to b + 1, its words are (), (a-1), ..., (a-1, a, ..., b):
    it grows <s_a..s_b> by s_(a-1).  The moves are the minimal coset
    representatives (Humphreys, *Reflection Groups and Coxeter Groups*,
    ch. 1), so the product of the ladders of a chain of subgroups is the
    signed sum over the last one, each element once, as a reduced word.
    The words are the prefixes of the longest, with signs +-1 in turn, so
    the push builds a ladder as one Horner chain, 1 - T(1 - T(1 - ...))."""

    def moved(end: int) -> Permutation:
        exits = list(range(1, n + 1))  # exits[p - 1]: the lane that exits at p
        exits.insert(end - 1, exits.pop(start - 1))
        return tuple(exits.index(lane) + 1 for lane in range(1, n + 1))

    step = 1 if stop >= start else -1
    return _signed_sum(n, map(moved, range(start, stop + step, step)))


def specht_element(n: int, N: int, k: int) -> HeckeProduct:
    """The alternating sum x_k of the (N+2)! minimal permutation braids of the
    window {k, ..., k+N+1}, each with coefficient sign(w) = (-1)^length, as
    the product of ladders c_k c_(k+1) ... c_(k+N), where c_t grows
    <s_k..s_(t-1)> by s_t: c_t = sum_i (-1)^i T(t, t-1, ..., t-i+1) for
    i = 0..t-k+1.  Its words are the prefixes of T(t, t-1, ..., k), so the
    push builds c_t as one Horner chain, 1 - T_t(1 - T_(t-1)(1 - ...))."""
    validate_window(n, N, k)
    return HeckeProduct(n, tuple(_ladder(n, t + 1, k) for t in range(k, k + N + 1)))


def specht_half(n: int, N: int, k: int, i: int) -> HeckeProduct:
    """The half of the alternating window sum with w(i) < w(i+1), for which
    x_k = (1 - sigma_i) half_i: the product of the ladders of the chain that
    grows <s_i> first by s_(i+1), ..., s_(k+N), then by s_(i-1), ..., s_k."""
    validate_window(n, N, k)
    if not k <= i <= k + N:
        raise ValueError(f"position i={i} out of window range {k}..{k + N}")
    top = k + N + 1
    up = [_ladder(n, stop, i) for stop in range(i + 2, top + 1)]
    down = [_ladder(n, start, top) for start in range(i - 1, k - 1, -1)]
    return HeckeProduct(n, tuple(up + down))
