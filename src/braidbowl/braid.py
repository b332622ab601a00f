"""Positive braid words, their permutations, and minimal permutation braids.

Conventions (fixed once, used everywhere):

* A word on n strands is a sequence of generator indices in 1..n-1, read
  first-to-last: the leftmost letter is the crossing the lanes meet first.
* ``permutation_of`` returns w with w(i) = final position of the lane that
  enters at position i, as a 1-based tuple of images.  Concatenating words
  composes permutations as permutation_of(u + v) = permutation_of(v) after
  permutation_of(u).
* ``minimal_braid`` returns the canonical bubble-sort reduced word: scan
  positions left to right, emit sigma_p whenever the lanes at positions p,
  p+1 are out of order relative to their targets, repeat until sorted.  Its
  length always equals the inversion count of the permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .qpoly import ONE, QPoly, inversions_perm

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

    def __mul__(self, other: BraidWord) -> BraidWord:
        """Concatenation: self's crossings are met first."""
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.n, self.letters + other.letters)

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


def permutation_of(word: BraidWord) -> Permutation:
    """The permutation sending each lane's entry position to its exit position."""
    lane_at = list(range(1, word.n + 1))  # lane_at[p-1] = lane currently at position p
    for i in word.letters:
        lane_at[i - 1], lane_at[i] = lane_at[i], lane_at[i - 1]
    images = [0] * word.n
    for pos, lane in enumerate(lane_at, start=1):
        images[lane - 1] = pos
    return tuple(images)


def sign(w: Permutation) -> int:
    return -1 if inversions_perm(w) % 2 else 1


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


@dataclass(frozen=True, eq=True)
class HeckeElement:
    """Formal linear combination of positive braid words with QPoly coefficients.

    Only positive words are stored; no symbolic rewriting modulo the quadratic
    relation happens here.  Identities involving these elements are checked
    after applying the representation.
    """

    n: int
    terms: tuple[tuple[BraidWord, QPoly], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[BraidWord, QPoly] = {}
        for word, coeff in self.terms:
            if word.n != self.n:
                raise ValueError("all words in an element must share n")
            acc = merged.get(word, QPoly()) + coeff
            if acc:
                merged[word] = acc
            elif word in merged:
                del merged[word]
        canon = tuple(sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0].letters)))
        object.__setattr__(self, "terms", canon)

    def coefficient(self, word: BraidWord) -> QPoly:
        for w, c in self.terms:
            if w == word:
                return c
        return QPoly()

    def __len__(self) -> int:
        return len(self.terms)


def _window_permutations(n: int, N: int, k: int):
    """All permutations of positions k..k+N+1 extended by the identity."""
    window = list(range(k, k + N + 2))
    for images in itertools.permutations(window):
        full = list(range(1, n + 1))
        for pos, img in zip(window, images):
            full[pos - 1] = img
        yield tuple(full)


def _check_window_args(n: int, N: int, k: int) -> None:
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    if n < N + 2:
        raise ValueError(f"need n >= N + 2, got n={n}, N={N}")
    if not 1 <= k <= n - N - 1:
        raise ValueError(f"window start k={k} out of range 1..{n - N - 1}")


def _signed_sum(n: int, perms) -> HeckeElement:
    """The sum of sign(w) times the minimal braid of w over the permutations w."""
    return HeckeElement(n, tuple((minimal_braid(w), sign(w) * ONE) for w in perms))


def specht_element(n: int, N: int, k: int) -> HeckeElement:
    """Alternating sum of the (N+2)! minimal permutation braids of the window
    {k, ..., k+N+1}, each with coefficient sign(w)."""
    _check_window_args(n, N, k)
    return _signed_sum(n, _window_permutations(n, N, k))


def specht_half(n: int, N: int, k: int, i: int) -> HeckeElement:
    """The half of the alternating window sum with w(i) < w(i+1)."""
    _check_window_args(n, N, k)
    if not k <= i <= k + N:
        raise ValueError(f"position i={i} out of window range {k}..{k + N}")
    return _signed_sum(n, (w for w in _window_permutations(n, N, k) if w[i - 1] < w[i]))
