"""Counting oracles the tests check the package against: inversion counts and
the permutation of a braid word, each by direct enumeration.

``permutation_of`` returns w with w(i) = final position of the lane that
enters at position i, as a 1-based tuple of images; this is the convention of
``braid.minimal_braid``'s input.  Concatenating words composes permutations as
permutation_of(u + v) = permutation_of(v) after permutation_of(u).
"""

import itertools


def inversions_perm(w):
    """Number of pairs i < j with w(i) > w(j)."""
    return sum(
        1
        for i, j in itertools.combinations(range(len(w)), 2)
        if w[i] > w[j]
    )


def inversions_binary(s):
    """Number of pairs i < j with s_i = 1 and s_j = 0."""
    ones = 0
    count = 0
    for e in s:
        if e == 1:
            ones += 1
        elif e == 0:
            count += ones
        else:
            raise ValueError(f"binary sequence expected, got entry {e!r}")
    return count


def permutation_of(word):
    """The permutation sending each lane's entry position to its exit position."""
    lane_at = list(range(1, word.n + 1))  # lane_at[p-1] = lane currently at position p
    for i in word.letters:
        lane_at[i - 1], lane_at[i] = lane_at[i], lane_at[i - 1]
    images = [0] * word.n
    for pos, lane in enumerate(lane_at, start=1):
        images[lane - 1] = pos
    return tuple(images)
