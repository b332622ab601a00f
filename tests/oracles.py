"""Oracles the tests check the package against: inversion counts and the
permutation of a braid word, each by direct enumeration, the alternating
window sums as direct sums over all (N+2)! window permutations, the
q-combinatorics of the cabled closed form as first written, with q-factorials
and powers of 1 - q, a generator matrix built state by state and one read
off ``rho_matrix``, the matrix of a product of combinations of words by a
sweep over the suffixes of their words, the entries of a matrix in output
order, the CLI's matrix output written from the decoded ``cols``, the
column-sum check on decoded polynomials, the words that
``check_stochastic`` draws, in the order drawn, and the ``Matrix``
arithmetic that only the tests compute: the identity, a scalar multiple and
a difference.

``permutation_of`` returns w with w(i) = final position of the lane that
enters at position i, as a 1-based tuple of images; this is the convention of
``braid.minimal_braid``'s input.  Concatenating words composes permutations as
permutation_of(u + v) = permutation_of(v) after permutation_of(u).
"""

import functools
import itertools
import json
import random

from braidbowl.cabled import gauss_binom
from braidbowl.cli import fraction_to_json
from braidbowl.matrix import Matrix, apply
from braidbowl.braid import BraidWord, HeckeElement, minimal_braid
from braidbowl import multiball
from braidbowl.multiball import index_state, rho_matrix, state_index
from braidbowl.qpoly import ONE, ONE_MINUS_Q, ZERO, QPoly, poly_sum


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


def window_permutations(n, N, k):
    """All permutations of positions k..k+N+1 extended by the identity."""
    window = list(range(k, k + N + 2))
    for images in itertools.permutations(window):
        full = list(range(1, n + 1))
        for pos, img in zip(window, images):
            full[pos - 1] = img
        yield tuple(full)


def direct_sum(n, N, k, i=None):
    """The alternating window sum x_k as the direct sum over its (N+2)!
    permutations w of (-1)^inversions(w) times the minimal braid of w; with
    i, the half of it with w(i) < w(i+1)."""
    return HeckeElement(n, tuple(
        (minimal_braid(w), (-1) ** inversions_perm(w) * ONE)
        for w in window_permutations(n, N, k)
        if i is None or w[i - 1] < w[i]
    ))


def power(p, k):
    """p^k for k >= 0, by repeated multiplication."""
    out = ONE
    for _ in range(k):
        out = out * p
    return out


def quantum_int(k):
    """[k] = 1 + q + ... + q^{k-1}, the formal quotient (1 - q^k)/(1 - q)."""
    if k < 0:
        raise ValueError(f"quantum integer needs k >= 0, got {k}")
    return QPoly((1,) * k)


def q_factorial(k):
    """[k]! = [k][k-1]...[1], with [0]! = 1."""
    if k < 0:
        raise ValueError(f"q-factorial needs k >= 0, got {k}")
    out = ONE
    for i in range(1, k + 1):
        out = out * quantum_int(i)
    return out


def qfact_by_inversions(k):
    """[k]! as the inversion-count generating function of the permutations of k."""
    return poly_sum(
        QPoly.monomial(inversions_perm(w))
        for w in itertools.permutations(range(1, k + 1))
    )


def gauss_by_inversions(k, r):
    """gauss(k, r) as the inversion-count generating function of the 0/1
    sequences of length k with r ones."""
    return poly_sum(
        QPoly.monomial(inversions_binary(s))
        for s in itertools.product((0, 1), repeat=k)
        if sum(s) == r
    )


def falling_probability_by_factorials(K, a, b, c):
    """The cabled closed form as gauss(a, c) gauss(K-b, c) [c]! (1-q)^c
    q^((a-c)(K-b-c)), for 0 <= a, b <= K, and 0 when c > min(a, K-b)."""
    if c > min(a, K - b):
        return ZERO
    out = gauss_binom(a, c) * gauss_binom(K - b, c) * q_factorial(c)
    return out * power(ONE_MINUS_Q, c) * QPoly.monomial((a - c) * (K - b - c))


def generator_by_states(i, n, cap, fall):
    """The matrix of sigma_i on n strands with counts in 0..cap, one state at
    a time: decode the state, read its counts (a, b) at positions i and i+1,
    and send it to (b + c, a - c) there with fall(a, b)'s weight for c."""
    cols = {}
    for j in range((cap + 1) ** n):
        u = index_state(j, n, cap)
        a, b = u[i - 1], u[i]
        cols[j] = {
            state_index(u[: i - 1] + (b + c, a - c) + u[i + 1 :], cap): w for c, w in fall(a, b)
        }
    return Matrix((cap + 1) ** n, cols)


def identity(dim):
    """The dim x dim identity matrix over Z[q]."""
    return Matrix(dim, {j: {j: ONE} for j in range(dim)})


def scale(m, scalar):
    """scalar * m, the zero matrix for a zero scalar."""
    if not scalar:
        return Matrix(m.dim)
    return Matrix(m.dim, {j: {i: scalar * v for i, v in col.items()} for j, col in m.cols.items()})


def difference(a, b):
    """a - b: one ``apply`` per column, with weights 1 and -1."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    pair = lambda j: {0: a.cols.get(j, {}), 1: b.cols.get(j, {})}
    return Matrix(a.dim, {j: apply(pair(j), {0: 1, 1: -1}) for j in a.cols | b.cols})


def suffix_sweep(factors, n, cap, fall):
    """The matrix of the product of ``factors``, each a list of (word,
    coefficient) terms on n strands, in QPoly matrices, by the push's design
    before Horner's rule.  A factor is built right to left over the distinct
    suffixes of its words, one layer of suffixes of length L at a time:
    M(()) = I and M(l s) = M(s) @ G_l, with G_l from ``generator_by_states``,
    and c_w M(w) is added into the factor's sum once the layer of w is built.
    The factors are chained as rho(f_1 ... f_r) = rho(f_r) @ ... @ rho(f_1)."""
    dim = (cap + 1) ** n
    gen = functools.cache(lambda i: generator_by_states(i, n, cap, fall))
    total = None
    for terms in factors:
        words = {word.letters for word, _c in terms}
        layer = {(): identity(dim)}
        out = Matrix(dim)
        for length in range(max(map(len, words), default=-1) + 1):
            if length:
                suffixes = {w[-length:] for w in words if len(w) >= length}
                layer = {s: layer[s[1:]] @ gen(s[0]) for s in suffixes}
            for word, c in terms:
                if len(word) == length:
                    out = out + scale(layer[word.letters], c)
        total = out if total is None else out @ total
    return total


def generator_matrix(i, n, N):
    """The multi-ball matrix of the one-letter word sigma_i on n strands."""
    return rho_matrix(BraidWord(n, (i,)), N)


def entries_sorted(m):
    """All nonzero entries of m as (row, col, value), sorted by (col, row):
    the order of the CLI's output."""
    for j in sorted(m.cols):
        col = m.cols[j]
        for i in sorted(col):
            yield i, j, col[i]


def written_matrix(m, word, cap_name, cap, fmt="json", eval_q=None):
    """The text ``braidbowl rho`` or ``cabled`` prints for m, the matrix of
    ``word`` at cap ``cap``, as the CLI first wrote it: the whole matrix
    decoded into ``cols`` (and evaluated by ``Matrix.eval_at``), walked one
    sorted column at a time, each distinct entry object formatted once."""
    if eval_q is not None:
        m = m.eval_at(eval_q)
    shown = {}
    if fmt == "json":
        text_of = QPoly.json_text if eval_q is None else (lambda v: json.dumps(fraction_to_json(v)))
        entries = []
        for j in sorted(m.cols):
            col = m.cols[j]
            for i in sorted(col):
                text = shown.get(id(v := col[i]))
                if text is None:
                    text = shown[id(v)] = text_of(v)
                entries.append(f"[{i}, {j}, {text}]")
        meta = {"n": word.n, cap_name: cap, "dim": m.dim, "entries": []}
        head, tail = json.dumps(meta).rsplit("[]", 1)
        return f"{head}[{', '.join(entries)}]{tail}\n"
    label = [str(list(u)) for u in multiball.all_states(word.n, cap)]
    lines = [f"n={word.n} {cap_name}={cap} word='{word}' dim={m.dim}"]
    for j in sorted(m.cols):
        col = m.cols[j]
        for i in sorted(col):
            text = shown.get(id(v := col[i]))
            if text is None:
                text = shown[id(v)] = str(v)
            lines.append(f"  u={label[j]} -> v={label[i]}: {text}")
    return "\n".join(lines) + "\n"


def column_sum_failure(m, total):
    """The first column of m, absent ones included, whose decoded entries do
    not sum to ``total``, in the push's error text; None if there is none."""
    for j in range(m.dim):
        got = poly_sum(m.cols.get(j, {}).values())
        if got != total:
            return f"column {j} sums to {got}, expected {total}"
    return None


def drawn_stochastic_words(n):
    """The words of ``check_stochastic`` on n strands, in the order drawn."""
    rng = random.Random(multiball.STOCHASTIC_SEED)
    words = []
    for _ in range(multiball.STOCHASTIC_WORDS):
        length = rng.randint(0, multiball.STOCHASTIC_MAX_LEN)
        words.append(BraidWord(n, tuple(rng.randint(1, n - 1) for _ in range(length))))
    return words
