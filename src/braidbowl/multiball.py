"""The multi-ball transition representation of positive braid words.

Model: a word on n strands is a bowling alley with n lanes.  Bowl u_i balls
into the lane entering at position i, at most N per lane.  At the crossing
sigma_i the lane entering at position i passes OVER the lane at position i+1
and exits at position i+1.  If the over lane carries a balls and the under
lane b, c of them fall into the under lane: position i then holds b + c and
position i+1 holds a - c.  A model is its fall distribution, the weight of
each c given (a, b); ``cabled`` is another.  Here (``apply_generator``):

* a <= b: nothing falls (c = 0, weight 1), so the counts swap.
* a > b: nothing falls with weight q (the counts swap), or a - b balls fall
  with weight 1 - q, which leaves the count tuple unchanged.

States are n-tuples with 0 <= u_i <= N, indexed in mixed radix base N+1.
``rho_matrix`` pushes every basis state through the word as a sparse
distribution; the (v, u) entry of the result is the probability that bowling
u collects v.  A crossing reads only the two counts (a, b) it meets, so the
push (``push_columns``) asks the fall distribution once per pair (a, b), not
per state, and moves the two digits of every state by index arithmetic.  rho is
linear: ``rho_element`` of sum_t c_t w_t is one push whose column j starts at
c_t for term t, so columns sum to sum_t c_t.  Composition convention: the
matrix of w_1 ... w_m is M(w_m) @ ... @ M(w_1) acting on column vectors of
input distributions.

The check_* functions verify, in exact arithmetic, the braid relation, far
commutativity, the quadratic relation (q + sigma)(1 - sigma) = 0, the kernel
of the alternating window elements together with their factorization, and
the inverse formula sigma^{-1} = q^{-1}(sigma + q - 1) at rational q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Callable, Iterable, Sequence

from .braid import BraidWord, HeckeElement, specht_element, specht_half
from .matrix import Matrix, TransitionMatrix, apply
from .qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly, digit_width, pack, poly_sum, unpack
from .report import CheckReport

BallState = tuple[int, ...]


def state_index(u: BallState, N: int) -> int:
    """Mixed-radix index of a state: sum of u_i (N+1)^(i-1)."""
    idx = 0
    for pos in range(len(u) - 1, -1, -1):
        c = u[pos]
        if not 0 <= c <= N:
            raise ValueError(f"count {c} at position {pos + 1} outside 0..{N}")
        idx = idx * (N + 1) + c
    return idx


def index_state(idx: int, n: int, N: int) -> BallState:
    if not 0 <= idx < (N + 1) ** n:
        raise ValueError(f"index {idx} outside 0..{(N + 1) ** n - 1}")
    out = []
    for _ in range(n):
        idx, c = divmod(idx, N + 1)
        out.append(c)
    return tuple(out)


def all_states(n: int, N: int):
    """All ball states in index order."""
    return (index_state(idx, n, N) for idx in range((N + 1) ** n))


Fall = Callable[[int, int], Iterable[tuple[int, QPoly]]]


def apply_generator(a: int, b: int) -> tuple[tuple[int, QPoly], ...]:
    """The single-lane fall distribution, (c, weight) for over count a and
    under count b.  The push calls it by this module-global name, which
    ``perfbench/layertrace.py`` wraps to count branches, so the name stays
    until the benchmark is revised."""
    return ((0, ONE),) if a <= b else ((0, Q), (a - b, ONE_MINUS_Q))


def _validate_sizes(n: int, N: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if N < 1:
        raise ValueError(f"need N >= 1 (N = 0 is the trivial representation), got {N}")


def push_columns(
    terms: Sequence[tuple[BraidWord, QPoly]], n: int, radix: int, fall: Fall
) -> TransitionMatrix:
    """The matrix of a combination sum_t c_t w_t of positive words on
    count-tuple states; a word w is the one term (w, ONE).

    A state is an n-tuple of counts in 0..radix-1, at index ``state_index``.
    ``fall(a, b)`` is the model: the (c, weight) branches, with distinct c, of
    a crossing whose over lane holds a balls and under lane b.  c balls fall,
    so sigma_i moves positions i and i+1 of u from (a, b) = (u_i, u_(i+1)) to
    (b + c, a - c) and leaves the rest: a branch's index is u's index with
    those two digits moved by (b + c - a, a - c - b).  A c outside
    0..min(a, radix-1-b) would move a digit out of its range, so it raises
    ``ValueError`` naming the pair.  When the terms hold a letter, ``fall`` is
    called once for each of the radix^2 pairs; a push without letters calls
    it not at all.  Each letter's generator columns are tabulated once from
    those pairs.

    Column j of term t starts as {j: c_t}, is pushed through w_t with
    ``apply`` on packed ints (``qpoly.pack``), and ``apply`` sums the terms.
    A generator column's weights have total coefficient L1 norm at most
    ``growth``, so by the triangle inequality no coefficient of any partial or
    total sum exceeds sum_t |c_t|_1 growth^len(w_t) (|c|_1: the sum of
    |coefficient|), which sets the digit width.  Each branch weight is packed
    once, and each distinct entry is decoded once into a shared QPoly.
    """
    dim = radix**n
    letters = {i for word, _c in terms for i in word.letters}
    counts = range(radix if letters else 0)
    falls = {(a, b): tuple(fall(a, b)) for a in counts for b in counts}
    for (a, b), cs in falls.items():
        top = min(a, radix - 1 - b)
        bad = next((c for c, _w in cs if not 0 <= c <= top), None)
        if bad is not None:
            raise ValueError(f"fall({a}, {b}) gives c = {bad}, outside 0..{top}")
    l1 = lambda p: sum(map(abs, p.coeffs))
    growth = max((sum(l1(w) for _c, w in cs) for cs in falls.values()), default=1)
    width = digit_width(sum(l1(c) * growth ** len(word) for word, c in terms))
    moves = {
        (a, b): [(b + c - a, a - c - b, pack(w, width)) for c, w in cs]
        for (a, b), cs in falls.items()
    }
    gens: dict[int, dict[int, dict[int, int]]] = {}
    for i in letters:
        lo, hi = radix ** (i - 1), radix**i
        gens[i] = {}
        for s in range(dim):
            a, b = s // lo % radix, s // hi % radix
            gens[i][s] = {s + d0 * lo + d1 * hi: x for d0, d1, x in moves[a, b]}
    starts = [(word.letters, pack(c, width)) for word, c in terms]
    step = lambda dist, i: apply(gens[i], dist)
    ones = dict.fromkeys(range(len(starts)), 1)
    cols: dict[int, dict[int, int]] = {}
    for j in range(dim):
        pushed = {t: reduce(step, word, {j: c}) for t, (word, c) in enumerate(starts)}
        # One term is already the sum; apply would copy it (3-19% slower on rho/cabled).
        cols[j] = pushed[0] if len(starts) == 1 else apply(pushed, ones)
    decoded = {x: unpack(x, width) for x in set().union(*map(dict.values, cols.values()))}
    return TransitionMatrix(
        dim,
        {j: {t: decoded[x] for t, x in col.items()} for j, col in cols.items()},
        poly_sum(c for _word, c in terms),
    )


def rho_matrix(word: BraidWord, N: int) -> TransitionMatrix:
    """The transition matrix of a word, built column by column."""
    _validate_sizes(word.n, N)
    return push_columns(((word, ONE),), word.n, N + 1, apply_generator)


def generator_matrix(i: int, n: int, N: int) -> TransitionMatrix:
    return rho_matrix(BraidWord(n, (i,)), N)


def rho_element(x: HeckeElement, N: int) -> Matrix:
    """Linear extension: the matrix of a formal combination of words."""
    _validate_sizes(x.n, N)
    return push_columns(x.terms, x.n, N + 1, apply_generator)


def _fmt_state(u: BallState) -> str:
    return "[" + ",".join(str(c) for c in u) + "]"


def _record_matrix_equal(
    report: CheckReport,
    label: str,
    got: Matrix,
    expected: Matrix,
    n: int,
    N: int,
) -> None:
    """Record got == expected; a failure names the first differing entry."""

    def describe():
        for j in sorted(got.cols | expected.cols):
            gcol, ecol = got.cols.get(j, {}), expected.cols.get(j, {})
            for i in sorted(gcol | ecol):
                gv, ev = gcol.get(i, ZERO), ecol.get(i, ZERO)
                if gv != ev:
                    return (
                        f"{label}: u={_fmt_state(index_state(j, n, N))} "
                        f"v={_fmt_state(index_state(i, n, N))} expected {ev} actual {gv}"
                    )

    report.record(got == expected, describe)


def record_word_pairs(
    report: CheckReport,
    pairs: Sequence[tuple[BraidWord, BraidWord]],
    matrix_of: Callable[[BraidWord], Matrix],
    n: int,
    cap: int,
) -> CheckReport:
    """Record matrix_of(left) == matrix_of(right) for every (left, right) pair,
    reporting the first differing entry on states with counts in 0..cap."""
    for left, right in pairs:
        _record_matrix_equal(
            report, f"{left} vs {right}", matrix_of(left), matrix_of(right), n, cap
        )
    return report


def braid_pairs(n: int) -> list[tuple[BraidWord, BraidWord]]:
    """(sigma_i sigma_{i+1} sigma_i, sigma_{i+1} sigma_i sigma_{i+1}) for every i."""
    if n < 3:
        raise ValueError(f"braid relation needs n >= 3, got {n}")
    return [
        (BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))) for i in range(1, n - 1)
    ]


def far_pairs(n: int) -> list[tuple[BraidWord, BraidWord]]:
    """(sigma_i sigma_j, sigma_j sigma_i) for every |i - j| > 1."""
    return [
        (BraidWord(n, (i, j)), BraidWord(n, (j, i)))
        for i in range(1, n)
        for j in range(i + 2, n)
    ]


def check_braid_relation(n: int, N: int) -> CheckReport:
    """rho(sigma_i sigma_{i+1} sigma_i) = rho(sigma_{i+1} sigma_i sigma_{i+1})."""
    _validate_sizes(n, N)
    report = CheckReport(name=f"braid-relation n={n} N={N}")
    return record_word_pairs(report, braid_pairs(n), lambda w: rho_matrix(w, N), n, N)


def check_far_commutativity(n: int, N: int) -> CheckReport:
    """rho(sigma_i sigma_j) = rho(sigma_j sigma_i) for |i - j| > 1."""
    _validate_sizes(n, N)
    if n < 4:
        raise ValueError(f"far commutativity needs n >= 4, got {n}")
    report = CheckReport(name=f"far-commutativity n={n} N={N}")
    return record_word_pairs(report, far_pairs(n), lambda w: rho_matrix(w, N), n, N)


def check_hecke(n: int, N: int, corrupt: bool = False) -> CheckReport:
    """(q I + rho(sigma_i)) @ (I - rho(sigma_i)) = 0 for every generator.

    ``corrupt`` is a test-only negative control: it perturbs the first
    generator matrix so the check must fail and report the entry.
    """
    _validate_sizes(n, N)
    if n < 2:
        raise ValueError(f"quadratic relation needs n >= 2, got {n}")
    dim = (N + 1) ** n
    ident = Matrix.identity(dim)
    report = CheckReport(name=f"hecke-quadratic n={n} N={N}")
    for i in range(1, n):
        m = generator_matrix(i, n, N)
        if corrupt and i == 1:
            m = m + Matrix(dim, {0: {0: ONE}})
        product = (ident.scale(Q) + m) @ (ident - m)
        _record_matrix_equal(
            report, f"(q+sigma_{i})(1-sigma_{i})", product, Matrix(dim), n, N
        )
    return report


def check_specht(n: int, N: int, k: int) -> CheckReport:
    """The alternating window element x_k dies under rho, factors through
    (1 - sigma_i) for every window position i, and satisfies
    rho(x_k) @ rho(sigma_j) = -q rho(x_k) for window generators j.

    The eigen-identity follows from the kernel comparison: once rho(x_k) = 0
    passes, each side is zero, so it tells something only when that fails.
    It stays because ``perfbench/golden.json`` counts it; at N' = N+1,
    where x_k is not killed (ROADMAP's window-sum item), it is not vacuous."""
    _validate_sizes(n, N)
    x = specht_element(n, N, k)
    dim = (N + 1) ** n
    rho_x = rho_element(x, N)
    report = CheckReport(name=f"specht-kernel n={n} N={N} k={k}")
    _record_matrix_equal(report, f"rho(x_{k})", rho_x, Matrix(dim), n, N)
    ident = Matrix.identity(dim)
    for i in range(k, k + N + 1):
        half = rho_element(specht_half(n, N, k, i), N)
        gen = generator_matrix(i, n, N)
        factored = half @ (ident - gen)
        _record_matrix_equal(
            report, f"rho(x_{k}) = rho(half_{i})(I - sigma_{i})", rho_x, factored, n, N
        )
        twisted = rho_x @ gen
        _record_matrix_equal(
            report, f"rho(x_{k}) sigma_{i} = -q rho(x_{k})", twisted, rho_x.scale(-Q), n, N
        )
    return report


def check_inverse(n: int, N: int, x: Fraction) -> CheckReport:
    """At q = x != 0, rho(sigma_i) * x^{-1}(rho(sigma_i) + (x - 1) I) = I."""
    _validate_sizes(n, N)
    if n < 2:
        raise ValueError(f"inverse check needs n >= 2, got {n}")
    x = Fraction(x)
    if x == 0:
        raise ValueError("q = 0 is not invertible")
    dim = (N + 1) ** n
    ident = Matrix.identity(dim).eval_at(x)
    report = CheckReport(name=f"inverse-formula n={n} N={N} q={x}")
    for i in range(1, n):
        m = generator_matrix(i, n, N).eval_at(x)
        candidate = (m + ident.scale(x - 1)).scale(1 / x)
        _record_matrix_equal(report, f"sigma_{i} sigma_{i}^-1", m @ candidate, ident, n, N)
    return report


STOCHASTIC_WORDS = 100
STOCHASTIC_MAX_LEN = 8
STOCHASTIC_SEED = 0


def check_stochastic(n: int, N: int) -> CheckReport:
    """Seeded random words: every entry of a column conserves the count
    multiset of its state, and every entry has degree at most the word length.

    Column sums of 1 need no check here: ``rho_matrix`` pushes (word, ONE), so
    ``push_columns`` passes the total 1 to ``TransitionMatrix``, which checks it.
    """
    import random

    _validate_sizes(n, N)
    rng = random.Random(STOCHASTIC_SEED)
    report = CheckReport(name=f"stochastic n={n} N={N} words={STOCHASTIC_WORDS}")
    multisets = [tuple(sorted(u)) for u in all_states(n, N)]
    for _ in range(STOCHASTIC_WORDS):
        length = rng.randint(0, STOCHASTIC_MAX_LEN)
        letters = tuple(rng.randint(1, n - 1) for _ in range(length)) if n > 1 else ()
        word = BraidWord(n, letters)
        m = rho_matrix(word, N)
        for j in range(m.dim):
            bad = next((i for i in m.cols.get(j, {}) if multisets[i] != multisets[j]), None)
            report.record(
                bad is None,
                lambda: (
                    f"word '{word}': count multiset changes "
                    f"{_fmt_state(index_state(j, n, N))} -> "
                    f"{_fmt_state(index_state(bad, n, N))}"
                ),
            )
        high = next(
            ((i, j, v) for j, col in m.cols.items() for i, v in col.items() if v.degree > length),
            None,
        )
        report.record(
            high is None,
            lambda: (
                f"word '{word}': entry u={_fmt_state(index_state(high[1], n, N))} "
                f"v={_fmt_state(index_state(high[0], n, N))} is {high[2]}, "
                f"of degree above the word length"
            ),
        )
    return report
