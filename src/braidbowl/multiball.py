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
The (v, u) entry of ``rho_matrix`` is the probability that bowling u
collects v.  Composition convention: the matrix of w_1 ... w_m is
M(w_m) @ ... @ M(w_1) acting on column vectors of input distributions.  The
push (``push_columns``) builds it right to left, M(l s) = M(s) @ M(l), one
suffix of the word at a time.  A crossing reads only the two counts (a, b)
it meets, so the push asks the fall distribution once per pair (a, b), not
per state, and moves the two digits of every state by index arithmetic; a
column that the crossing moves whole, with weight 1, is a column of M(s)
taken as it is.  rho is linear: ``rho_element`` of sum_t c_t w_t is one push
over the distinct suffixes of all the words, adding c_t M(w_t) as each word
is reached, so columns sum to sum_t c_t.

The check_* functions verify, in exact arithmetic, the braid relation, far
commutativity, the quadratic relation (q + sigma)(1 - sigma) = 0, the kernel
of the alternating window elements together with their factorization, and
the inverse formula sigma^{-1} = q^{-1}(sigma + q - 1) at rational q.
"""

from __future__ import annotations

from fractions import Fraction
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
    it not at all.  Each letter's generator columns G_l are tabulated once
    from those pairs, with no arithmetic per state: along the states, the
    pair (a, b) that sigma_i meets holds for a run of radix^(i-1) states and
    repeats with period radix^(i+1).  Each pair gives one shift of the
    index, an int where the crossing moves the state whole with weight 1,
    else a list of (offset, packed weight); one period of shifts, repeated
    to dim, lays out the table.

    The matrices are built right to left over the distinct suffixes of the
    words, in packed ints (``qpoly.pack``): M(()) is the identity and
    M(l s) = M(s) @ G_l, so column j of M(l s) is ``apply(M(s), G_l[j])``.
    Where G_l sends j to one state t with weight 1 (a <= b in the
    single-lane model), that column is column t of M(s) itself, shared, not
    copied.  Repeated words add their coefficients, and words whose sum is 0
    are dropped.  Only two layers of suffixes, of lengths L and L + 1, are
    held at once: once layer L is built, the words of length L are added,
    each scaled by its coefficient, into the running sum.  A lone word with
    coefficient 1 is its own sum.

    A generator column's weights have total coefficient L1 norm at most
    ``growth`` (at least 1), so a column of M(s) has norm at most
    growth^len(s).  By the triangle inequality no coefficient of an entry of
    M(s), for s a suffix of w_t, nor of any partial or total sum, exceeds
    sum_t |c_t|_1 growth^len(w_t) (|c|_1: the sum of |coefficient|), which
    sets the digit width B.  Every column, missing ones included, must sum
    to epsilon = sum_t c_t (1 for a word), else ``ValueError`` names it.
    The check is exact on the packed ints: ``pack`` is additive, and the
    coefficients of a column's sum (at most its L1 norm) and of epsilon (at
    most sum_t |c_t|_1) lie below 2^(B-1), where ``pack`` is injective; a
    faulty fall keeps this, as ``growth`` is read from its own weights.
    Branch weights are packed once, and each distinct entry is decoded once
    into a shared QPoly; the returned columns are distinct dicts.
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
    growth = max([1, *(sum(l1(w) for _c, w in cs) for cs in falls.values())])
    width = digit_width(sum(l1(c) * growth ** len(word) for word, c in terms))
    # moves[r]: (digit move, packed weight) per branch of the pair (a, b) that
    # run r of a period meets, r = a + radix b.  Digits i and i+1 move by
    # (d, -d), so the index moves by d (lo - hi).
    moves = [[(b + c - a, pack(w, width)) for c, w in falls[a, b]] for b in counts for a in counts]
    # gens[i][j]: the state t where sigma_i sends j with weight 1, else G_i[j].
    gens: dict[int, list[int | dict[int, int]]] = {}
    for i in letters:
        lo, hi = radix ** (i - 1), radix**i
        shifts = [
            ms[0][0] * (lo - hi) if len(ms) == 1 and ms[0][1] == 1
            else [(d * (lo - hi), x) for d, x in ms]
            for ms in moves
        ]
        # One period, hi * radix states, is the radix^2 runs of lo states each.
        period = [sh for sh in shifts for _ in range(lo)] * (dim // (hi * radix))
        gens[i] = [
            s + sh if type(sh) is int else {s + o: x for o, x in sh}
            for s, sh in zip(range(dim), period)
        ]
    step = lambda m, gen: {j: m[g] if type(g) is int else apply(m, g) for j, g in enumerate(gen)}
    ends: dict[tuple[int, ...], int] = {}
    for word, c in terms:
        ends[word.letters] = ends.get(word.letters, 0) + pack(c, width)
    ends = {word: x for word, x in ends.items() if x}
    layer = {(): {j: {j: 1} for j in range(dim)}}
    total: dict[int, dict[int, int]] = {}
    for length in range(max(map(len, ends), default=-1) + 1):
        if length:
            suffixes = {word[-length:] for word in ends if len(word) >= length}
            layer = {s: step(layer[s[1:]], gens[s[0]]) for s in suffixes}
        parts = [(layer[word], x) for word, x in ends.items() if len(word) == length]
        if total:
            parts.append((total, 1))
        if len(parts) == 1 and parts[0][1] == 1:
            total = parts[0][0]
        elif parts:
            mats, weights = (dict(enumerate(side)) for side in zip(*parts))
            total = {j: apply({k: m[j] for k, m in mats.items()}, weights) for j in range(dim)}
    epsilon = poly_sum(c for _word, c in terms)
    one = pack(epsilon, width)
    for j in range(dim):
        got = sum(total.get(j, {}).values())
        if got != one:
            raise ValueError(f"column {j} sums to {unpack(got, width)}, expected {epsilon}")
    decoded = {x: unpack(x, width) for x in set().union(*map(dict.values, total.values()))}
    return TransitionMatrix(
        dim, {j: {t: decoded[x] for t, x in col.items()} for j, col in total.items()}
    )


def rho_matrix(word: BraidWord, N: int) -> TransitionMatrix:
    """The transition matrix of a word."""
    _validate_sizes(word.n, N)
    return push_columns(((word, ONE),), word.n, N + 1, apply_generator)


def generator_matrix(i: int, n: int, N: int) -> TransitionMatrix:
    return rho_matrix(BraidWord(n, (i,)), N)


def rho_element(x: HeckeElement, N: int) -> TransitionMatrix:
    """Linear extension: the matrix of a formal combination of words."""
    _validate_sizes(x.n, N)
    return push_columns(x.terms, x.n, N + 1, apply_generator)


def fmt_state(u: BallState) -> str:
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
                        f"{label}: u={fmt_state(index_state(j, n, N))} "
                        f"v={fmt_state(index_state(i, n, N))} expected {ev} actual {gv}"
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

    Column sums of 1 need no check here: ``rho_matrix`` pushes (word, ONE), and
    ``push_columns`` checks that every column sums to 1 before it returns.
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
                    f"{fmt_state(index_state(j, n, N))} -> "
                    f"{fmt_state(index_state(bad, n, N))}"
                ),
            )
        high = next(
            ((i, j, v) for j, col in m.cols.items() for i, v in col.items() if v.degree > length),
            None,
        )
        report.record(
            high is None,
            lambda: (
                f"word '{word}': entry u={fmt_state(index_state(high[1], n, N))} "
                f"v={fmt_state(index_state(high[0], n, N))} is {high[2]}, "
                f"of degree above the word length"
            ),
        )
    return report
