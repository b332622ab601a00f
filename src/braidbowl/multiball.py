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
M(w_m) @ ... @ M(w_1) acting on column vectors of input distributions.
``push_columns`` builds it right to left, M(l s) = M(s) @ M(l), one ``step``
per letter, so each partial is the matrix of a suffix.  rho is linear and
multiplicative, so the push also returns, as a list in input order, the
matrices of a batch of products of sums of words (``rho_batch``).  It builds
each distinct path once, and a suffix that paths share once, whatever their
order; a failing column sum raises before anything is returned.
``rho_matrix`` and ``rho_element`` are batches of one.  Each matrix stays
packed until its ``cols`` are read (``matrix.TransitionMatrix``).

A crossing here compares only its two counts, so rho commutes with every
order-preserving relabelling of count values, and the block of a count
multiset is the Hecke permutation module M^mu of its composition (Dipper
and James, Proc. LMS 1986).  So ``push_columns`` pushes one column per
relabelling orbit and copies the rest, where the fall's table shows this.

The check_* functions verify, in exact arithmetic, the braid relation, far
commutativity, the quadratic relation (q + sigma)(1 - sigma) = 0, the kernel
of the alternating window elements together with their factorization and
eigen-identity, and the inverse formula sigma (sigma + q - 1) = q, so
sigma^{-1} = q^{-1}(sigma + q - 1) at rational q != 0.  Each of these matrix
checks compares two products, each side of every comparison pushed, with
no ``Matrix`` arithmetic: ``pushed_pairs`` pushes both sides of a list of
labelled (left, right) pairs in one batch.  The checks yield their (label,
got, expected) comparisons in order, and ``matrix_report`` records them: a
failure names the first entry where got and expected differ.  Sides from
one push compare packed, so a passing check decodes nothing but what the
inverse check evaluates.  ``check_stochastic`` checks packed columns, not
matrices, and records its own in one pass, one test per invariant, over its
100 random words pushed in one batch in the order drawn.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .braid import BraidWord, HeckeElement, HeckeProduct, specht_element, specht_half
from .matrix import Matrix, TransitionMatrix, apply
from .qpoly import ONE, ONE_MINUS_Q, Q, ZERO, QPoly, digit_width, pack, poly_sum
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


Factor = Sequence[tuple[BraidWord, QPoly]]


def step(m: dict[int, dict[int, int]], gen: dict, c: int = 0) -> dict[int, dict[int, int]]:
    """c I + M @ G on the packed columns ``m`` of M, empty ones included, and
    the table ``gen`` of G, keyed by the columns pushed: column j is column t
    of M itself where G sends j to t with weight 1, else ``apply(m, gen[j])``;
    where c != 0, a copy with c added at row j.  Called by this module-global
    name, which tests wrap."""
    if not c:
        return {j: m[g] if type(g) is int else apply(m, g) for j, g in gen.items()}
    out = {}
    for j, g in gen.items():
        col = out[j] = dict(m[g]) if type(g) is int else apply(m, g)
        col[j] = col.get(j, 0) + c
        if not col[j]:
            del col[j]
    return out


def push_columns(
    products: Sequence[Sequence[Factor]], n: int, radix: int, fall: Fall
) -> list[TransitionMatrix]:
    """The matrix of each product in ``products``, as a list in order.  A
    product f_1 ... f_r is given by its factors, and a factor
    f_p = sum_t c_t w_t, a combination of positive words on n strands, by its
    terms; a word w is the product of the one factor with the one term
    (w, ONE).

    A state is an n-tuple of counts in 0..radix-1, at index ``state_index``.
    ``fall(a, b)`` is the model: the (c, weight) branches, with distinct c, of
    a crossing whose over lane holds a balls and under lane b.  c balls fall,
    so sigma_i moves positions i and i+1 of u from (a, b) = (u_i, u_(i+1)) to
    (b + c, a - c) and leaves the rest: a branch's index is u's index with
    those two digits moved by (b + c - a, a - c - b).  A c outside
    0..min(a, radix-1-b) would move a digit out of its range, so it raises
    ``ValueError`` naming the pair.  When the batch holds a letter, ``fall``
    is called once for each of the radix^2 pairs; a batch without letters
    calls it not at all.  Each letter's generator columns G_l are tabulated
    once per call from those pairs, at the pushed columns only (the roots,
    below).  Each pair gives one shift of the index, an int where the
    crossing moves the state whole with weight 1, else a list of (offset,
    packed weight).  At sigma_i a state s meets the pair of its digits i and
    i+1, the pair numbered s // radix^(i-1) % radix^2, and its column is s
    moved by that pair's shift.

    Orbits.  Where each branch swaps the pair (c = 0) or keeps it
    (c = a - b), with branches and weights set by the order of a and b alone
    (the multi-ball fall, not the cabled ones at K >= 2), every
    order-preserving map of count values commutes with each G_l.  Then only
    the roots are pushed, the states whose values are exactly 0..k-1; a
    crossing keeps the count multiset, so a root's rows are roots.  Every
    other state is a copy, its root with values moved up by such a map: its
    column is the root's with the rows moved by that map, which is monotone
    in index, and is not stored; decoded, it shares the root's entries.  The
    orbit tables visit only the value sets of copies, of at most
    min(n, radix - 1) values.
    Otherwise every state is its own root.

    Then the push reads each product from its end,
    rho(f_1 ... f_r) = rho(f_r) @ ... @ rho(f_1), as a path of int atoms:
    the letters of a factor that is one word with coefficient ONE, one
    ``step`` each, else one negative id per distinct factor, built when the
    chain reaches it and chained by column j of P @ F being
    ``apply(P, F[j])``.  So each partial is rho of a suffix.  The push builds
    each distinct path once, in sorted order, so paths that share a prefix
    are adjacent; it keeps only the partials of the atoms that the next path
    starts with too, and starts it from the deepest.  So any batch steps each
    distinct path prefix once, products with equal paths share one matrix,
    and a lone product keeps nothing.  Within a factor, repeated words add
    their coefficients and words whose sum is 0 are dropped.  A factor is
    built in packed ints (``qpoly.pack``) by Horner's rule over the prefix
    trie of its words, deepest nodes first: the node of a prefix p has
    M(p) = sum over its words p t of c_(p t) rho(t) = c_p I + sum over its
    children p l of ``step(M(p l), G_l)``, and the factor is M at the root.
    A coset ladder, whose words are the prefixes of its longest word, is a
    chain with signs +-1 in turn, so m words cost m - 1 steps.  Every column
    of a product, missing ones included, must sum to its own epsilon
    = prod_p sum_t c_t, which one product of its path gives, as the products
    of a path share their factors other than words.  It reads the roots only:
    a copy sums to its root's sum, and the root has the lower index.  A
    failing column raises ``ValueError`` naming it, before anything is
    returned; else the matrices come back as a list in input order.

    Digit width.  A generator column has total coefficient L1 norm at most
    ``growth`` (read from the fall's own weights, at least 1), so a column
    of rho(t) has norm at most growth^len(t).  M(p) is a sum over the words
    below p, so no coefficient of it, nor of a partial sum that builds it,
    exceeds the factor's bound sum_t |c_t|_1 growth^len(w_t) (|c|_1: the sum
    of |coefficient|); |.|_1 is submultiplicative, so a partial or total
    product stays within the product of its factors' bounds.  B is set once
    from the largest product bound, which keeps every product exact:
    ``pack`` is additive, multiplicative and injective on coefficients below
    2^(B-1), so the column-sum check on the packed ints is exact too.
    Branches of weight 0 are skipped and ``apply`` and ``step`` drop
    cancelled sums, so no packed entry is 0.
    Each product is returned packed, as a ``TransitionMatrix`` of its root
    columns, with the copies table and B that the call's matrices share.
    """
    dim = radix**n
    terms = [t for factors in products for factor in factors for t in factor]
    if any(word.n != n for word, _c in terms):
        raise ValueError(f"every word of a push on {n} strands must have {n} strands")
    letters = {i for word, _c in terms for i in word.letters}
    counts = range(radix if letters else 0)
    falls = {(a, b): tuple(fall(a, b)) for a in counts for b in counts}
    orders: dict[int, list[tuple[bool, bool, QPoly]]] = {}
    relabels = True
    for (a, b), cs in falls.items():
        top = min(a, radix - 1 - b)
        bad = next((c for c, _w in cs if not 0 <= c <= top), None)
        if bad is not None:
            raise ValueError(f"fall({a}, {b}) gives c = {bad}, outside 0..{top}")
        # A branch swaps the pair (c = 0) or keeps it (c = a - b), or neither.
        shape = [(c == 0, c == a - b, w) for c, w in cs if w]
        relabels = relabels and orders.setdefault((a > b) - (a < b), shape) == shape
    # Every pair matched the first pair of its order, so those stand for all.
    relabels = relabels and all(swap or keep for s in orders.values() for swap, keep, _w in s)
    # copies[j] = (r, rows): state j is root r with its k values moved up to
    # ``values``, and rows maps r's rows onto j's.  A root is read as places[v],
    # the sum of radix^(i-1) over the positions i of its value v.
    copies: dict[int, tuple[int, dict[int, int]]] = {}
    for k in range(1, min(n, radix - 1) + 1) if relabels else ():
        base = [
            [sum(radix**i for i, x in enumerate(u) if x == v) for v in range(k)]
            for u in itertools.product(range(k), repeat=n) if len(set(u)) == k
        ]
        rs = [sum(map(mul, range(k), places)) for places in base]
        for values in itertools.islice(itertools.combinations(range(radix), k), 1, None):
            js = [sum(map(mul, values, places)) for places in base]
            rows = dict(zip(rs, js))
            copies.update(zip(js, zip(rs, itertools.repeat(rows))))
    roots = [j for j in range(dim) if j not in copies]
    l1 = lambda p: sum(map(abs, p.coeffs))
    growth = max([1, *(sum(l1(w) for _c, w in cs) for cs in falls.values())])
    bound = lambda factor: sum(l1(c) * growth ** len(word) for word, c in factor)
    width = digit_width(max((math.prod(map(bound, factors)) for factors in products), default=1))
    # moves[r]: (digit move, packed weight) per branch of the pair (a, b),
    # r = a + radix b, that sigma_i meets at s where s // lo % radix^2 = r.
    # Digits i and i+1 move by (d, -d), so the index moves by d (lo - hi).
    moves = [
        [(b + c - a, pack(w, width)) for c, w in falls[a, b] if w] for b in counts for a in counts
    ]
    # gens[i][j]: the state t where sigma_i sends root j with weight 1, else G_i[j].
    gens: dict[int, dict[int, int | dict[int, int]]] = {}
    for i in letters:
        lo, hi = radix ** (i - 1), radix**i
        shifts = [
            ms[0][0] * (lo - hi) if len(ms) == 1 and ms[0][1] == 1
            else [(d * (lo - hi), x) for d, x in ms]
            for ms in moves
        ]
        at = (shifts[s // lo % radix**2] for s in roots)
        gens[i] = {
            s: s + sh if type(sh) is int else {s + o: x for o, x in sh}
            for s, sh in zip(roots, at)
        }

    def build(factor: Factor) -> dict[int, dict[int, int]]:
        """M at the root of the factor's prefix trie, or 0 without words.  A
        node, and 0, keeps its empty columns, as a step reads them."""
        ends: dict[tuple[int, ...], int] = {}
        for word, c in factor:
            ends[word.letters] = ends.get(word.letters, 0) + pack(c, width)
        coeffs = {word: x for word, x in ends.items() if x}
        nodes = {word[:i] for word in coeffs for i in range(len(word) + 1)}
        below: dict[tuple[int, ...], list] = {}
        m: dict[int, dict[int, int]] = {}
        for node in sorted(nodes, key=len, reverse=True):
            c = coeffs.get(node, 0)
            children = below.pop(node, [])
            if children:
                (l, child), *children = children
                m = step(child, gens[l], c)
            else:
                m = {j: {j: c} for j in roots}
            for l, child in children:
                more = step(child, gens[l])
                m = {j: apply({0: col, 1: more[j]}, {0: 1, 1: 1}) for j, col in m.items()}
            if node:
                below.setdefault(node[:-1], []).append((node[-1], m))
        return m or {j: {} for j in roots}

    ids: dict[tuple, int] = {}

    def atoms(factors: Sequence[Factor]) -> tuple[int, ...]:
        """The product's path: its atoms read from its end, a letter as
        itself and a factor as ~(its place among the distinct factors)."""
        out: list[int] = []
        for f in reversed(factors):
            word = len(f) == 1 and f[0][1] == ONE
            out += reversed(f[0][0].letters) if word else [ids.setdefault(tuple(f), ~len(ids))]
        return tuple(out)

    paths = [*map(atoms, products)]
    distinct = [*ids]
    identity = lambda: {j: {j: 1} for j in roots}
    # One product of each distinct path, whose epsilon its column sums match.
    owners = dict(zip(paths, products))
    ordered = sorted(owners)
    matrices: dict[tuple[int, ...], TransitionMatrix] = {}
    # kept[d]: rho of the first d + 1 atoms of the path being built, for the
    # depths that the next path in sorted order starts with too.
    kept: list[dict[int, dict[int, int]]] = []
    for k, path in enumerate(ordered):
        after, keep = ordered[k + 1] if k + 1 < len(ordered) else (), 0
        for a, b in zip(path, after):
            if a != b:
                break
            keep += 1
        depth, total = len(kept), kept[-1] if kept else None
        del kept[keep:]
        for d in range(depth, len(path)):
            atom = path[d]
            if atom > 0:
                total = step(identity() if total is None else total, gens[atom])
            elif total is None:
                total = build(distinct[~atom])
            else:
                total = {j: apply(total, col) for j, col in build(distinct[~atom]).items()}
            if d < keep:
                kept.append(total)
        matrix = TransitionMatrix(dim, identity() if total is None else total, copies, width)
        epsilon = math.prod((poly_sum(c for _w, c in f) for f in owners[path]), start=ONE)
        one = pack(epsilon, width)
        for j in roots:
            if sum(matrix.packed.get(j, {}).values()) != one:
                got = poly_sum(matrix.cols.get(j, {}).values())
                raise ValueError(f"column {j} sums to {got}, expected {epsilon}")
        matrices[path] = matrix
    return [matrices[path] for path in paths]

Pushable = BraidWord | HeckeElement | HeckeProduct


def rho_batch(xs: Sequence[Pushable], n: int, N: int) -> list[TransitionMatrix]:
    """rho of each word, combination of words or product of combinations in
    ``xs``, all on n strands, as a list in the order of ``xs`` from one push,
    which builds each distinct path once.  A column that fails its sum
    raises before anything is returned."""
    _validate_sizes(n, N)
    products = [
        [[(x, ONE)]] if isinstance(x, BraidWord) else [f.terms for f in x.factors] for x in xs
    ]
    return push_columns(products, n, N + 1, apply_generator)


def rho_matrix(word: BraidWord, N: int) -> TransitionMatrix:
    """The transition matrix of a word."""
    return rho_element(HeckeElement(word.n, ((word, ONE),)), N)


def rho_element(x: HeckeElement | HeckeProduct, N: int) -> TransitionMatrix:
    """Linear extension: the matrix of a formal combination of words, or of
    a product of such combinations, pushed as the product of its factors."""
    return rho_batch([x], x.n, N)[0]


def fmt_state(u: BallState) -> str:
    return "[" + ",".join(str(c) for c in u) + "]"


# A matrix check's comparison: (label, got, expected).
Comparison = tuple[str, Matrix, Matrix]


def matrix_report(name: str, comparisons: Iterable[Comparison], n: int, cap: int) -> CheckReport:
    """The report ``name`` of got == expected for each (label, got, expected)
    in order; a failure names the first differing entry, on states of n
    counts in 0..cap."""
    report = CheckReport(name=name)
    for label, got, expected in comparisons:

        def describe():
            for j in sorted(got.cols | expected.cols):
                gcol, ecol = got.cols.get(j, {}), expected.cols.get(j, {})
                for i in sorted(gcol | ecol):
                    gv, ev = gcol.get(i, ZERO), ecol.get(i, ZERO)
                    if gv != ev:
                        return (
                            f"{label}: u={fmt_state(index_state(j, n, cap))} "
                            f"v={fmt_state(index_state(i, n, cap))} expected {ev} actual {gv}"
                        )

        report.record(got == expected, describe)
    return report


def pushed_pairs(
    pairs: Sequence[tuple[str, Pushable, Pushable]],
    push: Callable[[list[Pushable]], Iterable[Matrix]],
) -> Iterator[Comparison]:
    """(label, rho(left), rho(right)) for each (label, left, right) in
    ``pairs``, where ``push`` returns the matrices of a list of words or
    products in order, read through ``iter``, so both sides of every pair
    are pushed in one call."""
    matrices = iter(push([side for _label, left, right in pairs for side in (left, right)]))
    for label, _left, _right in pairs:
        yield label, next(matrices), next(matrices)


def braid_pairs(n: int) -> list[tuple[str, BraidWord, BraidWord]]:
    """(sigma_i sigma_{i+1} sigma_i, sigma_{i+1} sigma_i sigma_{i+1}) for every
    i, each labelled "left vs right"."""
    if n < 3:
        raise ValueError(f"braid relation needs n >= 3, got {n}")
    words = [
        (BraidWord(n, (i, i + 1, i)), BraidWord(n, (i + 1, i, i + 1))) for i in range(1, n - 1)
    ]
    return [(f"{left} vs {right}", left, right) for left, right in words]


def far_pairs(n: int) -> list[tuple[str, BraidWord, BraidWord]]:
    """(sigma_i sigma_j, sigma_j sigma_i) for every |i - j| > 1, each labelled
    "left vs right"."""
    words = [
        (BraidWord(n, (i, j)), BraidWord(n, (j, i))) for i in range(1, n) for j in range(i + 2, n)
    ]
    return [(f"{left} vs {right}", left, right) for left, right in words]


def check_braid_relation(n: int, N: int) -> CheckReport:
    """rho(sigma_i sigma_{i+1} sigma_i) = rho(sigma_{i+1} sigma_i sigma_{i+1})."""
    _validate_sizes(n, N)
    comparisons = pushed_pairs(braid_pairs(n), lambda xs: rho_batch(xs, n, N))
    return matrix_report(f"braid-relation n={n} N={N}", comparisons, n, N)


def check_far_commutativity(n: int, N: int) -> CheckReport:
    """rho(sigma_i sigma_j) = rho(sigma_j sigma_i) for |i - j| > 1."""
    _validate_sizes(n, N)
    if n < 4:
        raise ValueError(f"far commutativity needs n >= 4, got {n}")
    comparisons = pushed_pairs(far_pairs(n), lambda xs: rho_batch(xs, n, N))
    return matrix_report(f"far-commutativity n={n} N={N}", comparisons, n, N)


def check_hecke(n: int, N: int, corrupt: bool = False) -> CheckReport:
    """rho((q + sigma_i)(1 - sigma_i)) = 0 for every generator, pushed as the
    product of its two factors; the push checks that its columns sum to its
    epsilon, (q + 1) 0 = 0.

    ``corrupt`` is a test-only negative control: it puts sigma_1 + 1 in place
    of sigma_1 in both factors, so the check must fail and report the entry.
    The columns of (q + 1 + sigma_1)(-sigma_1) sum to its own epsilon,
    -(q + 2), so the push does not raise.
    """
    _validate_sizes(n, N)
    if n < 2:
        raise ValueError(f"quadratic relation needs n >= 2, got {n}")
    one = BraidWord(n)

    def relation(i):
        sigma = ((BraidWord(n, (i,)), ONE), *([(one, ONE)] if corrupt and i == 1 else []))
        left = HeckeElement(n, ((one, Q), *sigma))
        right = HeckeElement(n, ((one, ONE), *((w, -c) for w, c in sigma)))
        return f"(q+sigma_{i})(1-sigma_{i})", HeckeProduct(n, (left, right)), HeckeElement(n)

    comparisons = pushed_pairs([relation(i) for i in range(1, n)], lambda xs: rho_batch(xs, n, N))
    return matrix_report(f"hecke-quadratic n={n} N={N}", comparisons, n, N)


def check_specht(n: int, N: int, k: int) -> CheckReport:
    """The alternating window element x_k dies under rho, factors through
    (1 - sigma_i) for every window position i, and satisfies
    rho(x_k sigma_j) = -q rho(x_k) for window generators j.  x_k and each
    half_i are products of coset ladders (``braid.specht_element``), and
    rho(half_i)(I - rho(sigma_i)) is rho((1 - sigma_i) half_i), the product
    with one more factor; rho(x_k) rho(sigma_j) is rho(sigma_j x_k), and
    -q rho(x_k) is rho((-q) x_k).  So every comparison is a pair of products
    that ``pushed_pairs`` pushes in one batch, which steps x_k's ladders
    once: every product that ends with them starts from x_k's partials.

    The eigen-identity follows from the kernel comparison: once rho(x_k) = 0
    passes, each side is zero, so it tells something only when that fails.
    It stays because ``perfbench/golden.json`` counts it; at N' = N+1,
    where x_k is not killed (ROADMAP's "Window checks at larger N"), it is
    not vacuous."""
    _validate_sizes(n, N)
    x = specht_element(n, N, k)
    one, word = BraidWord(n), lambda i: BraidWord(n, (i,))
    times = lambda term: HeckeProduct(n, (HeckeElement(n, (term,)), *x.factors))
    pairs = [(f"rho(x_{k})", x, HeckeElement(n))]
    for i in range(k, k + N + 1):
        one_minus = HeckeElement(n, ((one, ONE), (word(i), -ONE)))
        factored = HeckeProduct(n, (one_minus, *specht_half(n, N, k, i).factors))
        pairs.append((f"rho(x_{k}) = rho(half_{i})(I - sigma_{i})", x, factored))
        eigen = times((word(i), ONE)), times((one, -Q))
        pairs.append((f"rho(x_{k}) sigma_{i} = -q rho(x_{k})", *eigen))
    comparisons = pushed_pairs(pairs, lambda xs: rho_batch(xs, n, N))
    return matrix_report(f"specht-kernel n={n} N={N} k={k}", comparisons, n, N)


def inverse_sides(n: int, N: int) -> list[Comparison]:
    """(label, rho(sigma_i (sigma_i + q - 1)), rho(q 1)) for every generator,
    all pushed in one batch; the two sides are equal in Z[q]."""
    _validate_sizes(n, N)
    if n < 2:
        raise ValueError(f"inverse check needs n >= 2, got {n}")
    one = BraidWord(n)

    def relation(i):
        sigma = BraidWord(n, (i,))
        factors = (HeckeElement(n, ((sigma, ONE),)), HeckeElement(n, ((sigma, ONE), (one, Q - 1))))
        return f"sigma_{i} sigma_{i}^-1", HeckeProduct(n, factors), HeckeElement(n, ((one, Q),))

    return list(pushed_pairs([relation(i) for i in range(1, n)], lambda xs: rho_batch(xs, n, N)))


def check_inverse(n: int, N: int, x: Fraction, sides: Callable | None = None) -> CheckReport:
    """At q = x != 0, sigma_i^{-1} = x^{-1}(sigma_i + x - 1): the identity
    rho(sigma_i (sigma_i + q - 1)) = q I in Z[q], both sides pushed by
    ``inverse_sides``, or returned by ``sides()`` so that checks at several
    q share one push, and compared at q = x."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("q = 0 is not invertible")
    comparisons = inverse_sides(n, N) if sides is None else sides()
    at_x = ((label, left.eval_at(x), right.eval_at(x)) for label, left, right in comparisons)
    return matrix_report(f"inverse-formula n={n} N={N} q={x}", at_x, n, N)


STOCHASTIC_WORDS = 100
STOCHASTIC_MAX_LEN = 8
STOCHASTIC_SEED = 0


def check_stochastic(n: int, N: int) -> CheckReport:
    """Seeded random words: every entry of a column conserves the count
    multiset of its state, and every entry has degree at most the word length.

    Column sums of 1 need no check here: ``rho_batch`` pushes each word as
    (word, ONE), and ``push_columns`` checks that every column sums to 1
    before it returns the batch.  The words are drawn first and
    pushed in one call, which steps each distinct suffix once.  The check is
    one pass in the order drawn, one test per invariant: a column's rows are
    states of its own count multiset, and a word's entries have degree at
    most its length.  Both read the packed columns, a copy's rows through
    its ``rows`` map, and decode only to describe a failure.
    """
    import random

    _validate_sizes(n, N)
    rng = random.Random(STOCHASTIC_SEED)
    report = CheckReport(name=f"stochastic n={n} N={N} words={STOCHASTIC_WORDS}")
    multisets = [tuple(sorted(u)) for u in all_states(n, N)]
    blocks: dict[BallState, set[int]] = {}
    for j, key in enumerate(multisets):
        blocks.setdefault(key, set()).add(j)
    words = []
    for _ in range(STOCHASTIC_WORDS):
        length = rng.randint(0, STOCHASTIC_MAX_LEN)
        letters = tuple(rng.randint(1, n - 1) for _ in range(length)) if n > 1 else ()
        words.append(BraidWord(n, letters))
    for word, m in zip(words, rho_batch(words, n, N)):
        for j, key in enumerate(multisets):
            r, rows = m.copies.get(j, (j, {}))
            out = [rows.get(t, t) for t in m.packed.get(r, ())]
            ok = blocks[key].issuperset(out)
            report.record(
                ok,
                str if ok else lambda: (
                    f"word '{word}': count multiset changes "
                    f"{fmt_state(index_state(j, n, N))} -> "
                    f"{fmt_state(index_state(next(i for i in out if i not in blocks[key]), n, N))}"
                ),
            )
        # An entry of d digits has degree d - 1 = bit_length // width (``unpack``).
        high = lambda x: x.bit_length() // m.width > len(word)
        entries = set().union(*map(dict.values, m.packed.values()))
        report.record(
            not any(map(high, entries)),
            lambda: next(
                f"word '{word}': entry u={fmt_state(index_state(j, n, N))} "
                f"v={fmt_state(index_state(i, n, N))} is {m.cols[j][i]}, "
                "of degree above the word length"
                for j, col in m.packed.items() for i, x in col.items() if high(x)
            ),
        )
    return report
