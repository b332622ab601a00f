"""Sparse square matrices over an exact scalar ring (QPoly or Fraction).

Entries are stored column-major: ``cols[j][i]`` is the (i, j) entry.  Zero
entries are never stored, so dict equality is semantic equality: the
constructor reads no entry, and each operation that can make a zero drops it
where it is made (``apply`` a cancelled sum, ``eval_at`` a root).  Scalars
only need +, * (by each other and by an int), and truthiness, which both
QPoly and Fraction provide.  ``apply`` is the one sparse accumulation loop:
it runs on the packed ints of ``multiball.push_columns``, and it is the body
of ``@`` and ``+``, which only the tests compute.  A ``TransitionMatrix``
keeps the push's packed ints and decodes them into QPoly entries only when
``cols`` is first read; it is the one reader of ``qpoly.unpack``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .qpoly import unpack

Column = dict[int, object]


def apply(cols: dict[int, Column], vec: Column) -> Column:
    """The sparse columns ``cols`` applied to the sparse vector ``vec``: the
    sum over r of vec[r] * cols[r], with zero entries dropped.

    Products are taken as (vector weight) * (matrix entry), except that a
    weight equal to the int 1 takes each entry as it is: ``+`` then keeps the
    entries held by one operand only, and the push adds packed entries
    without multiplying.  A ``QPoly`` never equals an int, so a ``QPoly``
    weight always multiplies.
    """
    out: Column = {}
    for r, w in vec.items():
        one = w == 1
        for i, p in cols.get(r, {}).items():
            term = p if one else w * p
            acc = out.get(i)
            if acc is None:
                out[i] = term
            else:
                total = acc + term
                if total:
                    out[i] = total
                else:
                    del out[i]
    return out


class Matrix:
    """Square sparse matrix; immutable by convention after construction."""

    __slots__ = ("dim", "cols")

    def __init__(self, dim: int, cols: dict[int, Column] | None = None):
        """No column may hold a zero entry.  The columns are stored as given,
        so callers must not mutate them afterwards; empty ones are dropped,
        and no entry is read.  Z[q] and Q have no zero divisors, so ``apply``
        yields no zero from zero-free operands; ``eval_at`` drops the zeros
        that a root makes."""
        self.dim = dim
        self.cols: dict[int, Column] = {j: col for j, col in (cols or {}).items() if col}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def __add__(self, other: Matrix) -> Matrix:
        """Matrix sum, one ``apply`` per column.  Only the tests add matrices;
        ``perfbench/layertrace.py`` wraps the method, so it stays until the
        benchmark is revised."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        pair = lambda j: {0: self.cols.get(j, {}), 1: other.cols.get(j, {})}
        return Matrix(self.dim, {j: apply(pair(j), {0: 1, 1: 1}) for j in self.cols | other.cols})

    def __matmul__(self, other: Matrix) -> Matrix:
        """Matrix product: column j of A@B is A applied to column j of B.  Only
        the tests multiply matrices; ``perfbench/layertrace.py`` wraps the
        method, so it stays until the benchmark is revised."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Matrix(self.dim, {j: apply(self.cols, bcol) for j, bcol in other.cols.items()})

    def eval_at(self, x: Fraction) -> Matrix:
        """Evaluate every QPoly entry at q = x, giving a Fraction matrix
        without the entries that vanish there.  Each distinct entry object is
        evaluated once; equal entries from the push share one object, so they
        share one value."""
        distinct = {id(v): v for col in self.cols.values() for v in col.values()}
        value = {key: v.eval_at(x) for key, v in distinct.items()}
        at = lambda col: {i: y for i, v in col.items() if (y := value[id(v)])}
        return Matrix(self.dim, {j: at(col) for j, col in self.cols.items()})

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.cols.values())
        return f"Matrix(dim={self.dim}, nnz={nnz})"


class TransitionMatrix(Matrix):
    """A product from ``multiball.push_columns``, which has checked that its
    columns sum to its epsilon, kept packed: ``packed`` maps each root state
    to its nonempty column of ints (``qpoly.pack`` at digit width ``width``),
    and ``copies`` maps every other state j to (r, rows), column j being
    root r's with row t moved to rows[t].  ``cols`` decodes on first read,
    each distinct entry into one QPoly that copies share.  The matrices of
    one push share ``copies`` and ``width``; ``pack`` is injective at one
    width and a copy is fixed by its root, so ``==`` compares their packed
    roots, and any other pair their ``cols``.  ``perfbench/layertrace.py``
    wraps the constructor, so the name stays until the benchmark is revised."""

    def __init__(self, dim: int, packed: dict[int, dict[int, int]], copies: dict, width: int):
        self.dim, self.copies, self.width = dim, copies, width
        self.packed = {j: col for j, col in packed.items() if col}

    @cached_property
    def cols(self) -> dict[int, Column]:
        values = set().union(*map(dict.values, self.packed.values()))
        decoded = {x: unpack(x, self.width) for x in values}
        cols = {j: {t: decoded[x] for t, x in col.items()} for j, col in self.packed.items()}
        for j, (r, rows) in self.copies.items():
            if r in cols:
                cols[j] = {rows[t]: v for t, v in cols[r].items()}
        return cols

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TransitionMatrix) and other.copies is self.copies:
            return self.packed == other.packed
        return super().__eq__(other)
