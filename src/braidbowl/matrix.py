"""Sparse square matrices over an exact scalar ring (QPoly or Fraction).

Entries are stored column-major: ``cols[j][i]`` is the (i, j) entry, and zero
entries are never stored, so dict equality is semantic equality.  Scalars only
need +, * (by each other and by an int), and truthiness, which both QPoly and
Fraction provide.  ``apply`` is the one sparse accumulation loop: it is the
body of ``@``, ``+`` and ``-``, and also runs on the packed ints of
``multiball.push_columns``.
"""

from __future__ import annotations

from fractions import Fraction

from .qpoly import ONE

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
        """Zero entries are dropped: a column holding a zero is copied
        without it, and zero-free columns are stored as given, so callers
        must not mutate them afterwards.  Z[q] and Q have no zero divisors,
        so ``apply`` yields no zero from zero-free operands; zeros come only
        from ``scale(0)`` and from ``eval_at`` at a root."""
        self.dim = dim
        self.cols: dict[int, Column] = {}
        for j, col in (cols or {}).items():
            if not all(col.values()):
                col = {i: v for i, v in col.items() if v}
            if col:
                self.cols[j] = col

    @classmethod
    def identity(cls, dim: int) -> Matrix:
        return cls(dim, {j: {j: ONE} for j in range(dim)})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.dim == other.dim and self.cols == other.cols

    def _combine(self, other: Matrix, sign: int) -> Matrix:
        """self + sign * other: one ``apply`` per column, with weights 1 and sign."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        pair = lambda j: {0: self.cols.get(j, {}), 1: other.cols.get(j, {})}
        return Matrix(self.dim, {j: apply(pair(j), {0: 1, 1: sign}) for j in self.cols | other.cols})

    def __add__(self, other: Matrix) -> Matrix:
        return self._combine(other, 1)

    def __sub__(self, other: Matrix) -> Matrix:
        return self._combine(other, -1)

    def scale(self, scalar) -> Matrix:
        return Matrix(
            self.dim,
            {j: {i: scalar * v for i, v in col.items()} for j, col in self.cols.items()},
        )

    def __matmul__(self, other: Matrix) -> Matrix:
        """Matrix product: column j of A@B is A applied to column j of B."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Matrix(self.dim, {j: apply(self.cols, bcol) for j, bcol in other.cols.items()})

    def eval_at(self, x: Fraction) -> Matrix:
        """Evaluate every QPoly entry at q = x, giving a Fraction matrix.
        Each distinct entry object is evaluated once; equal entries from the
        push share one object, so they share one value."""
        distinct = {id(v): v for col in self.cols.values() for v in col.values()}
        value = {key: v.eval_at(x) for key, v in distinct.items()}
        return Matrix(
            self.dim,
            {j: {i: value[id(v)] for i, v in col.items()} for j, col in self.cols.items()},
        )

    def __repr__(self) -> str:
        nnz = sum(len(c) for c in self.cols.values())
        return f"Matrix(dim={self.dim}, nnz={nnz})"


class TransitionMatrix(Matrix):
    """A matrix from ``multiball.push_columns``, which has checked that its
    columns sum to sum_t c_t; ``perfbench/layertrace.py`` wraps its
    constructor, so the name stays until the benchmark is revised."""
