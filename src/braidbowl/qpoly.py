"""Exact univariate polynomials in q with integer coefficients: the ring
Z[q] the transition matrices live in, and the packed-int codec of the push.

A polynomial is stored as a tuple of coefficients, index i holding the
coefficient of q^i, with trailing zeros stripped (the zero polynomial is the
empty tuple).  Coefficients are Python ints, so long products never
overflow.  Rational evaluation points use ``fractions.Fraction``, which
already is the reduced-fraction scalar we need.

Validation happens only at the boundary: ``QPoly(...)`` rejects any
coefficient that is not an ``int``.  Results of ``+``, ``-``, ``*`` and
negation are built from coefficients that are ints by construction, so they
skip that scan and only strip trailing zeros.

``pack`` and ``digits`` are the Kronecker codec of the push kernel: a
polynomial whose coefficients all satisfy |c| < 2^(B-1) is the Python int
sum c_i 2^(B i), its value at q = 2^B.  Sums and products of packed ints are
exact as long as every coefficient of the result stays in that range, and
``digit_width`` picks the B that guarantees it for a given coefficient bound.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


@dataclass(frozen=True, slots=True)
class QPoly:
    """A polynomial in q with int coefficients, canonical (no trailing zeros)."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        """The boundary check: every coefficient must be an int (not a bool)."""
        coeffs = tuple(self.coeffs)
        if any(not isinstance(c, int) or isinstance(c, bool) for c in coeffs):
            raise TypeError(f"integer coefficients required, got {coeffs!r}")
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @classmethod
    def monomial(cls, power: int) -> QPoly:
        if power < 0:
            raise ValueError("negative powers of q are not representable")
        return cls((0,) * power + (1,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _trusted(tuple(map(operator.add, a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return _trusted(tuple(map(operator.neg, self.coeffs)))

    def __sub__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            other = QPoly((other,))
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> QPoly:
        return QPoly((other,)) + (-self)

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            return _trusted(tuple(other * c for c in self.coeffs))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        # skip b's zeros: the cabled factors q^e and 1 - q^j are sparse
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        return _trusted(tuple(out))

    __rmul__ = __mul__

    def eval_at(self, x: Fraction | int) -> Fraction:
        """Exact rational Horner evaluation at q = x."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mono = "1" if i == 0 else ("q" if i == 1 else f"q^{i}")
            mag = abs(c)
            body = mono if (mag == 1 and i > 0) else (str(mag) if i == 0 else f"{mag}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def json_text(self) -> str:
        """The JSON object ``{"coeffs": [...]}``, written without the encoder:
        the JSON text of a list of ints is the list's own text."""
        return f'{{"coeffs": {list(self.coeffs)}}}'


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return coeffs if end == len(coeffs) else coeffs[:end]


def _trusted(coeffs: tuple[int, ...]) -> QPoly:
    """A QPoly from int coefficients the caller guarantees, skipping the
    ``__post_init__`` check; only trailing zeros are stripped."""
    p = object.__new__(QPoly)
    object.__setattr__(p, "coeffs", _strip(coeffs))
    return p


# The memoryview format that reads a signed digit of each width in place, on
# a little-endian host.  Any other digit is read with from_bytes, several
# times slower per digit; that matters because the CLI writes every distinct
# entry of a pushed matrix from its digits, and a cabled push has thousands
# of them, each with dozens of digits.
_DIGIT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


def digit_width(bound: int) -> int:
    """The packed digit width B for coefficients of absolute value at most
    ``bound``: the smallest of 8, 16, 32 and 64 with 2^(B-1) > bound, so
    that ``unpack`` can cast, and above 64 bits the smallest multiple of 8
    with it."""
    need = bound.bit_length() + 1
    for width in (8, 16, 32, 64):
        if width >= need:
            return width
    return -(-need // 8) * 8


def pack(p: QPoly, width: int) -> int:
    """The int sum c_i 2^(width i) of p's coefficients c_i."""
    out = 0
    for c in reversed(p.coeffs):
        out = (out << width) + c
    return out


def digits(x: int, width: int) -> list[int]:
    """The coefficients, lowest first, that ``pack`` turned into x, given
    that every one satisfies |c| < 2^(width-1).

    Adding 2^(width-1) to every digit makes each one nonnegative, so the
    addition carries nothing; XOR with the same bias then leaves every digit
    as its width-bit two's complement, which is read back in place.
    """
    size = width // 8
    # With d digits, c_(d-1) != 0 and every |c_i| < 2^(width-1) put |x|
    # strictly between 2^(width (d-1) - 1) and 2^(width d - 1), so its bit
    # length lies in [width (d-1), width d - 1] and this is d.
    count = x.bit_length() // width + 1
    bias = int.from_bytes((1 << (width - 1)).to_bytes(size, "little") * count, "little")
    data = ((x + bias) ^ bias).to_bytes(size * count, "little")
    fmt = _DIGIT_FORMATS.get(width)
    if fmt is not None:
        return memoryview(data).cast(fmt).tolist()
    return [
        int.from_bytes(data[k : k + size], "little", signed=True) for k in range(0, len(data), size)
    ]


def unpack(x: int, width: int) -> QPoly:
    """The polynomial ``pack`` turned into x: its ``digits`` as a QPoly."""
    return _trusted(tuple(digits(x, width)))


ZERO = QPoly()
ONE = QPoly((1,))
Q = QPoly((0, 1))
ONE_MINUS_Q = QPoly((1, -1))


def poly_sum(polys: Iterable[QPoly]) -> QPoly:
    """The sum of polys, added coefficient by coefficient in one pass."""
    columns = itertools.zip_longest(*(p.coeffs for p in polys), fillvalue=0)
    return _trusted(tuple(map(sum, columns)))
