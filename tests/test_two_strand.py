"""Traces of the two-strand words sigma_1^r against closed forms that share no
code with the push.

The weighted trace of a word is T(w) = sum over states u of q^(u_1 + u_2)
rho(w)[u, u].  On two strands rho(sigma_1) has one eigenvalue per summand of
the product of the two lane spaces, and T weights each eigenvalue by a
quantum dimension:

* cabled, width K: T_K(sigma_1^r) = sum_(j=0)^K q^j [2K-2j+1] lambda_j^r with
  lambda_j = (-1)^j q^(jK - j(j-1)/2), the Clebsch-Gordan split of two
  spin-K/2 factors;
* multi-ball, cap N: T(sigma_1^r) = d_S + d_A (-q)^r with d_A = q[N][N+1]/[2]
  and d_S = [N+1]^2 - d_A, fixed by T(1) = [N+1]^2 and T(sigma_1) = [N+1].

At r = 40, and at r = 20 for cabled K >= 2, the push's packed digits are 72
to 184 bits wide, so ``qpoly.unpack`` decodes them with its ``from_bytes``
fallback; the tests check, through the ``widths`` fixture, that these cases
reach it.
"""

import pytest
from oracles import power, quantum_int

from braidbowl import matrix
from braidbowl.braid import BraidWord
from braidbowl.cabled import rho_cabled_matrix
from braidbowl.multiball import index_state, rho_matrix
from braidbowl.qpoly import ZERO, Q, QPoly, unpack

POWERS = (*range(8), 20, 40)


def weighted_trace(m, cap):
    """sum over two-strand states u of q^(u_1 + u_2) m[u, u]."""
    diagonal = ((j, m.cols.get(j, {}).get(j)) for j in range(m.dim))
    return sum((QPoly.monomial(sum(index_state(j, 2, cap))) * v for j, v in diagonal if v), ZERO)


def divide_by_one_plus_q(p):
    """p / (1 + q) by synthetic division, asserting a zero remainder."""
    quotient = []
    for c in p.coeffs[:-1]:
        quotient.append(c - (quotient[-1] if quotient else 0))
    assert p.coeffs[-1] == quotient[-1], f"1 + q does not divide {p}"
    return QPoly(tuple(quotient))


def cabled_trace(K, r):
    total = ZERO
    for j in range(K + 1):
        eigenvalue = (-1) ** j * QPoly.monomial(j * K - j * (j - 1) // 2)
        total = total + QPoly.monomial(j) * quantum_int(2 * K - 2 * j + 1) * power(eigenvalue, r)
    return total


def multiball_trace(N, r):
    d_a = divide_by_one_plus_q(Q * quantum_int(N) * quantum_int(N + 1))
    d_s = power(quantum_int(N + 1), 2) - d_a
    return d_s + d_a * power(-Q, r)


@pytest.fixture
def widths(monkeypatch):
    """The digit widths the push decodes with."""
    seen = []

    def spy(x, width):
        seen.append(width)
        return unpack(x, width)

    monkeypatch.setattr(matrix, "unpack", spy)
    return seen


@pytest.mark.parametrize("r", POWERS)
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_multiball_trace_of_sigma_power(widths, N, r):
    m = rho_matrix(BraidWord(2, (1,) * r), N)
    assert weighted_trace(m, N) == multiball_trace(N, r)
    if r == 40:
        assert max(widths) > 64


# K = 4 at r = 40 is left out: it takes 0.6 s, the rest together about 0.2 s.
@pytest.mark.parametrize("K, r", [(K, r) for K in (1, 2, 3, 4) for r in POWERS if (K, r) != (4, 40)])
def test_cabled_trace_of_sigma_power(widths, K, r):
    m = rho_cabled_matrix(BraidWord(2, (1,) * r), K)
    assert weighted_trace(m, K) == cabled_trace(K, r)
    if r == 40 or (r == 20 and K > 1):
        assert max(widths) > 64

