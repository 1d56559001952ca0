"""Euler polynomials, classical and three-parameter.

``euler_poly(n)`` is the usual Euler polynomial, the normalized ``t^n``
coefficient of ``2 e^{X t} / (e^t + 1)``.  ``gen_euler_poly(n)`` replaces the
three occurrences of e by parameters a, b, c carried through their formal
logarithms La, Lb, Lc: it expands ``2 c^{X t} / (b^t + a^t)``.  Setting
La = 0 and renaming Lc to Lb (that is, a = 1 and c = b) and then sending
Lb to 1 recovers the classical polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import LA, LB, LC, MultiPoly, X, as_poly, binomial_convolution
from .reports import IdentityReport, check
from .series import ps_div, ps_exp_linear

__all__ = ["euler_poly", "gen_euler_poly", "verify_euler_identities"]


@lru_cache(maxsize=None)
def euler_poly(n: int) -> MultiPoly:
    """Classical Euler polynomial of degree n, as a MultiPoly in X."""
    if n < 0:
        raise ValueError("the index must be non-negative")
    num = ps_exp_linear(X, n) * 2
    den = ps_exp_linear(Fraction(1), n) + 1
    series = ps_div(num, den)
    return as_poly(series.coefficient(n) * factorial(n))


@lru_cache(maxsize=None)
def gen_euler_poly(n: int) -> MultiPoly:
    """Three-parameter Euler polynomial in X, La, Lb, Lc."""
    if n < 0:
        raise ValueError("the index must be non-negative")
    num = ps_exp_linear(X * LC, n) * 2
    den = ps_exp_linear(LA, n) + ps_exp_linear(LB, n)
    series = ps_div(num, den)
    return as_poly(series.coefficient(n) * factorial(n))


def _shift_x(p: MultiPoly, delta) -> MultiPoly:
    return p.substitute({"X": X + delta})


def verify_euler_identities(n_max: int) -> list[IdentityReport]:
    """Check the three Euler-polynomial identities for all degrees up to n_max.

    E1: the shift expansion ``E_k(x+1) = sum_j C(k,j) E_j(x)``.
    E2: the reflection pairing ``E_k(x+1) + E_k(x) = 2 x^k``.
    E3: the same pairing for the (1, b, b) specialization, which picks up a
        factor ``(ln b)^k`` on the right.
    """
    n_range = f"0..{n_max}"
    degrees = range(n_max + 1)

    def binomial_sum(k):
        return binomial_convolution([euler_poly(j) for j in range(k + 1)], [1] * (k + 1))

    def pairing(p):
        return _shift_x(p, 1) + p

    def special(k):
        return gen_euler_poly(k).substitute({"La": 0, "Lc": LB})

    return [
        check("E1", "shift by one equals the binomial sum", n_range, "-",
              ((f"k={k}", _shift_x(euler_poly(k), 1), binomial_sum(k)) for k in degrees)),
        check("E2", "shifted and plain values pair to 2*X^k", n_range, "-",
              ((f"k={k}", pairing(euler_poly(k)), 2 * X**k) for k in degrees)),
        check("E3", "the (1, b, b) specialization pairs to 2*X^k*Lb^k", n_range, "-",
              ((f"k={k}", pairing(special(k)), 2 * X**k * LB**k) for k in degrees)),
    ]
