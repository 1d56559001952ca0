"""Euler polynomials, classical and three-parameter, in closed form.

``euler_poly(n)`` is the normalized ``t^n`` coefficient of
``2 e^{X t} / (e^t + 1)``, built as ``poly_bernoulli_poly`` is: the binomial
convolution of the Euler numbers ``E_j(0) = sum_m (-1/2)^m m! S(j, m)`` (from
``2 / (1 + e^t) = sum_m (-(e^t - 1) / 2)^m``) with powers of X.
``gen_euler_poly(n)`` expands ``2 c^{X t} / (b^t + a^t)`` in the formal
logarithms La, Lb, Lc of a, b, c.  That is ``e^{(X Lc - La) t}`` times
``2 / (1 + e^{(Lb - La) t})``, so it is ``(Lb - La)^n E_n((X Lc - La) / (Lb - La))``,
one homogeneous substitution, as ``gen_pb_poly`` is.  At a = 1, c = b and then
ln b = 1 it is the classical polynomial.  Nothing here calls the series engine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import LA, LB, LC, MultiPoly, X, binomial_convolution, homogeneous_substitute, powers
from .numbers import _stirling_row, check_index
from .reports import IdentityReport, check

__all__ = ["euler_poly", "gen_euler_poly", "verify_euler_identities"]

# held so each power of each is built once per process (see ``exact.powers``)
_X_LC_MINUS_LA = X * LC - LA
_LB_MINUS_LA = LB - LA


def _euler_number(j: int) -> Fraction:
    """``E_j(0)``, with the Stirling sum over the common denominator ``2^j``."""
    terms = ((-1) ** m * factorial(m) * s << (j - m) for m, s in enumerate(_stirling_row(j)))
    return Fraction(sum(terms), 1 << j)


@lru_cache(maxsize=None)
def euler_poly(n: int) -> MultiPoly:
    """Classical Euler polynomial of degree n, as a MultiPoly in X."""
    check_index(n=n)
    return binomial_convolution([_euler_number(j) for j in range(n + 1)], powers(X, n))


@lru_cache(maxsize=None)
def gen_euler_poly(n: int) -> MultiPoly:
    """Three-parameter Euler polynomial in X, La, Lb, Lc (capped as ``euler_poly``)."""
    return homogeneous_substitute(euler_poly(n), _X_LC_MINUS_LA, _LB_MINUS_LA)


def _shift_x(p: MultiPoly, delta) -> MultiPoly:
    return p.substitute({"X": X + delta})


def verify_euler_identities(n_max: int) -> list[IdentityReport]:
    """Check the three Euler-polynomial identities for all degrees up to n_max.

    E1: the shift expansion ``E_k(x+1) = sum_j C(k,j) E_j(x)``.
    E2: the reflection pairing ``E_k(x+1) + E_k(x) = 2 x^k``.
    E3: the same pairing for the (1, b, b) specialization, which picks up a
        factor ``(ln b)^k`` on the right.

    E1 holds for any convolution with powers of X; E2 has one polynomial
    solution per k, so it proves ``euler_poly(k)``.  Like T3.19, E3 follows
    from E2, since ``gen_euler_poly`` substitutes into ``euler_poly``; it
    stays as the paper's statement.
    """
    degrees = range(n_max + 1)

    def binomial_sum(k):
        return binomial_convolution([euler_poly(j) for j in range(k + 1)], [1] * (k + 1))

    def pairing(p):
        return _shift_x(p, 1) + p

    def special(k):
        return gen_euler_poly(k).substitute({"La": 0, "Lc": LB})

    return [
        check("E1", "shift by one equals the binomial sum", n_max, "-",
              ((f"k={k}", _shift_x(euler_poly(k), 1), binomial_sum(k)) for k in degrees)),
        check("E2", "shifted and plain values pair to 2*X^k", n_max, "-",
              ((f"k={k}", pairing(euler_poly(k)), 2 * X**k) for k in degrees)),
        check("E3", "the (1, b, b) specialization pairs to 2*X^k*Lb^k", n_max, "-",
              ((f"k={k}", pairing(special(k)), 2 * X**k * LB**k) for k in degrees)),
    ]
