"""Euler polynomials, classical and three-parameter, in closed form.

``euler_poly(n)`` is the normalized ``t^n`` coefficient of
``2 e^{X t} / (e^t + 1)``, built as ``poly_bernoulli_poly`` is: the binomial
convolution of the Euler numbers ``E_j(0) = sum_m (-1/2)^m m! S(j, m)`` (from
``2 / (1 + e^t) = sum_m (-(e^t - 1) / 2)^m``) with powers of X.
``gen_euler_poly(n)`` expands ``2 c^{X t} / (b^t + a^t)`` in the formal
logarithms La, Lb, Lc of a, b, c.  That is ``e^{(X Lc - La) t}`` times
``2 / (1 + e^{(Lb - La) t})``, so it is ``(Lb - La)^n E_n((X Lc - La) / (Lb - La))``,
one homogeneous substitution, as ``gen_pb_poly`` is.  At a = 1, c = b and then
ln b = 1 it is the classical polynomial.  Nothing here calls the series engine;
the identities E1-E3 are checked in :mod:`~polybernoulli.verification`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .exact import LA, LB, LC, MultiPoly, X, binomial_convolution, homogeneous_substitute, powers
from .numbers import _stirling_row, check_index

__all__ = ["euler_poly", "gen_euler_poly"]

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
