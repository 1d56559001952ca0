"""Two- and three-parameter poly-Bernoulli values and polynomials.

The two-parameter value ``gen_pb_numbers(n, k)`` generalizes the n-th
poly-Bernoulli number to parameters a, b carried through their formal
logarithms La, Lb.  It is built from the one-variable polynomial by the
homogeneous substitution ``X -> -Lb / (La + Lb)`` with denominators cleared,
so no rational-function arithmetic ever appears; at (La, Lb) = (1, 0) it
collapses back to the plain numbers.

The three-parameter polynomial ``gen_pb_poly(n, k)`` adds the argument x and
a third parameter c: it is one homogeneous substitution
``X -> (X Lc - Lb) / (La + Lb)`` into the same one-variable polynomial.  The
binomial convolution of the two-parameter values with powers of ``X * Lc``,
``gen_pb_poly_assembled``, rebuilds it as a cross-check.  At rational points
the polynomial is the normalized ``t^n`` coefficient of

    Li_k(1 - (a b)^{-t}) / (b^t - a^{-t}) * c^{x t},

which is what the series oracle computes independently of every closed form:
``gen_pb_numbers_series`` (in :mod:`~polybernoulli.series`) times ``c^{x t}``.
The suites in :mod:`~polybernoulli.verification` check these constructions.
"""

from __future__ import annotations

from functools import lru_cache

from .exact import (
    LA,
    LB,
    LC,
    MultiPoly,
    PolyLike,
    X,
    _as_fraction,
    binomial_convolution,
    homogeneous_substitute,
    powers,
)
from .numbers import check_index, poly_bernoulli, poly_bernoulli_poly
from .series import PowerSeries, gen_pb_numbers_series, ps_exp_linear

__all__ = [
    "gen_pb_numbers",
    "gen_pb_numbers_by_sum",
    "gen_pb_numbers_series",
    "gen_pb_poly",
    "gen_pb_poly_assembled",
    "gen_pb_poly_double_sum",
    "gen_pb_poly_series",
    "pb_derivative",
    "pb_definite_integral",
]

# The bases every construction raises to powers, held so each power of each
# is built once per process (see ``exact.powers``).
_LA_PLUS_LB = LA + LB
_MINUS_LB = -LB
_X_LC = X * LC
_X_LC_MINUS_LB = _X_LC - LB


@lru_cache(maxsize=None)
def gen_pb_numbers(n: int, k: int) -> MultiPoly:
    """Two-parameter poly-Bernoulli value as a polynomial in La and Lb."""
    return homogeneous_substitute(poly_bernoulli_poly(n, k), _MINUS_LB, _LA_PLUS_LB)


@lru_cache(maxsize=None)
def gen_pb_numbers_by_sum(n: int, k: int) -> MultiPoly:
    """The same value as an explicit alternating binomial sum (cross-check path)."""
    check_index(n=n)
    scaled = [poly_bernoulli(i, k) * p for i, p in enumerate(powers(_LA_PLUS_LB, n))]
    return binomial_convolution(scaled, powers(_MINUS_LB, n))


@lru_cache(maxsize=None)
def gen_pb_poly(n: int, k: int) -> MultiPoly:
    """Three-parameter poly-Bernoulli polynomial in X, La, Lb, Lc.

    Reads the one-variable polynomial at ``X -> (X*Lc - Lb) / (La + Lb)``
    and clears the denominator at total weight n.
    """
    return homogeneous_substitute(poly_bernoulli_poly(n, k), _X_LC_MINUS_LB, _LA_PLUS_LB)


def gen_pb_poly_assembled(n: int, k: int) -> MultiPoly:
    """Same polynomial as the binomial convolution of the two-parameter values.

    Sums ``C(n, l) (X Lc)^(n-l) gen_pb_numbers(l, k)`` over the memoized
    two-parameter values.  Their substitutions ``X -> -Lb / (La + Lb)`` keep
    X out of the numerator, so this route never reads the one substitution
    that builds :func:`gen_pb_poly`; the two share only the plain numbers.
    """
    check_index(n=n)
    return binomial_convolution([gen_pb_numbers(l, k) for l in range(n + 1)], powers(_X_LC, n))


def gen_pb_poly_double_sum(n: int, k: int) -> MultiPoly:
    """Same polynomial as a double binomial sum: the convolution of the
    alternating sums :func:`gen_pb_numbers_by_sum` with powers of ``X * Lc``."""
    check_index(n=n)
    inner = [gen_pb_numbers_by_sum(l, k) for l in range(n + 1)]
    return binomial_convolution(inner, powers(_X_LC, n))


def gen_pb_poly_series(
    k: int, ln_a, ln_b, ln_c, x, order: int
) -> PowerSeries:
    """Series oracle for the three-parameter polynomial at one rational point."""
    s = gen_pb_numbers_series(k, ln_a, ln_b, order)
    return s * ps_exp_linear(_as_fraction(x) * _as_fraction(ln_c), order)


def pb_derivative(n: int, k: int, l: int) -> MultiPoly:
    """The l-th derivative in x of the three-parameter polynomial.

    Purely formal term calculus; for l > n the result is zero.
    """
    return gen_pb_poly(n, k).diff("X", l)


def pb_definite_integral(n: int, k: int, alpha: PolyLike, beta: PolyLike) -> MultiPoly:
    """The integral of the three-parameter polynomial in x from alpha to beta.

    Computed from the termwise antiderivative, so no division by ln c is ever
    needed.  The bounds may be polynomials: ``alpha = Y, beta = X`` gives the
    integral over every interval at once.
    """
    anti = gen_pb_poly(n, k).integrate("X")
    return anti.substitute({"X": beta}) - anti.substitute({"X": alpha})
