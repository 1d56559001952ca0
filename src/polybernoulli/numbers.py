"""Stirling numbers and poly-Bernoulli numbers in closed form.

The n-th poly-Bernoulli number with integer upper index k is the normalized
coefficient ``n! [t^n]`` of ``Li_k(1 - e^{-t}) / (1 - e^{-t})``.  Here the
values come from the finite closed form over Stirling numbers of the second
kind, which works uniformly for every integer k; the series constructors in
:mod:`polybernoulli.series` serve as the independent cross-check.

Sign conventions.  The k = 1 column of ``poly_bernoulli`` expands
``t e^t / (e^t - 1)`` and therefore has value +1/2 at n = 1, while
``classical_bernoulli`` follows the ``t / (e^t - 1)`` convention with -1/2
at n = 1.  Even indices agree, odd indices from 3 on vanish, and nothing in
this package converts silently between the two: pick the function you mean.

Stirling rows and poly-Bernoulli values are memoized by ``lru_cache`` on pure
functions that return immutable values, so one memo is shared across the
process and across threads: concurrent misses may compute a row twice, but
never corrupt it.  A :class:`PolyBernoulliCache` holds only a cap on the
indices it answers for (default 64).  Its ``check`` (the default cache's is
:func:`check_index`) is the one index guard: every closed form calls it
first, so a negative or runaway index fails at once, naming the index asked
for.  The cap does not bound memory: the memo is unbounded, so rows grown for
a raised-cap instance stay for the life of the process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .exact import MultiPoly, X, binomial_convolution, powers

__all__ = [
    "PolyBernoulliCache",
    "DEFAULT_CACHE",
    "check_index",
    "k_range",
    "poly_bernoulli",
    "poly_bernoulli_negative",
    "poly_bernoulli_poly",
    "classical_bernoulli",
]

_ROW_STRIDE = 32


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling triangle, ``S(n, 0..n)``, built from row n - 1.

    Row n - _ROW_STRIDE is memoized first, so a cold row recurses about
    n / _ROW_STRIDE + _ROW_STRIDE calls deep rather than n.
    """
    if n == 0:
        return (1,)
    if n > _ROW_STRIDE:
        _stirling_row(n - _ROW_STRIDE)
    prev = _stirling_row(n - 1) + (0,)
    return (0,) + tuple(m * prev[m] + prev[m - 1] for m in range(1, n + 1))


@lru_cache(maxsize=None)
def _closed_form(n: int, k: int) -> Fraction:
    """The Stirling sum on integers over ``lcm(1..n+1)^k`` (1 for k <= 0), one Fraction at the end."""
    common = lcm(*range(1, n + 2)) ** k if k > 0 else 1
    total = 0
    for m, s in enumerate(_stirling_row(n), start=1):
        if s:
            weight = common // m**k if k > 0 else m**-k
            total += (-1) ** (m - 1) * factorial(m - 1) * s * weight
    return Fraction(total if n % 2 == 0 else -total, common)


class PolyBernoulliCache:
    """A cap on the indices answered, in front of the process-wide memo."""

    def __init__(self, n_cap: int = 64):
        if not isinstance(n_cap, int) or n_cap < 0:
            raise ValueError(f"n_cap must be a non-negative integer, got {n_cap!r}")
        self.n_cap = n_cap

    def check(self, **indices: int) -> None:
        """Raise ValueError naming the first index outside ``0..n_cap``."""
        for name, value in indices.items():
            if value < 0:
                raise ValueError(f"{name}={value} is negative")
            if value > self.n_cap:
                raise ValueError(f"{name}={value} exceeds the cache cap {self.n_cap}")

    def poly_bernoulli(self, n: int, k: int) -> Fraction:
        """Poly-Bernoulli number, any integer upper index k.

        Closed form: ``(-1)^n * sum_{m=1}^{n+1} (-1)^(m-1) (m-1)! S(n, m-1) / m^k``.
        """
        self.check(n=n)
        return _closed_form(n, k)


DEFAULT_CACHE = PolyBernoulliCache()
check_index = DEFAULT_CACHE.check


def k_range(lo: int, hi: int) -> range:
    """The upper indices ``lo..hi``; ValueError if there are none."""
    if lo > hi:
        raise ValueError("the k range is empty")
    return range(lo, hi + 1)


def poly_bernoulli(n: int, k: int) -> Fraction:
    return DEFAULT_CACHE.poly_bernoulli(n, k)


def poly_bernoulli_negative(n: int, k: int) -> int:
    """Poly-Bernoulli number with upper index -k, for k >= 0, as an integer.

    Uses the symmetric double-Stirling form
    ``sum_j (j!)^2 S(n+1, j+1) S(k+1, j+1)``, which makes both the positivity
    and the (n, k) duality plain, and which counts the n x k lonesum 0/1
    matrices.  Must agree with ``poly_bernoulli(n, -k)``.
    """
    check_index(n=n, k=k)
    # Rows n + 1 and k + 1 may lie one past the cap, which bounds n and k.
    row_n, row_k = _stirling_row(n + 1), _stirling_row(k + 1)
    total = 0
    for j in range(min(n, k) + 1):
        total += factorial(j) ** 2 * row_n[j + 1] * row_k[j + 1]
    return total


def poly_bernoulli_poly(n: int, k: int) -> MultiPoly:
    """The degree-n poly-Bernoulli polynomial in X.

    Binomial convolution of the numbers with powers of X, i.e. the normalized
    ``t^n`` coefficient of the number series times ``e^{X t}``; at X = 0 it
    reduces to ``poly_bernoulli(n, k)``.
    """
    check_index(n=n)
    numbers = [DEFAULT_CACHE.poly_bernoulli(j, k) for j in range(n + 1)]
    return binomial_convolution(numbers, powers(X, n))


def classical_bernoulli(n: int) -> Fraction:
    """Bernoulli number in the B_1 = -1/2 convention (series ``t / (e^t - 1)``).

    Equal to ``(-1)^n poly_bernoulli(n, 1)``: the sign flip moves between the
    two standard conventions, and only n = 1 actually changes.
    """
    value = poly_bernoulli(n, 1)
    return value if n % 2 == 0 else -value
