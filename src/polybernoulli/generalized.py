"""Two- and three-parameter poly-Bernoulli values and the identity suite.

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

Each ``verify_*`` function checks one family of identities over the grid
its caller passes, n = 0..n_max and k over the range ``ks``
(:func:`~polybernoulli.verification.run_suite` holds the defaults): it
streams ``(label, lhs, rhs)`` cases into :func:`~polybernoulli.reports.check`,
which names the grid, counts and times the cases, compares each exactly and
stops at the first mismatch.  The series oracle is read at
three fixed rational points; it is expanded once per (k, point) and serves
every n, exactly to order n_max.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .euler import _shift_x, euler_poly, gen_euler_poly
from .exact import (
    LA,
    LB,
    LC,
    MultiPoly,
    PolyLike,
    X,
    Y,
    _as_fraction,
    as_poly,
    binomial_convolution,
    homogeneous_substitute,
    powers,
)
from .numbers import check_index, classical_bernoulli, poly_bernoulli, poly_bernoulli_poly
from .reports import IdentityReport, check
from .series import PowerSeries, gen_pb_numbers_series, ps_div, ps_exp_linear

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
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_theorem4",
    "verify_theorem5",
    "verify_corollary1",
]

_F1_2 = Fraction(1, 2)
# Oracle points, binding (La, Lb) and (La, Lb, Lc, X); ln a + ln b != 0 in each.
_POINTS_2 = tuple(dict(zip(("La", "Lb"), point)) for point in (
    (Fraction(-5), Fraction(0)),
    (Fraction(-1, 2), Fraction(-5, 6)),
    (Fraction(-6, 5), Fraction(5)),
))
_POINTS_4 = tuple(dict(zip(("La", "Lb", "Lc", "X"), point)) for point in (
    (Fraction(-7, 3), Fraction(-1), Fraction(1, 2), Fraction(-5, 4)),
    (Fraction(7, 5), Fraction(-8, 5), Fraction(1), Fraction(3, 5)),
    (Fraction(5, 4), Fraction(-3), Fraction(-5), Fraction(2)),
))
_POINT_NAMES = {"La": "ln a", "Lb": "ln b", "Lc": "ln c", "X": "x"}
_Y_VALUES = tuple(map(as_poly, (Fraction(0), Fraction(1, 2), Fraction(-1, 3))))
_BOUNDS = tuple((as_poly(alpha), as_poly(beta)) for alpha, beta in (
    (Fraction(0), Fraction(1)),
    (Fraction(-1, 2), Fraction(1, 3)),
    (Fraction(2, 5), Fraction(2, 5)),
))
# The bases every construction raises to powers, held so each power of each
# is built once per process (see ``exact.powers``).
_LA_PLUS_LB = LA + LB
_MINUS_LB = -LB
_X_LC = X * LC
_X_LC_MINUS_LB = _X_LC - LB


# -- constructions ---------------------------------------------------------


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


# -- helpers ---------------------------------------------------------------


def _nk_cases(ks, n_max: int, lhs, rhs):
    """Cases ``lhs(n, k)`` against ``rhs(n, k)`` for k in ks and n = 0..n_max."""
    for k in ks:
        for n in range(n_max + 1):
            yield f"n={n} k={k}", lhs(n, k), rhs(n, k)


def _oracle_cases(n_max: int, ks, points, series, closed):
    """Series oracle against a closed form at fixed rational points.

    Each point binds the indeterminates ``_POINT_NAMES`` spells, in the order
    ``series(k, *point, order)`` takes them; ``closed(n, k)`` is read there.
    One oracle expansion per (k, point) serves every n up to n_max.
    """
    for k in ks:
        for point in points:
            s = series(k, *point.values(), n_max)
            names = ", ".join(_POINT_NAMES[name] for name in point)
            where = f"k={k} at ({names})=({','.join(map(str, point.values()))})"
            for n in range(n_max + 1):
                yield f"n={n} {where}", s.coefficient(n) * factorial(n), closed(n, k).eval(point)


# -- identity suites -------------------------------------------------------


def verify_theorem1(n_max: int, ks: range) -> list[IdentityReport]:
    """All constructions of the two- and three-parameter families agree.

    Two checks anchor the closed forms to the series oracle at fixed
    rational points; the other four are exact polynomial identities
    (alternating-sum form, parameter shift, specialization back to the
    one-variable family, and the single homogeneous substitution against the
    per-degree convolution).
    """
    move_c = {"La": LA + LC, "Lb": LB - LC}
    to_one_variable = {"La": 1 + X, "Lb": -X}

    def shifted(n, k):
        return _shift_x(gen_pb_poly(n, k), 1)

    def c_moved(n, k):
        return gen_pb_poly(n, k).substitute(move_c)

    def one_variable(n, k):
        return gen_pb_numbers(n, k).substitute(to_one_variable)

    return [
        check("T1.11", "two-parameter values match the series oracle at seeded rational points",
              n_max, ks,
              _oracle_cases(n_max, ks, _POINTS_2, gen_pb_numbers_series, gen_pb_numbers)),
        check("T1.12", "substituted-polynomial and alternating-sum constructions agree",
              n_max, ks, _nk_cases(ks, n_max, gen_pb_numbers, gen_pb_numbers_by_sum)),
        check("T1.13",
              "three-parameter polynomials match the series oracle at seeded rational points",
              n_max, ks,
              _oracle_cases(n_max, ks, _POINTS_4, gen_pb_poly_series, gen_pb_poly)),
        check("T1.14", "shifting x by one equals moving a factor of c from b to a",
              n_max, ks, _nk_cases(ks, n_max, shifted, c_moved)),
        check("T1.15",
              "binding the parameters to (1+s, -s) recovers the one-variable polynomials",
              n_max, ks, _nk_cases(ks, n_max, one_variable, poly_bernoulli_poly)),
        check("T1.16", "one homogeneous substitution builds the full three-parameter polynomial",
              n_max, ks, _nk_cases(ks, n_max, gen_pb_poly, gen_pb_poly_assembled)),
    ]


def verify_theorem2(n_max: int, ks: range) -> list[IdentityReport]:
    """Addition formula: expanding at x + y matches the binomial convolution.

    Checked at rational shifts y, with the roles of x and y swapped, and once
    more fully symbolically at y = Y, where both convolutions must equal
    ``B_n(X + Y)``, so no specialization is involved at all.
    """
    y_text = ",".join(map(str, _Y_VALUES))

    def at_y(k, y0):
        return [gen_pb_poly(l, k) for l in range(n_max + 1)], powers(LC * y0, n_max)

    def at_y_swapped(k, y0):
        values_at_y = [gen_pb_poly(l, k).substitute({"X": y0}) for l in range(n_max + 1)]
        return values_at_y, powers(LC * X, n_max)

    def convolution(factors, n):
        a, b = factors
        return binomial_convolution(a[: n + 1], b[: n + 1])

    def shift_cases(factors, suffix=""):
        """``B_n(x + y)`` against the convolution of ``factors(k, y)`` cut at n."""
        for k in ks:
            by_y = [(y0, factors(k, y0)) for y0 in _Y_VALUES]
            for n in range(n_max + 1):
                for y0, pair in by_y:
                    lhs = _shift_x(gen_pb_poly(n, k), y0)
                    yield f"n={n} k={k} y={y0}{suffix}", lhs, convolution(pair, n)

    def symbolic_cases():
        for k in ks:
            first, swapped = at_y(k, Y), at_y_swapped(k, Y)
            for n in range(n_max + 1):
                lhs = _shift_x(gen_pb_poly(n, k), Y)
                rhs = convolution(first, n), convolution(swapped, n)
                yield f"n={n} k={k} (symbolic forms)", (lhs, lhs), rhs

    return [
        check("T2.17", f"expansion around rational shifts y in {{{y_text}}}", n_max, ks,
              shift_cases(at_y)),
        check("T2.17", "the same expansion with the roles of x and y swapped", n_max, ks,
              shift_cases(at_y_swapped, " (swapped)")),
        check("T2.17", "fully symbolic two-variable expansion", n_max, ks, symbolic_cases()),
    ]


def verify_theorem3(n_max: int, ks: range) -> list[IdentityReport]:
    """The two expanded closed forms rebuild the production polynomial.

    Neither check is independent evidence: T3.18 is T1.16's comparison, and
    T3.19 follows from T1.12 and T1.16, since it is the same
    ``binomial_convolution`` over the alternating sums that T1.12 proves
    equal to the values T1.16 convolves.  Both stay as the paper states them.
    """
    return [
        check(ident, detail, n_max, ks, _nk_cases(ks, n_max, builder, gen_pb_poly))
        for builder, ident, detail in (
            (gen_pb_poly_assembled, "T3.18", "per-degree homogeneous assembly agrees"),
            (gen_pb_poly_double_sum, "T3.19", "explicit double binomial sum agrees"),
        )
    ]


def verify_theorem4(n_max: int, ks: range) -> list[IdentityReport]:
    """Derivatives and definite integrals of the three-parameter family.

    The integral identity is checked multiplied out, for n up to
    ``min(n_max, 8)``: ``(n+1) Lc`` times the integral equals the
    antidifference of the degree-(n+1) polynomial.
    """
    n_integral = min(n_max, 8)
    bounds_text = ",".join(f"({alpha},{beta})" for alpha, beta in _BOUNDS)

    def derivative_cases():
        for k in ks:
            for n in range(n_max + 1):
                for l in range(n + 2):
                    got = pb_derivative(n, k, l)
                    if l > n:
                        expected = MultiPoly.constant(0)
                    else:
                        weight = Fraction(factorial(n), factorial(n - l))
                        expected = weight * LC**l * gen_pb_poly(n - l, k)
                    yield f"n={n} k={k} l={l}", got, expected

    def integral_cases():
        for k in ks:
            for n in range(n_integral + 1):
                scale = (n + 1) * LC
                anti = gen_pb_poly(n + 1, k)
                for alpha, beta in _BOUNDS:
                    integral = pb_definite_integral(n, k, alpha, beta)
                    difference = anti.substitute({"X": beta}) - anti.substitute({"X": alpha})
                    yield f"n={n} k={k} bounds=({alpha},{beta})", integral * scale, difference

    return [
        check("T4.20", "repeated d/dx lowers the degree with falling-factorial weights",
              n_max, ks, derivative_cases()),
        check("T4.21", f"definite integrals over {bounds_text} match the scaled antidifference",
              n_integral, ks, integral_cases()),
    ]


def verify_theorem5(n_max: int, k1s: range) -> list[IdentityReport]:
    """Mixed expansion over Euler polynomials at (1, b, b) parameters.

    ``B_n(x + y)`` must equal half the binomial convolution of
    ``B_k(y) + B_k(y + 1)`` against the matching Euler polynomials, all
    specialized to a = 1, c = b and symbolic in x, y = Y and ln b, so each
    case proves the identity for every y.  One report per k1; an empty
    ``k1s`` raises, since it would check nothing.
    """
    if not k1s:
        raise ValueError("T5 needs at least one k1")
    to_1bb = {"La": 0, "Lc": LB}
    y_plus_one = Y + 1
    euler_1bb = [gen_euler_poly(m).substitute(to_1bb) for m in range(n_max + 1)]

    def cases(k1):
        b_1bb = [gen_pb_poly(m, k1).substitute(to_1bb) for m in range(n_max + 1)]
        paired = [b.substitute({"X": Y}) + b.substitute({"X": y_plus_one}) for b in b_1bb]
        for n in range(n_max + 1):
            rhs = binomial_convolution(paired[: n + 1], euler_1bb[: n + 1])
            yield f"n={n} k1={k1}", _shift_x(b_1bb[n], Y), rhs * _F1_2

    return [
        check("T5", "expansion over Euler polynomials at (1, b, b) parameters",
              n_max, str(k1), cases(k1))
        for k1 in k1s
    ]


def verify_corollary1(n_max: int) -> list[IdentityReport]:
    """Classical Bernoulli polynomials expand over Euler polynomials.

    The left side comes straight from dividing ``t e^{x t}`` by ``e^t - 1``;
    the right side is the k != 1 part of the binomial convolution of the
    classical Bernoulli numbers with Euler polynomials.  Past the ring the
    two sides share no code: only the left calls the series engine.
    """

    def cases():
        m = n_max + 1
        num = PowerSeries.identity(m) * ps_exp_linear(X, m)
        den = ps_exp_linear(Fraction(1), m) - 1
        bernoulli_series = ps_div(num, den)
        bernoulli = [0 if k == 1 else classical_bernoulli(k) for k in range(m)]
        euler = [euler_poly(k) for k in range(m)]
        for n in range(m):
            lhs = as_poly(bernoulli_series.coefficient(n) * factorial(n))
            yield f"n={n}", lhs, binomial_convolution(bernoulli[: n + 1], euler[: n + 1])

    return [
        check("C1", "classical Bernoulli polynomials expand over Euler polynomials",
              n_max, "-", cases())
    ]
