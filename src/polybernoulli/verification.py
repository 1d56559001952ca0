"""Every identity suite, its fixtures, and the one runner, ``run_suite``.

The suites machine-check the paper's statements against the closed forms of
:mod:`~polybernoulli.numbers`, :mod:`~polybernoulli.euler` and
:mod:`~polybernoulli.generalized`: T1-T5 (``verify_theorem1`` ..
``verify_theorem5``), C1 (``verify_corollary1``), E1-E3
(``verify_euler_identities``), and the ORACLE anchors, which pin the closed
forms to series expansions and the iterated-integral construction that share
no code with them (``verify_pb_closed_form``, ``verify_negative_index``,
``verify_iterated_integral``, ``verify_gen_numbers_anchor``).  Each streams
``(label, lhs, rhs)`` cases, most from ``_nk_cases`` or ``_oracle_cases``,
into :func:`~polybernoulli.reports.check` over the grid its caller passes.
The fixtures are the oracle points ``_POINTS_2`` and ``_POINTS_4`` (spelled
by ``_POINT_NAMES``), T2's ``_Y_VALUES``, T4.21's ``_BOUNDS``, and ``_F1_2``;
``_shift_x`` shifts x by a held ``X + delta``.  ``run_suite`` is the one
place that sets grids: its table ``_SUITES`` holds each suite's default
n_max, no ``verify_*`` function has a default, and a grid it cannot run is
rejected before any suite runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .euler import euler_poly, gen_euler_poly
from .exact import LA, LB, LC, MultiPoly, X, Y, as_poly, binomial_convolution, powers
from .generalized import (
    gen_pb_numbers,
    gen_pb_numbers_by_sum,
    gen_pb_poly,
    gen_pb_poly_assembled,
    gen_pb_poly_double_sum,
    gen_pb_poly_series,
    pb_definite_integral,
    pb_derivative,
)
from .numbers import (
    check_index,
    classical_bernoulli,
    k_range,
    poly_bernoulli,
    poly_bernoulli_negative,
    poly_bernoulli_poly,
)
from .reports import IdentityReport, check
from .series import (
    PowerSeries,
    gen_pb_numbers_series,
    gf_iterated_integral,
    gf_poly_bernoulli,
    ps_div,
    ps_exp_linear,
)

__all__ = [
    "SUITE_NAMES",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_theorem4",
    "verify_theorem5",
    "verify_corollary1",
    "verify_euler_identities",
    "verify_pb_closed_form",
    "verify_negative_index",
    "verify_iterated_integral",
    "verify_gen_numbers_anchor",
    "run_suite",
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
# The shifted arguments ``X + delta`` the suites substitute, held so each
# power of each is built once per process (see ``exact.powers``).
_X_PLUS_1 = X + 1
_X_PLUS_Y = X + Y
_Y_SHIFTS = tuple((y0, X + y0) for y0 in _Y_VALUES)


def _shift_x(p: MultiPoly, shifted: MultiPoly) -> MultiPoly:
    """``p`` at x + delta, given the held ``shifted = X + delta``."""
    return p.substitute({"X": shifted})


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
        return _shift_x(gen_pb_poly(n, k), _X_PLUS_1)

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
            by_y = [(y0, shifted, factors(k, y0)) for y0, shifted in _Y_SHIFTS]
            for n in range(n_max + 1):
                for y0, shifted, pair in by_y:
                    lhs = _shift_x(gen_pb_poly(n, k), shifted)
                    yield f"n={n} k={k} y={y0}{suffix}", lhs, convolution(pair, n)

    def symbolic_cases():
        for k in ks:
            first, swapped = at_y(k, Y), at_y_swapped(k, Y)
            for n in range(n_max + 1):
                lhs = _shift_x(gen_pb_poly(n, k), _X_PLUS_Y)
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
            yield f"n={n} k1={k1}", _shift_x(b_1bb[n], _X_PLUS_Y), rhs * _F1_2

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
        return _shift_x(p, _X_PLUS_1) + p

    def special(k):
        return gen_euler_poly(k).substitute({"La": 0, "Lc": LB})

    return [
        check("E1", "shift by one equals the binomial sum", n_max, "-",
              ((f"k={k}", _shift_x(euler_poly(k), _X_PLUS_1), binomial_sum(k)) for k in degrees)),
        check("E2", "shifted and plain values pair to 2*X^k", n_max, "-",
              ((f"k={k}", pairing(euler_poly(k)), 2 * X**k) for k in degrees)),
        check("E3", "the (1, b, b) specialization pairs to 2*X^k*Lb^k", n_max, "-",
              ((f"k={k}", pairing(special(k)), 2 * X**k * LB**k) for k in degrees)),
    ]


def verify_pb_closed_form(n_max: int, ks: range) -> list[IdentityReport]:
    """Closed-form numbers against the generating-function expansion."""

    def cases():
        for k in ks:
            s = gf_poly_bernoulli(k, n_max)
            for n in range(n_max + 1):
                yield f"n={n} k={k}", poly_bernoulli(n, k), s.coefficient(n) * factorial(n)

    return [
        check("ORACLE", "closed-form numbers match the generating-function expansion",
              n_max, ks, cases())
    ]


def verify_negative_index(n_max: int) -> list[IdentityReport]:
    """Negative upper index against the series oracle: closed forms, duality, integrality."""
    ks = range(-n_max, 1)
    grid = [(n, k) for n in range(n_max + 1) for k in range(n_max + 1)]
    series = [gf_poly_bernoulli(-k, n_max) for k in range(n_max + 1)]

    def oracle(n, k):
        return series[k].coefficient(n) * factorial(n)

    def integrality_cases():
        for n, k in grid:
            value = poly_bernoulli(n, -k)
            positive_integer = value.denominator == 1 and value > 0
            yield f"n={n} k=-{k}: {value} is a positive integer", positive_integer, True

    return [
        check("ORACLE", "negative upper index agrees with the double Stirling sum",
              n_max, ks,
              ((f"n={n} k=-{k}", (poly_bernoulli(n, -k), oracle(n, k)),
                (poly_bernoulli_negative(n, k),) * 2) for n, k in grid)),
        check("ORACLE", "swapping the indices at negative upper index changes nothing",
              n_max, ks,
              ((f"(n,k)=({n},{k})", oracle(n, k), oracle(k, n)) for n, k in grid)),
        check("ORACLE", "negative-index values are positive integers",
              n_max, ks, integrality_cases()),
    ]


def verify_iterated_integral(n_max: int) -> list[IdentityReport]:
    """The integrate-and-divide construction rebuilds the generating function, k = 1..5."""
    ks = range(1, 6)
    return [
        check("ORACLE", "iterated-integral construction rebuilds the generating function",
              n_max, ks,
              ((f"k={k}", gf_iterated_integral(k, n_max), gf_poly_bernoulli(k, n_max))
               for k in ks))
    ]


def verify_gen_numbers_anchor(n_max: int, ks: range) -> list[IdentityReport]:
    """Two-parameter closed form pinned to its series oracle on a wider grid."""
    return [
        check("ORACLE", "two-parameter closed form anchored to the series oracle",
              n_max, ks,
              _oracle_cases(n_max, ks, _POINTS_2, gen_pb_numbers_series, gen_pb_numbers))
    ]


# -- the one runner --------------------------------------------------------

# Suite name -> (default n_max, run(n_max, ks)), in the order "all" runs them.
# Each call looks its verifiers up in this module when it runs, so a
# ``verify_*`` rebound here (as a tracer does) is the one that runs.
_SUITES = {
    "T1": (10, lambda n, ks: verify_theorem1(n, ks)),
    "T2": (8, lambda n, ks: verify_theorem2(n, ks)),
    "T3": (10, lambda n, ks: verify_theorem3(n, ks)),
    "T4": (10, lambda n, ks: verify_theorem4(n, ks)),
    "T5": (8, lambda n, ks: verify_theorem5(n, range(max(ks.start, 1), ks.stop))),
    "C1": (10, lambda n, ks: verify_corollary1(n)),
    "euler": (10, lambda n, ks: verify_euler_identities(n)),
    "oracle": (12, lambda n, ks: verify_pb_closed_form(n, ks) + verify_negative_index(n)
               + verify_iterated_integral(n) + verify_gen_numbers_anchor(n, ks)),
}
SUITE_NAMES = ("all", *_SUITES)


def run_suite(
    suite: str,
    n_max: int | None = None,
    k_min: int | None = None,
    k_max: int | None = None,
) -> list[IdentityReport]:
    """Run one named identity suite (or all of them) and collect the reports.

    ValueError, before any suite runs, for an unknown suite, an empty k range
    (from :func:`~polybernoulli.numbers.k_range`, default -3..3), an n_max
    that :func:`~polybernoulli.numbers.check_index` refuses, and T5 with no k >= 1.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite: {suite!r}")
    ks = k_range(-3 if k_min is None else k_min, 3 if k_max is None else k_max)
    if n_max is not None:
        check_index(n=n_max)
    if suite in ("all", "T5") and ks[-1] < 1:
        raise ValueError("T5 needs some k >= 1 in the k range")
    reports: list[IdentityReport] = []
    for name, (default, run) in _SUITES.items():
        if suite in ("all", name):
            reports += run(default if n_max is None else n_max, ks)
    return reports
