import functools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polybernoulli import series
from polybernoulli.exact import LA, LB, LC, MultiPoly, X
from polybernoulli.series import (
    PowerSeries,
    format_series,
    gen_pb_numbers_series,
    gf_iterated_integral,
    gf_poly_bernoulli,
    polylog_series,
    ps_compose,
    ps_div,
    ps_exp_linear,
    ps_exp_poly,
)

F = Fraction

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def series_of(*coeffs):
    return PowerSeries([F(c) if isinstance(c, (int, str)) else c for c in coeffs])


@st.composite
def rational_series(draw, min_order=0, max_order=6):
    order = draw(st.integers(min_order, max_order))
    return PowerSeries([draw(rationals) for _ in range(order + 1)])


@st.composite
def unit_series(draw, max_order=6):
    s = draw(rational_series(min_order=1, max_order=max_order))
    lead = draw(st.sampled_from([F(1), F(-1), F(1, 2), F(3)]))
    return PowerSeries((lead,) + s.coeffs[1:])


# -- arithmetic and truncation --------------------------------------------


def test_orders_truncate_to_min():
    a = series_of(1, 2, 3, 4)
    b = series_of(1, 1)
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a - b).coeffs == (F(0), F(1))


def test_mul_is_cauchy():
    a = series_of(1, 1, 1)
    b = series_of(1, 2, 3)
    assert (a * b).coeffs == (F(1), F(3), F(6))


def test_scalar_ops():
    a = series_of(0, 1)
    assert (1 - ps_exp_linear(F(-1), 3)).coeffs == (F(0), F(1), F(-1, 2), F(1, 6))
    assert (a * F(1, 2)).coeffs == (F(0), F(1, 2))
    assert (a + 5).coeffs == (F(5), F(1))


def test_constructor_rejects_empty_and_bad_order():
    with pytest.raises(ValueError):
        PowerSeries([])
    with pytest.raises(ValueError):
        PowerSeries.constant(0, -1)
    with pytest.raises(ValueError):
        PowerSeries.identity(0)


def test_coefficient_past_the_order_is_refused():
    s = series_of(1, 2, 3)
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError, match="^coefficient 3 beyond truncation order 2$"):
        s.coefficient(3)


def test_valuation():
    assert series_of(0, 0, 5).valuation() == 2
    assert series_of(1, 2).valuation() == 0
    assert PowerSeries.constant(0, 3).valuation() == 4


# -- division --------------------------------------------------------------


def test_div_simple_geometric():
    one = PowerSeries.constant(1, 4)
    den = series_of(1, -1, 0, 0, 0)
    assert ps_div(one, den).coeffs == (F(1),) * 5


def test_div_valuation_shift():
    # t^2 / t = t, with both operands carried to order 3
    num = series_of(0, 0, 1, 0)
    den = series_of(0, 1, 0, 0)
    q = ps_div(num, den)
    assert q.order == 2
    assert q.coeffs == (F(0), F(1), F(0))


def test_div_exp_minus_one_over_t():
    num = ps_exp_linear(F(1), 3) - 1
    den = PowerSeries.identity(3)
    q = ps_div(num, den)
    assert q.coeffs == (F(1), F(1, 2), F(1, 6))


def test_div_non_series_quotient():
    with pytest.raises(ValueError, match="non-series quotient"):
        ps_div(series_of(1, 0, 0), series_of(0, 1, 0))


def test_div_insufficient_order():
    with pytest.raises(ValueError, match="insufficient order"):
        ps_div(PowerSeries([0]), PowerSeries([0, 1]))


def test_div_leading_coefficient_not_a_unit():
    num = PowerSeries([MultiPoly.constant(1), MultiPoly.constant(0)])
    den = PowerSeries([LA, MultiPoly.constant(0)])
    with pytest.raises(ValueError, match="not a unit"):
        ps_div(num, den)


def test_div_by_zero_series():
    with pytest.raises(ValueError, match="zero series"):
        ps_div(series_of(1, 2), PowerSeries.constant(0, 1))


@given(rational_series(), unit_series())
@settings(max_examples=40)
def test_div_mul_round_trip(num, den):
    q = ps_div(num, den)
    back = q * den
    n = back.order
    assert back.coeffs == num.coeffs[: n + 1]


# -- the integer core against the one-Fraction-per-coefficient recurrences --


def _reference_mul(a, b):
    out = []
    for m in range(min(len(a), len(b))):
        acc = F(0)
        for i in range(m + 1):
            acc = acc + a[i] * b[m - i]
        out.append(acc)
    return out


def _reference_div(a, b):
    """The quotient recurrence, for a divisor whose leading coefficient is a unit."""
    lead = b[0].constant_value() if isinstance(b[0], MultiPoly) else b[0]
    inv = 1 / F(lead)
    q = []
    for m in range(min(len(a), len(b))):
        acc = a[m]
        for i in range(m):
            acc = acc - q[i] * b[m - i]
        q.append(acc * inv)
    return q


def _reference_exp_linear(c, order):
    coeffs = [F(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * c * F(1, n))
    return coeffs


def _reference_integrate(a):
    return [F(0)] + [c * F(1, i + 1) for i, c in enumerate(a)]


# denominators up to 10^6, so a quotient's running denominator must grow
wide = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
wide_units = wide.filter(bool)
poly_coeffs = st.builds(
    lambda c0, c1, c2: c0 + c1 * LA + c2 * X * LB, wide, wide, wide
)
mixed = st.one_of(wide, poly_coeffs)


@st.composite
def wide_series(draw, coeffs=wide, min_order=0, max_order=8):
    order = draw(st.integers(min_order, max_order))
    return [draw(coeffs) for _ in range(order + 1)]


def assert_matches(got, reference):
    assert got.coeffs == tuple(reference)
    assert got == PowerSeries(reference)


@given(wide_series(mixed), wide_series(mixed))
@settings(max_examples=60)
def test_mul_matches_reference(a, b):
    assert_matches(PowerSeries(a) * PowerSeries(b), _reference_mul(a, b))


@given(wide_series(mixed), wide_units, wide_series(mixed, min_order=1))
@example([F(1)] * 6, F(3), [F(0), F(1, 2), F(1, 5), F(1, 7), F(1, 11), F(1, 13)])
@settings(max_examples=80)
def test_div_matches_reference(a, lead, b):
    b = [lead] + b[1:]
    assert_matches(ps_div(PowerSeries(a), PowerSeries(b)), _reference_div(a, b))
    b = [MultiPoly.constant(lead)] + b[1:]
    assert_matches(ps_div(PowerSeries(a), PowerSeries(b)), _reference_div(a, b))


@given(mixed, st.integers(0, 12))
@settings(max_examples=40)
def test_exp_linear_matches_reference(c, order):
    assert_matches(ps_exp_linear(c, order), _reference_exp_linear(c, order))


@given(wide_series(mixed))
@settings(max_examples=40)
def test_integrate_matches_reference(a):
    assert_matches(PowerSeries(a).integrate(), _reference_integrate(a))


@given(wide_series(mixed), wide_series(mixed))
@settings(max_examples=60)
def test_series_built_by_different_routes_compare_and_hash_equal(a, b):
    a, b = PowerSeries(a), PowerSeries(b)
    n = min(a.order, b.order)
    a_n = PowerSeries(a.coeffs[: n + 1])
    for x, y in [((a + b) - b, a_n), (-(-a), a), (a * b, b * a)]:
        assert x == y
        assert hash(x) == hash(y)


@given(wide_series())
@settings(max_examples=30)
def test_constant_polynomial_coefficients_equal_fraction_coefficients(a):
    as_polys = PowerSeries([MultiPoly.constant(c) for c in a])
    assert as_polys == PowerSeries(a)
    assert hash(as_polys) == hash(PowerSeries(a))


@given(wide_series(mixed, max_order=6))
@settings(max_examples=40)
def test_div_by_a_polynomial_divisor_with_constant_lead_undoes_mul(a):
    # d = 1 + La*t + Lb*t^2: a constant lead, polynomial coefficients after it
    s = PowerSeries(a)
    d = PowerSeries([MultiPoly.constant(1), LA, LB] + [0] * s.order)
    assert ps_div(s * d, d) == s


# -- composition -----------------------------------------------------------


def test_compose_square_example():
    outer = series_of(0, 0, 1, 0)  # z^2
    inner = series_of(0, 1, 1, 0)  # t + t^2
    assert ps_compose(outer, inner).coeffs == (F(0), F(0), F(1), F(2))


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError, match="constant term"):
        ps_compose(series_of(1, 1), series_of(1, 1))


def test_compose_with_zero_inner():
    outer = series_of(7, 3, 2)
    assert ps_compose(outer, PowerSeries.constant(0, 2)).coeffs == (F(7), F(0), F(0))


def inner_powers(inner, n):
    """inner^0, ..., inner^n, each truncated to order n."""
    inner = PowerSeries(inner.coeffs[: n + 1])
    powers = [PowerSeries.constant(1, n)]
    for _ in range(n):
        powers.append(powers[-1] * inner)
    return powers


def power_sum_reference(outer, powers):
    """sum_j outer_j * inner^j over the given powers: the composition by definition."""
    expected = PowerSeries.constant(0, powers[0].order)
    for c, power in zip(outer.coeffs, powers):
        expected = expected + c * power
    return expected


@given(rational_series(max_order=5), rational_series(min_order=1, max_order=5))
@example(series_of(1, 2, 3, 4), series_of(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
@example(series_of(*range(1, 11)), series_of(0, F(1, 2), 3, F(-1, 3)))
@example(series_of(F(5, 3)), series_of(0, 1, 2, 3, 4, 5))
@example(series_of(F(5, 3), 1, F(1, 4), 7, 2, -1), series_of(0, F(-2, 7)))
@example(  # interior zeros in both operands
    series_of(F(1, 2), -3, 0, F(5, 7), 0, 0, F(-1, 9), 2, 0, F(4, 3)),
    series_of(0, 0, F(3, 4), 0, 0, F(-2, 5), 0, 1, 0, F(1, 6)),
)
@settings(max_examples=30)
def test_compose_matches_polynomial_expansion(outer, inner):
    inner = PowerSeries((F(0),) + inner.coeffs[1:])
    got = ps_compose(outer, inner)
    n = min(outer.order, inner.order)
    assert got == power_sum_reference(outer, inner_powers(inner, n))


@functools.cache
def exp_powers(s):
    return inner_powers(1 - ps_exp_linear(-s, 40), 40)


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("s", [F(1), F(7, 15), F(-17, 12), F(3, 5)])
def test_compose_polylog_matches_power_sum(k, s):
    # Both operands at a lower order are truncations of those at order 40,
    # so one reference at order 40 serves every order.  The series oracle's
    # numerator, Li_k cut at the order and rewritten at z = 1 - w, summed
    # over w^j = e^{-j s t}, must meet the same reference.
    expected = power_sum_reference(polylog_series(k, 40), exp_powers(s))
    for order in range(1, 41):
        want = PowerSeries(expected.coeffs[: order + 1])
        assert ps_compose(polylog_series(k, order), 1 - ps_exp_linear(-s, order)) == want
        weights, den = series._polylog_at_one_minus(k, order)
        assert ps_exp_poly(weights, -s, order) * F(1, den) == want


def test_compose_rejects_polynomial_coefficients():
    with pytest.raises(ValueError, match="rational coefficients"):
        ps_compose(PowerSeries([F(1), LA]), series_of(0, 1))
    # a constant polynomial coefficient is its value: the series composes
    # like its Fraction twin, which it already equals and hash-equals
    outer, inner = series_of(1, "1/3", -2), series_of(0, "5/7", 1)
    poly_outer, poly_inner = (
        PowerSeries([MultiPoly.constant(c) for c in s.coeffs]) for s in (outer, inner)
    )
    expected = ps_compose(outer, inner)
    for got in (ps_compose(outer, poly_inner), ps_compose(poly_outer, poly_inner)):
        assert got == expected
        assert hash(got) == hash(expected)


# -- exp and calculus ------------------------------------------------------


def test_exp_linear_rational():
    for e in (ps_exp_linear(F(2), 3), ps_exp_poly((0, 1), F(2), 3)):
        assert e.coeffs == (F(1), F(2), F(2), F(4, 3))


def test_exp_linear_polynomial_argument():
    for e in (ps_exp_linear(X * LC, 2), ps_exp_poly((0, 1), X * LC, 2)):
        assert e.coeffs[0] == 1
        assert e.coeffs[1] == X * LC
        assert e.coeffs[2] == F(1, 2) * X**2 * LC**2


@given(st.lists(wide, min_size=1, max_size=6), mixed, st.integers(0, 10))
@example([F(3), F(0), F(-1, 2)], X * LC, 4)
@settings(max_examples=40)
def test_exp_poly_matches_reference(weights, c, order):
    # sum_j w_j e^{j c t}, each exponential by its factorial recurrence
    reference = [F(0)] * (order + 1)
    for j, w in enumerate(weights):
        for n, term in enumerate(_reference_exp_linear(j * c, order)):
            reference[n] = reference[n] + w * term
    assert_matches(ps_exp_poly(weights, c, order), reference)


def test_exp_functional_equation():
    n = 8
    a, b = F(2, 3), F(-1, 2)
    lhs = ps_exp_linear(a, n) * ps_exp_linear(b, n)
    assert lhs == ps_exp_linear(a + b, n)
    # e^t * e^{-t} = 1
    assert (ps_exp_linear(F(1), n) * ps_exp_linear(F(-1), n)) == PowerSeries.constant(1, n)


def test_diff_integrate():
    s = series_of(0, 0, 1)  # t^2
    assert s.integrate().coeffs == (F(0), F(0), F(0), F(1, 3))
    assert PowerSeries.constant(5, 0).integrate().coeffs == (F(0), F(5))


@given(rational_series())
@settings(max_examples=30)
def test_fundamental_theorem(s):
    # the integral from 0 has constant term 0, and its derivative is s
    out = s.integrate().coeffs
    assert len(out) == len(s.coeffs) + 1
    assert out[0] == 0
    assert all((i + 1) * out[i + 1] == c for i, c in enumerate(s.coeffs))


# -- polylog and generating functions --------------------------------------


def test_polylog_small_k():
    assert polylog_series(1, 4).coeffs == (F(0), F(1), F(1, 2), F(1, 3), F(1, 4))
    assert polylog_series(0, 4).coeffs == (F(0), F(1), F(1), F(1), F(1))
    assert polylog_series(-1, 4).coeffs == (F(0), F(1), F(2), F(3), F(4))
    assert polylog_series(-2, 3).coeffs == (F(0), F(1), F(4), F(9))


def test_polylog_one_composed_is_t():
    # Li_1(1 - e^{-t}) = -log(e^{-t}) = t exactly
    order = 8
    inner = 1 - ps_exp_linear(F(-1), order)
    got = ps_compose(polylog_series(1, order), inner)
    assert got == PowerSeries.identity(order)


def test_gf_poly_bernoulli_k1_values():
    s = gf_poly_bernoulli(1, 6)
    values = [s.coefficient(n) * factorial(n) for n in range(7)]
    assert values == [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]


def test_gf_poly_bernoulli_k2_first_values():
    s = gf_poly_bernoulli(2, 3)
    values = [s.coefficient(n) * factorial(n) for n in range(4)]
    assert values == [F(1), F(1, 4), F(-1, 36), F(-1, 24)]


def test_gf_poly_bernoulli_negative_k_values():
    s = gf_poly_bernoulli(-1, 4)
    values = [s.coefficient(n) * factorial(n) for n in range(5)]
    assert values == [F(1), F(2), F(4), F(8), F(16)]
    s2 = gf_poly_bernoulli(-2, 3)
    values2 = [s2.coefficient(n) * factorial(n) for n in range(4)]
    assert values2 == [F(1), F(4), F(14), F(46)]


def test_iterated_integral_matches_closed_form():
    for k in range(1, 6):
        assert gf_iterated_integral(k, 12) == gf_poly_bernoulli(k, 12)


def test_iterated_integral_rejects_small_k():
    with pytest.raises(ValueError):
        gf_iterated_integral(0, 4)


# -- printing --------------------------------------------------------------


def test_format_series():
    assert format_series(gf_poly_bernoulli(1, 2)) == "1 + 1/2*t + 1/12*t^2 + O(t^3)"
    assert format_series(PowerSeries.constant(0, 2)) == "0 + O(t^3)"
    assert format_series(series_of(1, -1, 0, F(1, 3))) == "1 - t + 1/3*t^3 + O(t^4)"
    with_poly = PowerSeries([MultiPoly.constant(1), LA + LB])
    assert format_series(with_poly) == "1 + (La + Lb)*t + O(t^2)"


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_series_entry_points_reject_inexact_values(bad):
    for call in (
        lambda: PowerSeries([bad]),
        lambda: PowerSeries.constant(bad, 2),
        lambda: series_of(1, 2) * bad,
        lambda: ps_exp_linear(bad, 3),
        lambda: gen_pb_numbers_series(1, bad, F(1, 3), 1),
        lambda: gen_pb_numbers_series(1, F(1, 2), bad, 1),
    ):
        with pytest.raises(TypeError):
            call()
