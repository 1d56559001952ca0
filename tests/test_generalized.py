"""Parameterized poly-Bernoulli constructions and the identity verifiers."""

from fractions import Fraction
from math import factorial

import pytest

from polybernoulli import verification
from polybernoulli.exact import LA, LB, LC, MultiPoly, X, Y, poly_eval
from polybernoulli.generalized import (
    gen_pb_numbers,
    gen_pb_numbers_by_sum,
    gen_pb_numbers_series,
    gen_pb_poly,
    gen_pb_poly_assembled,
    gen_pb_poly_double_sum,
    gen_pb_poly_series,
    pb_definite_integral,
    pb_derivative,
)
from polybernoulli.numbers import poly_bernoulli, poly_bernoulli_poly
from polybernoulli.verification import (
    verify_corollary1,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_theorem5,
)

F = Fraction


def oracle_values(n_max, k, point):
    """Normalized series coefficients 0..n_max at one (ln a, ln b) point."""
    s = gen_pb_numbers_series(k, *point, n_max)
    return [s.coefficient(n) * factorial(n) for n in range(n_max + 1)]


def test_gen_numbers_small_closed_forms():
    assert gen_pb_numbers(0, 5) == MultiPoly.constant(1)
    for k in (-2, 0, 1, 3):
        expected = F(1, 2) ** k * (LA + LB) - LB
        assert gen_pb_numbers(1, k) == expected


def test_gen_numbers_specialize_to_plain_numbers():
    # Binding (ln a, ln b) = (1, 0) must collapse every bracket to B_n^(k).
    for k in range(-3, 4):
        for n in range(9):
            value = poly_eval(gen_pb_numbers(n, k), {"La": 1, "Lb": 0})
            assert value == poly_bernoulli(n, k)


def test_gen_numbers_sum_form_agrees():
    for k in (-2, -1, 0, 1, 2):
        for n in range(8):
            assert gen_pb_numbers(n, k) == gen_pb_numbers_by_sum(n, k)


def test_gen_numbers_sum_form_agrees_to_twelve():
    for k in (-3, 3):
        assert gen_pb_numbers(12, k) == gen_pb_numbers_by_sum(12, k)


def test_gen_poly_degree_one():
    for k in (-1, 2):
        expected = LC * X + F(1, 2) ** k * (LA + LB) - LB
        assert gen_pb_poly(1, k) == expected
    assert gen_pb_poly(0, -7) == MultiPoly.constant(1)


@pytest.mark.parametrize(
    "build",
    [gen_pb_poly, gen_pb_poly_assembled, gen_pb_poly_double_sum, gen_pb_numbers,
     gen_pb_numbers_by_sum],
)
def test_negative_lower_index_raises_on_every_route(build):
    with pytest.raises(ValueError, match="^n=-1 is negative$"):
        build(-1, 2)


def test_gen_poly_at_zero_is_numbers():
    for k in (-2, 1, 3):
        for n in range(7):
            assert gen_pb_poly(n, k).substitute({"X": 0}) == gen_pb_numbers(n, k)


def test_oracle_at_unit_point_gives_plain_numbers():
    values = oracle_values(8, 1, (F(1), F(0)))
    assert values[:5] == [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30)]
    assert values == [poly_bernoulli(n, 1) for n in range(9)]


def test_oracle_matches_closed_form_at_mixed_point():
    point = (F(1), F(1))
    values = oracle_values(6, 2, point)
    assert values[1] == F(-1, 2)
    for n in range(7):
        assert values[n] == poly_eval(gen_pb_numbers(n, 2), {"La": 1, "Lb": 1})


def test_oracle_at_fractional_point_negative_k():
    point = (F(1, 2), F(1, 3))
    values = oracle_values(6, -1, point)
    for n in range(7):
        assert values[n] == poly_eval(
            gen_pb_numbers(n, -1), {"La": point[0], "Lb": point[1]}
        )


def test_degenerate_point_rejected():
    with pytest.raises(ValueError, match="degenerate parameter point"):
        gen_pb_numbers_series(1, F(1), F(-1), 5)


@pytest.mark.parametrize("bad", [0.1, "1/3"])
def test_poly_series_rejects_inexact_values(bad):
    with pytest.raises(TypeError):
        gen_pb_poly_series(1, F(1), F(0), bad, F(1), 2)
    with pytest.raises(TypeError):
        gen_pb_poly_series(1, F(1), F(0), F(1), bad, 2)


def test_poly_series_matches_closed_form():
    point = {"X": F(1, 2), "La": F(1), "Lb": F(1, 3), "Lc": F(-2)}
    s = gen_pb_poly_series(2, point["La"], point["Lb"], point["Lc"], point["X"], 8)
    fact = 1
    for n in range(9):
        assert s.coefficient(n) * fact == poly_eval(gen_pb_poly(n, 2), point)
        fact *= n + 1


def test_parameter_shift_hand_check():
    # Moving x -> x + 1 at n = 1 adds exactly one Lc, matching the
    # reparameterization La -> La + Lc, Lb -> Lb - Lc.
    k = 3
    shifted = gen_pb_poly(1, k).substitute({"X": X + 1})
    moved = gen_pb_poly(1, k).substitute({"La": LA + LC, "Lb": LB - LC})
    assert shifted == moved == gen_pb_poly(1, k) + LC


def test_homogeneous_route_degree_two():
    for k in (-2, 0, 2):
        assert gen_pb_poly_assembled(2, k) == gen_pb_poly(2, k)
        assert gen_pb_poly_double_sum(2, k) == gen_pb_poly(2, k)


def test_specialization_recovers_one_variable_polynomials():
    for k in (-2, 1, 2):
        for n in range(7):
            bound = gen_pb_numbers(n, k).substitute({"La": 1 + X, "Lb": -X})
            assert bound == poly_bernoulli_poly(n, k)


def test_derivative_matches_scaled_polynomial():
    assert pb_derivative(2, 2, 1) == 2 * LC * gen_pb_poly(1, 2)
    assert pb_derivative(3, -1, 3) == 6 * LC**3
    assert not pb_derivative(2, 2, 5)


def test_derivative_rejects_a_negative_order():
    with pytest.raises(ValueError, match="derivative order"):
        pb_derivative(2, 2, -1)


def test_definite_integral_hand_values():
    got = pb_definite_integral(1, 1, 0, 1)
    assert got == F(1, 2) * LC + F(1, 2) * (LA + LB) - LB
    got = pb_definite_integral(1, 2, 0, 1)
    assert got == F(1, 2) * LC + F(1, 4) * (LA + LB) - LB
    assert pb_definite_integral(0, 3, 0, 1) == MultiPoly.constant(1)


def test_integral_respects_orientation_and_degenerate_bounds():
    a, b = F(-1, 2), F(1, 3)
    assert pb_definite_integral(4, 2, a, b) == -pb_definite_integral(4, 2, b, a)
    assert not pb_definite_integral(3, 1, b, b)


def symbolic_integral_holds(n, k):
    """``(n+1) Lc`` times the integral from Y to X is ``B_{n+1}(X) - B_{n+1}(Y)``."""
    anti = gen_pb_poly(n + 1, k)
    return (n + 1) * LC * pb_definite_integral(n, k, Y, X) == anti - anti.substitute({"X": Y})


def test_definite_integral_over_every_interval():
    assert all(symbolic_integral_holds(n, k) for n in range(11) for k in range(-3, 4))


def test_planted_defect_zero_over_the_fixed_intervals_is_caught(monkeypatch):
    # x(x - 1)(x + 1/2)(x - 1/3) takes equal values at both ends of each of
    # the fixed intervals, so only bounds symbolic in x and y see it
    integrate = MultiPoly.integrate

    def planted(p, name):
        return integrate(p, name) + X * (X - 1) * (X + F(1, 2)) * (X - F(1, 3))

    monkeypatch.setattr(MultiPoly, "integrate", planted)
    _, integral = verify_theorem4(n_max=4, ks=range(-1, 3))
    assert integral.status == "pass"
    assert not symbolic_integral_holds(2, 2)


def test_theorem1_suite_passes():
    reports = verify_theorem1(n_max=6, ks=range(-2, 3))
    assert [r.identity_id for r in reports] == [
        "T1.11",
        "T1.12",
        "T1.13",
        "T1.14",
        "T1.15",
        "T1.16",
    ]
    assert all(r.passed for r in reports), [r.format_line() for r in reports]


def test_theorem2_suite_passes():
    reports = verify_theorem2(n_max=5, ks=range(0, 3))
    assert len(reports) == 3
    assert {r.identity_id for r in reports} == {"T2.17"}
    assert all(r.passed for r in reports), [r.format_line() for r in reports]


def test_theorem3_suite_passes():
    reports = verify_theorem3(n_max=6, ks=range(-2, 3))
    assert [r.identity_id for r in reports] == ["T3.18", "T3.19"]
    assert all(r.passed for r in reports), [r.format_line() for r in reports]


def test_theorem4_suite_passes():
    reports = verify_theorem4(n_max=6, ks=range(-2, 3))
    assert [r.identity_id for r in reports] == ["T4.20", "T4.21"]
    assert all(r.passed for r in reports), [r.format_line() for r in reports]


def test_theorem3_builds_each_alternating_sum_once():
    gen_pb_numbers_by_sum.cache_clear()
    reports = verify_theorem3(n_max=6, ks=range(-1, 2))
    assert all(r.passed for r in reports), [r.format_line() for r in reports]
    # T3.19 convolves the sums for l <= n at every n, but each (l, k) is built
    # once: 7 degrees times 3 upper indices
    assert gen_pb_numbers_by_sum.cache_info().misses == 21


def test_theorem5_suite_passes():
    reports = verify_theorem5(n_max=5, k1s=range(1, 3))
    assert [r.identity_id for r in reports] == ["T5", "T5"]
    assert all(r.passed for r in reports), [r.format_line() for r in reports]


def test_theorem5_checks_one_case_per_n_for_every_y():
    reports = verify_theorem5(n_max=3, k1s=range(1, 3))
    assert [r.cases for r in reports] == [4, 4]


def test_planted_defect_zero_at_the_old_y_values_is_caught(monkeypatch):
    # d*(2d - 1)*(3d + 1) vanishes at y = 0, 1/2 and -1/3, so only a check
    # symbolic in y sees it
    shift_x = verification._shift_x

    def planted(p, shifted):
        delta = shifted - X
        return shift_x(p, shifted) + delta * (2 * delta - 1) * (3 * delta + 1)

    monkeypatch.setattr(verification, "_shift_x", planted)
    assert [r.status for r in verify_theorem5(n_max=3, k1s=range(1, 3))] == ["FAIL", "FAIL"]
    rational, swapped, symbolic = verify_theorem2(n_max=3, ks=range(1, 2))
    assert (rational.status, swapped.status, symbolic.status) == ("pass", "pass", "FAIL")


def test_corollary1_suite_passes():
    (report,) = verify_corollary1(n_max=8)
    assert report.identity_id == "C1"
    assert report.passed, report.format_line()


def test_zero_case_grids_raise_instead_of_passing():
    with pytest.raises(ValueError, match="at least one k1"):
        verify_theorem5(n_max=2, k1s=range(1, 1))


def test_reports_count_their_cases():
    reports = verify_theorem4(n_max=3, ks=range(-1, 1))
    # T4.20: l runs over 0..n+1 for n = 0..3; T4.21: three bounds for n = 0..3
    assert [r.cases for r in reports] == [2 * (2 + 3 + 4 + 5), 2 * 4 * 3]
