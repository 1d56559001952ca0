from fractions import Fraction
from math import factorial

import pytest

import polybernoulli.euler as euler
from polybernoulli.euler import euler_poly, gen_euler_poly
from polybernoulli.exact import LA, LB, LC, X, as_poly, poly_eval
from polybernoulli.reports import all_passed
from polybernoulli.series import ps_div, ps_exp_linear
from polybernoulli.verification import verify_euler_identities

F = Fraction


def series_euler(n, x, ln_a, ln_b):
    """n! [t^n] of ``2 e^{x t} / (e^{ln_a t} + e^{ln_b t})``, by series division."""
    series = ps_div(ps_exp_linear(x, n) * 2, ps_exp_linear(ln_a, n) + ps_exp_linear(ln_b, n))
    return as_poly(series.coefficient(n) * factorial(n))


def test_classical_small_degrees():
    assert euler_poly(0) == 1
    assert euler_poly(1) == X - F(1, 2)
    assert euler_poly(2) == X**2 - X
    assert euler_poly(3) == X**3 - F(3, 2) * X**2 + F(1, 4)


def test_classical_degree_and_leading_coefficient():
    for n in [*range(9), 64]:
        p = euler_poly(n)
        assert p.degree("X") == n
        assert p.coefficient((n, 0, 0, 0, 0)) == 1


def test_rejects_negative_index():
    with pytest.raises(ValueError):
        euler_poly(-1)
    with pytest.raises(ValueError):
        gen_euler_poly(-2)


def test_degrees_past_the_cap_are_refused():
    # as poly_bernoulli_poly does: the cap, not the Stirling rows, bounds n
    with pytest.raises(ValueError, match=r"^n=65 exceeds the cache cap 64"):
        euler_poly(65)
    with pytest.raises(ValueError, match=r"^n=65 exceeds the cache cap 64"):
        gen_euler_poly(65)


def test_generalized_first_degrees():
    assert gen_euler_poly(0) == 1
    assert gen_euler_poly(1) == X * LC - F(1, 2) * LA - F(1, 2) * LB


def test_generalized_specializes_to_classical():
    # a = 1, c = b, then ln b = 1 collapses onto the classical family
    for n in range(9):
        collapsed = gen_euler_poly(n).substitute({"La": 0, "Lc": LB}).substitute({"Lb": 1})
        assert collapsed == euler_poly(n)


def test_classical_reflection_value_check():
    # E_3(x+1) + E_3(x) = 2 x^3 spot-checked at a rational point
    p = euler_poly(3)
    x0 = F(2, 7)
    lhs = poly_eval(p, {"X": x0 + 1}) + poly_eval(p, {"X": x0})
    assert lhs == 2 * x0**3


def test_identity_suite_passes():
    reports = verify_euler_identities(10)
    assert [r.identity_id for r in reports] == ["E1", "E2", "E3"]
    assert all_passed(reports)
    assert all(r.witness == "" for r in reports)


@pytest.mark.parametrize("n", range(13))
def test_closed_forms_match_the_series_route(n):
    assert euler_poly(n) == series_euler(n, X, F(0), F(1))
    assert gen_euler_poly(n) == series_euler(n, X * LC, LA, LB)


@pytest.fixture
def fresh_euler_caches():
    euler_poly.cache_clear()
    gen_euler_poly.cache_clear()
    yield
    euler_poly.cache_clear()
    gen_euler_poly.cache_clear()


def test_planted_defect_in_the_euler_numbers_is_caught(monkeypatch, fresh_euler_caches):
    exact_number = euler._euler_number
    monkeypatch.setattr(euler, "_euler_number", lambda j: exact_number(j) + (j == 3))
    e1, e2, e3 = verify_euler_identities(5)
    # every binomial convolution with powers of X satisfies the shift E1
    assert e1.passed
    # the pairing to 2 X^k has one polynomial solution per k, so E2 sees it
    assert not e2.passed and e2.witness.startswith("k=3:")
    assert not e3.passed and e3.witness.startswith("k=3:")
