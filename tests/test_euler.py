from fractions import Fraction

import pytest

from polybernoulli.euler import euler_poly, gen_euler_poly, verify_euler_identities
from polybernoulli.exact import LA, LB, LC, X, poly_eval
from polybernoulli.reports import all_passed

F = Fraction


def test_classical_small_degrees():
    assert euler_poly(0) == 1
    assert euler_poly(1) == X - F(1, 2)
    assert euler_poly(2) == X**2 - X
    assert euler_poly(3) == X**3 - F(3, 2) * X**2 + F(1, 4)


def test_classical_degree_and_leading_coefficient():
    for n in range(9):
        p = euler_poly(n)
        assert p.degree("X") == n
        assert p.coefficient((n, 0, 0, 0, 0)) == 1


def test_rejects_negative_index():
    with pytest.raises(ValueError):
        euler_poly(-1)
    with pytest.raises(ValueError):
        gen_euler_poly(-2)


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
