"""The one identity runner: case counting, first-mismatch witnesses, no vacuous passes."""

from fractions import Fraction

import pytest

from polybernoulli import verification
from polybernoulli.exact import LA, X
from polybernoulli.generalized import gen_pb_poly
from polybernoulli.reports import IdentityReport, check
from polybernoulli.series import PowerSeries, gf_iterated_integral, gf_poly_bernoulli


def test_check_counts_every_case_of_a_pass():
    report = check("C1", "squares", 4, "-", ((f"n={n}", n * n, n**2) for n in range(5)))
    assert report.passed and report.witness == ""
    assert (report.n_range, report.k_range) == ("0..4", "-")
    assert report.cases == 5
    assert report.elapsed_ms >= 0


def test_check_stops_at_the_first_mismatch():
    consumed = []

    def cases():
        for n in range(10):
            consumed.append(n)
            yield f"n={n}", n, -1 if n == 3 else n

    report = check("C1", "planted", 9, "-", cases())
    assert not report.passed
    assert report.cases == 4
    assert consumed == [0, 1, 2, 3]
    assert report.witness == "n=3: 3 vs -1"


def test_check_witness_forms():
    poly = check("E2", "planted", 0, "-", [("k=0", X + 1, X)])
    assert poly.witness == "k=0: diff 1"
    scalar = check("T1.11", "planted", 0, range(1, 2),
                   [("n=0 k=1", Fraction(1, 2), Fraction(1, 3))])
    assert scalar.witness == "n=0 k=1: 1/2 vs 1/3"
    mixed = check("T1.12", "planted", 0, range(-3, 4), [("n=0", 2 * LA, 0)])
    assert mixed.witness == "n=0: diff 2*La"
    assert (scalar.k_range, mixed.k_range) == ("1..1", "-3..3")


def test_tuple_witness_names_the_first_differing_part():
    p = gen_pb_poly(4, 4)
    report = check("T2.17", "planted", 4, range(4, 5),
                   [("n=4 k=4 (symbolic forms)", (p, p), (p, p + X**5))])
    assert report.witness == "n=4 k=4 (symbolic forms) [1]: diff -X^5"


def test_series_witness_names_the_first_differing_coefficient(monkeypatch):
    def bumped_at_t12(k, order):
        s = gf_iterated_integral(k, order)
        return PowerSeries(s.coeffs[:12] + (s.coefficient(12) + 1,) + s.coeffs[13:])

    monkeypatch.setattr(verification, "gf_iterated_integral", bumped_at_t12)
    [report] = verification.verify_iterated_integral(n_max=12)
    c = gf_poly_bernoulli(1, 12).coefficient(12)
    assert report.witness == f"k=1 [t^12]: {c + 1} vs {c}"


def test_zero_cases_is_not_a_pass():
    with pytest.raises(ValueError, match="checked no cases"):
        check("T5", "empty grid", 3, "1", iter(()))
    with pytest.raises(ValueError, match="checked no cases"):
        IdentityReport("C1", "built by hand", "0..1", "-", True, cases=0)


@pytest.mark.parametrize("verify", [
    verification.verify_theorem1,
    verification.verify_theorem2,
    verification.verify_theorem3,
    verification.verify_theorem4,
    verification.verify_pb_closed_form,
    verification.verify_gen_numbers_anchor,
])
def test_an_empty_k_range_checks_no_cases(verify):
    with pytest.raises(ValueError, match="checked no cases"):
        verify(2, range(0))


def test_the_witness_is_present_exactly_when_the_report_fails():
    with pytest.raises(ValueError, match="^a passing report cannot carry a witness$"):
        IdentityReport("C1", "d", "0..1", "-", True, "n=0: 1 vs 2", cases=1)
    with pytest.raises(ValueError, match="^a failing report must carry a witness$"):
        IdentityReport("C1", "d", "0..1", "-", False, cases=1)


def test_report_equality_ignores_elapsed_time():
    first = IdentityReport("C1", "d", "0..1", "-", True, cases=2, elapsed_ms=1.0)
    second = IdentityReport("C1", "d", "0..1", "-", True, cases=2, elapsed_ms=9.0)
    assert first == second
    assert first != IdentityReport("C1", "d", "0..1", "-", True, cases=3)


def test_json_carries_cases_and_time():
    report = IdentityReport("C1", "d", "0..1", "-", True, cases=2, elapsed_ms=1.23456)
    obj = report.as_json_obj()
    assert obj["cases"] == 2
    assert obj["elapsed_ms"] == 1.235


def test_failing_json_carries_the_witness_clipped_to_240_characters():
    report = check("C1", "planted", 0, "-", iter([("n=0", "x" * 300, "y")]))
    obj = report.as_json_obj()
    assert obj["status"] == "fail"
    assert obj["witness"] == report.witness
    assert report.witness == "n=0: " + "x" * 232 + "..."
