"""Suite dispatcher behavior, the oracle-anchor verifiers and the suite layering."""

import ast
import importlib.util
from pathlib import Path

import pytest

from polybernoulli import series, verification
from polybernoulli.generalized import gen_pb_numbers
from polybernoulli.reports import all_passed
from polybernoulli.verification import (
    SUITE_NAMES,
    run_suite,
    verify_gen_numbers_anchor,
    verify_iterated_integral,
    verify_negative_index,
    verify_pb_closed_form,
    verify_theorem1,
)


def test_oracle_verifiers_pass_on_default_grids():
    assert all_passed(verify_pb_closed_form(n_max=10, ks=range(-3, 4)))
    assert all_passed(verify_negative_index(n_max=10))
    assert all_passed(verify_iterated_integral(n_max=10))
    assert all_passed(verify_gen_numbers_anchor(n_max=8, ks=range(-3, 4)))


def test_negative_index_reports_three_views():
    reports = verify_negative_index(n_max=6)
    assert [r.identity_id for r in reports] == ["ORACLE"] * 3
    assert len({r.detail for r in reports}) == 3


def test_a_planted_defect_in_the_double_stirling_sum_fails_against_the_series(monkeypatch):
    # both closed forms carry the defect, so only the series oracle can see it
    negative, plain = verification.poly_bernoulli_negative, verification.poly_bernoulli

    def planted(n, k):
        return negative(n, k) + (n == k == 5)

    monkeypatch.setattr(verification, "poly_bernoulli_negative", planted)
    monkeypatch.setattr(verification, "poly_bernoulli",
                        lambda n, k: planted(n, -k) if k <= 0 else plain(n, k))
    agreement, duality, integrality = verify_negative_index(n_max=12)
    assert not agreement.passed
    assert agreement.witness.startswith("n=5 k=-5 [1]: ")
    assert duality.passed and integrality.passed


def test_a_planted_defect_in_the_series_numerator_fails_every_oracle_line(monkeypatch):
    # the top weight d_m off by one; d_0 takes the opposite change, so the
    # numerator still vanishes at t = 0 and every division still runs
    weights = series._polylog_at_one_minus

    def planted(k, degree):
        d, den = weights(k, degree)
        d[0] -= 1
        d[-1] += 1
        return d, den

    monkeypatch.setattr(series, "_polylog_at_one_minus", planted)
    t1 = {r.identity_id: r for r in verify_theorem1(n_max=6, ks=range(-2, 3))}
    assert not t1["T1.11"].passed and not t1["T1.13"].passed
    assert all(t1[i].passed for i in ("T1.12", "T1.14", "T1.15", "T1.16"))
    (closed_form,) = verify_pb_closed_form(n_max=6, ks=range(-2, 3))
    (iterated,) = verify_iterated_integral(n_max=6)
    (anchor,) = verify_gen_numbers_anchor(n_max=6, ks=range(-2, 3))
    assert not closed_form.passed and not iterated.passed and not anchor.passed


def test_run_suite_selects_one_family():
    reports = run_suite("T3", n_max=6, k_min=-2, k_max=2)
    assert [r.identity_id for r in reports] == ["T3.18", "T3.19"]
    assert all_passed(reports)


def test_run_suite_all_order_and_outcome():
    reports = run_suite("all", n_max=6, k_min=-2, k_max=2)
    ids = [r.identity_id for r in reports]
    assert ids == [
        "T1.11", "T1.12", "T1.13", "T1.14", "T1.15", "T1.16",
        "T2.17", "T2.17", "T2.17",
        "T3.18", "T3.19",
        "T4.20", "T4.21",
        "T5", "T5",
        "C1",
        "E1", "E2", "E3",
        "ORACLE", "ORACLE", "ORACLE", "ORACLE", "ORACLE", "ORACLE",
    ]
    assert all_passed(reports)


def test_run_suite_deterministic():
    first = run_suite("T1", n_max=5, k_min=-2, k_max=2)
    second = run_suite("T1", n_max=5, k_min=-2, k_max=2)
    assert first == second


def test_run_suite_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("T9")
    with pytest.raises(ValueError, match="empty"):
        run_suite("T1", k_min=2, k_max=-2)
    assert "all" in SUITE_NAMES


def test_run_suite_t5_needs_a_positive_k():
    with pytest.raises(ValueError, match="T5 needs some k >= 1"):
        run_suite("T5", n_max=2, k_min=-2, k_max=0)
    with pytest.raises(ValueError, match="T5 needs some k >= 1"):
        run_suite("all", n_max=2, k_min=-2, k_max=0)
    assert all_passed(run_suite("T3", n_max=2, k_min=-2, k_max=0))


def test_run_suite_checks_the_cap_before_any_suite_runs():
    gen_pb_numbers.cache_clear()
    with pytest.raises(ValueError, match="^n=65"):
        run_suite("T1", n_max=65)
    assert gen_pb_numbers.cache_info().currsize == 0


def _traced_suites():
    """The verifier names the benchmark's tracer rebinds, from ``perfbench/tracing.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SUITES


def test_run_suite_calls_every_traced_verifier_through_the_module(monkeypatch):
    # the tracer times suites by rebinding these module attributes, so a table
    # that held the function objects themselves would bypass the recorders
    suites, reached = _traced_suites(), []
    for name in suites:
        def recorder(*args, _name=name, _verify=getattr(verification, name)):
            reached.append(_name)
            return _verify(*args)

        monkeypatch.setattr(verification, name, recorder)
    assert all_passed(run_suite("all"))
    assert sorted(reached) == sorted(suites)


@pytest.mark.parametrize("module", ["numbers", "euler", "generalized"])
def test_constructions_import_no_suite_layer(module):
    source = Path(verification.__file__).with_name(f"{module}.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"reports", "verification"}
