"""Acceptance gate: every advertised capability checked at its stated grid.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so the suite doubles as a human-readable report and a hard gate.
All comparisons are exact; nothing here is approximate.
"""

import json
import runpy
from fractions import Fraction
from math import factorial
from pathlib import Path

import polybernoulli.cli as cli
from polybernoulli.euler import euler_poly, gen_euler_poly
from polybernoulli.exact import LB, X, as_poly
from polybernoulli.numbers import (
    classical_bernoulli,
    poly_bernoulli,
    poly_bernoulli_negative,
)
from polybernoulli.reports import all_passed
from polybernoulli.series import gf_poly_bernoulli
from polybernoulli.verification import (
    verify_corollary1,
    verify_euler_identities,
    verify_gen_numbers_anchor,
    verify_iterated_integral,
    verify_negative_index,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_theorem5,
)

F = Fraction
K_SET = range(-3, 4)

ROOT = Path(__file__).resolve().parents[1]
# The benchmark's pinned `verify --suite all` transcript; read, never copied.
REFERENCES = ROOT / "perfbench" / "references.json"
# The one lonesum counter: the brute force of scripts/lonesum_counts.py.
LONESUM_SCRIPT = ROOT / "scripts" / "lonesum_counts.py"


def _criterion(index: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"acceptance criterion {index} failed: {description}"


def test_criterion_01_closed_form_matches_series():
    ok = True
    for k in range(-5, 6):
        series = gf_poly_bernoulli(k, 22)
        for n in range(21):
            if poly_bernoulli(n, k) != series.coefficient(n) * factorial(n):
                ok = False
    _criterion(1, "closed-form values equal the series expansion for n<=20, |k|<=5", ok)


def test_criterion_02_negative_index_structure():
    ok = all_passed(verify_negative_index(n_max=12))
    for k in range(13):
        series = gf_poly_bernoulli(-k, 14)
        for n in range(13):
            if poly_bernoulli_negative(n, k) != series.coefficient(n) * factorial(n):
                ok = False
    ok = ok and all(poly_bernoulli(n, -1) == 2**n for n in range(13))
    ok = ok and [poly_bernoulli(n, -2) for n in range(4)] == [1, 4, 14, 46]
    _criterion(
        2,
        "negative-index values: double Stirling sum, series oracle, duality, integrality",
        ok,
    )


def test_criterion_03_lonesum_matrix_counts():
    brute_force_count = runpy.run_path(str(LONESUM_SCRIPT))["brute_force_count"]
    counts = {(n, k): brute_force_count(n, k) for n, k in [(1, 1), (2, 2), (3, 2), (2, 3)]}
    ok = counts[(1, 1)] == poly_bernoulli_negative(1, 1) == 2
    ok = ok and counts[(2, 2)] == poly_bernoulli_negative(2, 2) == 14
    ok = ok and counts[(3, 2)] == poly_bernoulli_negative(3, 2)
    ok = ok and counts[(2, 3)] == poly_bernoulli_negative(2, 3)
    _criterion(3, "negative-index values count lonesum 0/1 matrices", ok)


def test_criterion_04_iterated_integral_construction():
    ok = all_passed(verify_iterated_integral(n_max=12))
    _criterion(
        4, "integrate-and-divide construction rebuilds the generating function, k=1..5", ok
    )


def test_criterion_05_parameterized_constructions_agree():
    ok = all_passed(verify_theorem1(n_max=10, ks=K_SET))
    ok = ok and all_passed(verify_theorem3(n_max=10, ks=K_SET))
    _criterion(
        5, "all parameterized constructions agree and match the series oracle, n<=10", ok
    )


def test_criterion_06_two_parameter_anchor():
    ok = all_passed(verify_gen_numbers_anchor(n_max=12, ks=K_SET))
    _criterion(6, "two-parameter closed form anchored to the series oracle, n<=12", ok)


def test_criterion_07_addition_formula():
    ok = all_passed(verify_theorem2(n_max=8, ks=K_SET))
    _criterion(7, "addition formula holds at rational shifts and symbolically, n<=8", ok)


def test_criterion_08_calculus_identities():
    ok = all_passed(verify_theorem4(n_max=10, ks=K_SET))
    _criterion(8, "derivative and definite-integral identities, n<=10 and n<=8", ok)


def test_criterion_09_euler_identities():
    ok = all_passed(verify_euler_identities(n_max=10))
    for n in range(11):
        specialized = gen_euler_poly(n).substitute({"La": 0, "Lc": LB}).substitute({"Lb": 1})
        if specialized != euler_poly(n):
            ok = False
    _criterion(
        9, "Euler polynomial identities and specialization to the classical family", ok
    )


def test_criterion_10_mixed_euler_expansion():
    ok = all_passed(verify_theorem5(n_max=8, k1s=range(1, 4)))
    _criterion(
        10, "expansion over Euler polynomials at (1, b, b) parameters, n<=8, k1=1..3", ok
    )


def test_criterion_11_classical_bernoulli_expansion():
    ok = all_passed(verify_corollary1(n_max=10))
    hand = as_poly(X**2 - X + F(1, 6))
    rebuilt = classical_bernoulli(0) * euler_poly(2) + classical_bernoulli(2) * euler_poly(0)
    ok = ok and hand == rebuilt
    _criterion(11, "classical Bernoulli polynomials expand over Euler polynomials", ok)


# The 26 reports of `verify --suite all`: (identity id, cases compared).
ALL_SUITE_CASES = [
    ("T1.11", 231), ("T1.12", 77), ("T1.13", 231),
    ("T1.14", 77), ("T1.15", 77), ("T1.16", 77),
    ("T2.17", 189), ("T2.17", 189), ("T2.17", 63),
    ("T3.18", 77), ("T3.19", 77),
    ("T4.20", 539), ("T4.21", 189),
    ("T5", 9), ("T5", 9), ("T5", 9),
    ("C1", 11),
    ("E1", 11), ("E2", 11), ("E3", 11),
    ("ORACLE", 91), ("ORACLE", 169), ("ORACLE", 169), ("ORACLE", 169),
    ("ORACLE", 5), ("ORACLE", 273),
]


def test_criterion_12_cli_contract(capsys, monkeypatch, shared_run_suite):
    goldens = [
        (["number", "-n", "2", "-k", "2"], "-1/36\n"),
        (["number", "-n", "0", "-k", "-7"], "1\n"),
        (["number", "-n", "2", "-k", "-2"], "14\n"),
        (["polynomial", "-n", "1", "-k", "2"], "x + 1/4\n"),
        (
            ["polynomial", "-n", "1", "-k", "2", "--generalized"],
            "ln(c)*x + 1/4*ln(a) - 3/4*ln(b)\n",
        ),
        (["polynomial", "-n", "0", "-k", "5", "--generalized"], "1\n"),
        (
            [
                "eval", "--poly", "1", "-k", "2", "--generalized",
                "--ln-a", "1", "--ln-b", "1", "--ln-c", "1", "-x", "0",
            ],
            "-1/2\n",
        ),
    ]
    ok = True
    for argv, expected in goldens:
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0 or out != expected:
            ok = False
    # One full run serves both the transcript and the per-report case counts.
    recorded = []
    run_suite = cli.run_suite

    def recording_run_suite(*args, **kwargs):
        recorded.extend(run_suite(*args, **kwargs))
        return recorded

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    code = cli.main(["verify", "--suite", "all"])
    transcript = capsys.readouterr().out
    golden = json.loads(REFERENCES.read_text())["verify_transcript"]
    ok = ok and code == 0 and transcript == golden
    cases = [(r.identity_id, r.cases) for r in recorded]
    ok = ok and cases == ALL_SUITE_CASES and sum(n for _, n in cases) == 3040
    with capsys.disabled():
        print()
        _criterion(
            12,
            "command-line contract: golden outputs, the pinned full verify transcript"
            " and its per-report case counts",
            ok,
        )
