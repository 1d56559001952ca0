"""Smoke tests for the long-form drivers in scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_usage_error(capsys, script, argv, message):
    """Exit 2 with a one-line ``parser.error`` message and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        script.main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: " in last and message in last


def test_driver_reports_checks_and_cases(capsys):
    driver = _load("verify_identities")
    assert driver.main(["--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [
        "T1", "T2", "T3", "T4", "T5", "C1", "euler", "oracle",
    ]
    assert "3 checks    12 cases" in lines[4]  # T5: k = 1..3, n = 0..3, y symbolic
    assert lines[-1].startswith("ok: 26 identity checks over 907 cases in ")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--n-max 65", "n=65 exceeds the cache cap 64"),
        ("--k-min 5 --k-max 3", "the k range is empty"),
        ("--n-max -1", "n_max must be non-negative"),
        ("--k-max 0", "T5 needs some k >= 1"),
    ],
)
def test_verify_script_bad_grid_exits_two_before_any_suite(capsys, argv, message):
    _assert_usage_error(capsys, _load("verify_identities"), argv, message)


def test_lonesum_counts_agree_on_a_small_grid(capsys):
    script = _load("lonesum_counts")
    assert script.main(["--n-max", "3", "--k-max", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "ok: every cell agrees"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--n-max -1", "n_max must be non-negative"),
        ("--n-max 2 --k-max -3", "k_max must be non-negative"),
    ],
)
def test_lonesum_counts_negative_bound_exits_two(capsys, argv, message):
    _assert_usage_error(capsys, _load("lonesum_counts"), argv, message)
