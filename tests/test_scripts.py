"""Smoke test for the long-form identity driver in scripts/."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_identities.py"


def _load_driver():
    spec = importlib.util.spec_from_file_location("verify_identities", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_driver_reports_checks_and_cases(capsys):
    driver = _load_driver()
    assert driver.main(["--n-max", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [
        "T1", "T2", "T3", "T4", "T5", "C1", "euler", "oracle",
    ]
    assert "3 checks    36 cases" in lines[4]  # T5: k = 1..3, y in 3 shifts, n = 0..3
    assert lines[-1].startswith("ok: 26 identity checks over 931 cases in ")
