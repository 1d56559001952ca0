"""Smoke tests for the script in scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    """Exit 2 with a one-line ``parser.error`` message and nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        _load("lonesum_counts").main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: " in last and message in last
