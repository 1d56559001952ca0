"""Smoke tests for the scripts in scripts/, and the benchmark records at the repo root."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
BENCH_RECORDS = sorted(ROOT.glob("BENCH_*.json"))


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
        ("--n-max -1", "n=-1 is negative"),
        ("--n-max 2 --k-max -3", "k=-3 is negative"),
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


def test_lonesum_counts_refuses_a_bound_past_the_cap_before_counting(capsys, monkeypatch):
    script = _load("lonesum_counts")

    def refuse(n, k):
        raise AssertionError(f"counted the {n}x{k} matrices before checking the bounds")

    # the 2^n count would run for hours before the closed form refused n = 65
    monkeypatch.setattr(script, "brute_force_count", refuse)
    with pytest.raises(SystemExit) as exc:
        script.main(["--n-max", "70", "--k-max", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: " in last and "n=70 exceeds the cache cap 64" in last


def test_a_benchmark_record_is_committed():
    assert BENCH_RECORDS


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda path: path.name)
def test_benchmark_record_reads_correct_on_every_workload(path):
    record = json.loads(path.read_text())
    for block in ("untraced", "traced"):
        runs = record[block]
        assert {"verify", "construct", "series"} <= runs.keys()
        assert all(run["result"]["correct"] is True for run in runs.values())
