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


def test_a_benchmark_record_is_committed():
    assert BENCH_RECORDS


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda path: path.name)
def test_benchmark_record_reads_correct_on_every_workload(path):
    record = json.loads(path.read_text())
    for block in ("untraced", "traced"):
        runs = record[block]
        assert {"verify", "construct", "series"} <= runs.keys()
        assert all(run["result"]["correct"] is True for run in runs.values())
