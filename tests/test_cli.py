"""Command-line behavior: golden outputs, formats, and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polybernoulli.cli as cli
from polybernoulli.exact import LA, LC, X, Y
from polybernoulli.reports import IdentityReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("number", "-n", "2", "-k", "2"), "-1/36\n"),
        (("number", "-n", "0", "-k", "-7"), "1\n"),
        (("number", "-n", "2", "-k", "-2"), "14\n"),
        (("polynomial", "-n", "1", "-k", "2"), "x + 1/4\n"),
        (
            ("polynomial", "-n", "1", "-k", "2", "--generalized"),
            "ln(c)*x + 1/4*ln(a) - 3/4*ln(b)\n",
        ),
        (("polynomial", "-n", "0", "-k", "5", "--generalized"), "1\n"),
        (
            (
                "eval", "--poly", "1", "-k", "2", "--generalized",
                "--ln-a", "1", "--ln-b", "1", "--ln-c", "1", "-x", "0",
            ),
            "-1/2\n",
        ),
    ],
)
def test_golden_outputs(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == expected


def test_number_generalized_renders_parameters(capsys):
    code, out = run(capsys, "number", "-n", "1", "-k", "1", "--generalized")
    assert code == 0
    assert out == "1/2*ln(a) - 1/2*ln(b)\n"


def test_render_never_drops_an_indeterminate():
    # the CLI spells La, Lb, Lc and X; a polynomial in Y must not lose its factors
    assert cli.render(X * LC + LA) == "ln(c)*x + ln(a)"
    with pytest.raises(ValueError, match="^no name for indeterminate: Y$"):
        cli.render(X * Y + Y)


def test_json_output_round_trips(capsys):
    code, out = run(capsys, "number", "-n", "2", "-k", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 2, "k": 2, "generalized": False, "value": "-1/36"}
    code, out = run(capsys, "polynomial", "-n", "1", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "k": 2, "generalized": False, "polynomial": "x + 1/4"}


def test_table_text_and_csv_agree(capsys):
    code, text_out = run(capsys, "table", "--n-max", "3", "--k-min", "-2", "--k-max", "1")
    assert code == 0
    assert text_out.splitlines()[0].split() == ["n", "k=-2", "k=-1", "k=0", "k=1"]

    code, csv_out = run(
        capsys, "table", "--n-max", "3", "--k-min", "-2", "--k-max", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0] == ["n", "k=-2", "k=-1", "k=0", "k=1"]
    assert rows[3] == ["2", "14", "4", "1", "1/6"]
    # Same cells in both renderings.
    assert [line.split() for line in text_out.splitlines()[1:]] == rows[1:]


def test_table_prints_a_single_k_column(capsys):
    code, out = run(capsys, "table", "--n-max", "2", "--k-min", "1", "--k-max", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[1] for row in rows[1:]] == ["1", "1/2", "1/6"]
    code, out = run(
        capsys, "table", "--n-max", "1", "--k-min", "-1", "--k-max", "-1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[1] for row in rows[1:]] == ["1", "2"]


def test_verify_degenerate_range_still_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "T4", "--n-max", "0")
    assert code == 0
    assert "2/2 identity checks passed" in out
    code, out = run(capsys, "verify", "--suite", "oracle", "--n-max", "0")
    assert code == 0
    assert out.count(" k=0..0 ") == 3 and "-0" not in out


def test_verify_one_k_grid_prints_a_range_on_every_k_indexed_line(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--n-max", "2", "--k-min", "2", "--k-max", "2")
    assert code == 0
    k_columns = [line.split()[3] for line in out.splitlines() if line.startswith(("T", "ORACLE"))]
    # T1-T4, T5 (one report per k1), then the ORACLE lines; three of those
    # and the iterated integral run their own fixed k ranges
    assert k_columns == (
        ["k=2..2"] * 13 + ["k=2", "k=2..2"] + ["k=-2..0"] * 3 + ["k=1..5", "k=2..2"]
    )


def test_table_json_structure(capsys):
    code, out = run(capsys, "table", "--n-max", "2", "--k-min", "0", "--k-max", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][2]["values"] == {"0": "1", "1": "1/6", "2": "-1/36"}


def test_eval_plain_number_and_polynomial(capsys):
    code, out = run(capsys, "eval", "--number", "4", "-k", "-1")
    assert code == 0
    assert out == "16\n"
    code, out = run(capsys, "eval", "--poly", "2", "-k", "1", "-x", "1/2")
    assert code == 0
    # X^2 + X + 1/6 at 1/2
    assert out == "11/12\n"


def test_eval_accepts_equals_form_for_negative_rationals(capsys):
    code, out = run(
        capsys, "eval", "--number", "1", "-k", "1", "--generalized",
        "--ln-a", "1", "--ln-b=-1/3",
    )
    assert code == 0
    assert out == "2/3\n"


def test_eval_show_series_prefixes_value(capsys):
    code, out = run(
        capsys, "eval", "--number", "2", "-k", "1", "--generalized",
        "--ln-a", "1", "--ln-b", "0", "--show-series",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("series: 1 + 1/2*t + 1/12*t^2")
    assert lines[0].endswith("*t^2 + O(t^3)")  # expanded to order n exactly
    assert lines[1] == "1/6"
    code, out = run(
        capsys, "eval", "--number", "2", "-k", "1", "--generalized",
        "--ln-a", "1", "--ln-b", "0", "--show-series", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert (obj["series"], obj["value"]) == (lines[0].removeprefix("series: "), "1/6")


def test_verify_text_reports_and_exit_zero(capsys):
    code, out = run(capsys, "verify", "--suite", "C1", "--n-max", "6")
    assert code == 0
    assert "C1" in out
    assert out.strip().endswith("1/1 identity checks passed")


def test_verify_json_shape(capsys):
    code, out = run(capsys, "verify", "--suite", "T3", "--n-max", "5", "--k-min", "-1", "--k-max", "1")
    assert code == 0
    code, out = run(
        capsys, "verify", "--suite", "T3", "--n-max", "5",
        "--k-min", "-1", "--k-max", "1", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert [r["id"] for r in obj["reports"]] == ["T3.18", "T3.19"]
    # 6 degrees times 3 upper indices, each compared once
    assert [r["cases"] for r in obj["reports"]] == [18, 18]
    assert all(r["elapsed_ms"] >= 0 for r in obj["reports"])


def test_verify_all_pins_every_grid(capsys, shared_run_suite):
    code, out = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    cases = [(r["id"], r["cases"]) for r in json.loads(out)["reports"]]
    assert cases == [
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
    assert sum(n for _, n in cases) == 3040


def test_verify_all_at_a_small_n_max_totals_its_cases(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--n-max", "3", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 26
    assert sum(r["cases"] for r in reports) == 907
    assert sum(r["cases"] for r in reports if r["id"] == "T5") == 12  # k = 1..3, n = 0..3


def test_verify_failure_sets_exit_one(capsys, monkeypatch):
    failing = IdentityReport("C1", "planted failure", "0..1", "-", False, "n=0: planted", cases=1)
    monkeypatch.setattr(cli, "run_suite", lambda *a, **kw: [failing])
    code, out = run(capsys, "verify", "--suite", "C1")
    assert code == 1
    assert "FAILED: 0/1 identity checks passed" in out
    assert "witness: n=0: planted" in out


def test_verify_deterministic_across_runs(capsys):
    args = ("verify", "--suite", "T1", "--n-max", "4", "--k-min", "-1", "--k-max", "1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("number", "-n", "-1", "-k", "2"),
        ("eval", "--number", "1", "-k", "1", "--generalized", "--ln-a", "1", "--ln-b=-1"),
        ("eval", "--poly", "2", "-k", "1"),
        ("eval", "--number", "1", "-k", "1", "--show-series"),
        ("eval", "--number", "1", "-k", "1", "--ln-a", "1"),
        ("eval", "--number", "1", "-k", "1", "--generalized", "--ln-a", "x", "--ln-b", "1"),
        ("table", "--n-max", "3", "--k-min", "2", "--k-max", "-2"),
        ("verify", "--suite", "nonsense"),
        ("eval", "--number", "3", "-k", "1", "--order-margin=-5"),
        ("verify", "--seed", "1"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


UNKNOWN_FLAG = "unrecognized arguments"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("eval --number 5 -k 2 --generalized --ln-a=1 --ln-b=1 --order-margin=-1", UNKNOWN_FLAG),
        ("verify --suite oracle --order-margin=-1", UNKNOWN_FLAG),
        ("verify --suite T3 --n-max -1", "n must be non-negative"),
        ("verify --suite T5 --k-max 0", "T5 needs some k >= 1"),
        ("verify --suite T1 --n-max 65", "n=65 exceeds the cache cap 64"),
        ("table --n-max 70", "n=70 exceeds the cache cap 64"),
        ("eval --number 70 -k 1", "n=70 exceeds the cache cap 64"),
        ("eval --poly 70 -k 2 -x 1", "n=70 exceeds the cache cap 64"),
        ("verify --suite T1 --k-min 5 --k-max 3", "the k range is empty"),
        ("eval --number 3 -k 1 -x 5", "-x and --ln-c apply only to --poly"),
        ("eval --number 3 -k 1 --generalized --ln-a 1", "needs --ln-a and --ln-b"),
        ("eval --poly 3 -k 1 --generalized --ln-a 1 --ln-b 1 -x 2", "needs --ln-c and -x"),
        (
            "eval --number 3 -k 2 --generalized --ln-a 1 --ln-b 1 --ln-c 7 -x 9",
            "-x and --ln-c apply only to --poly",
        ),
    ],
)
def test_bad_input_exits_two_with_one_line_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: " in last and message in last


@pytest.mark.parametrize("argv", ["polynomial -n 70 -k 2", "number -n 70 -k 1"])
def test_cap_error_names_the_requested_n(argv):
    with pytest.raises(ValueError, match="^n=70 exceeds the cache cap 64"):
        cli.main(argv.split())


REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"


def test_small_requests_replay_the_benchmark_reference_digests():
    # read-only: the reference table's number, polynomial, table and eval
    # requests whose integer tokens are all at most 12
    digests = json.loads(REFERENCES.read_text())["digests"]
    requests = {
        key: digest
        for key, digest in digests.items()
        if key.split()[0] in ("number", "polynomial", "table", "eval")
        and max(int(t) for t in key.split() if t.lstrip("-").isdigit()) <= 12
    }
    assert len(requests) == 485
    wrong = []
    for key, digest in requests.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(key.split())
        got = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
        if (code, got) != (0, digest):
            wrong.append((key, code))
    assert wrong == []


@pytest.fixture
def cold_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch, cold_parser):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    calls = [
        ("number", "-n", "3", "-k", "2", "--format", "json"),
        ("number", "-n", "-1", "-k", "2"),
        ("eval", "--number", "4", "-k", "2", "--generalized", "--ln-a", "1", "--ln-b=1/2"),
    ]
    outcomes = [_outcome(capsys, argv) for argv in calls]
    assert len(built) == 1
    assert [code for code, _ in outcomes] == [0, 2, 0]
    for argv, outcome in zip(calls, outcomes):
        cli._parser.cache_clear()
        assert _outcome(capsys, argv) == outcome
    assert len(built) == 4


def test_build_parser_returns_a_new_parser_on_each_call():
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ("number", "-n", "3", "-k", "5000"),
        ("polynomial", "-n", "3", "-k", "5000", "--generalized"),
        ("eval", "--number", "3", "-k", "5000", "--generalized", "--ln-a=1", "--ln-b=1",
         "--show-series"),
    ],
)
def test_values_past_the_int_to_text_digit_limit_print_exactly(capsys, argv):
    # 12^5000 has 5396 digits, past the interpreter's default limit of 4300;
    # the reference is the output of an interpreter run without that limit
    code, out = run(capsys, *argv)
    assert code == 0
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    src = str(Path(cli.__file__).resolve().parents[1])
    unlimited = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", "-m", "polybernoulli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert out == unlimited.stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "polybernoulli" in capsys.readouterr().out
