"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["construct", "series"])
def test_same_seed_same_requests(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    assert workloads.requests(workload, 7) != workloads.requests(workload, 8)


def test_verify_is_one_fixed_op():
    assert workloads.requests("verify", 1) == workloads.requests("verify", 99)
    assert workloads.requests("verify", 1)[0]["argv"] == ["verify", "--suite", "all"]


@pytest.mark.parametrize("seed", range(10))
def test_lists_stay_inside_the_referenced_universe(seed):
    keys = {r["key"] for family in workloads.universe().values() for r in family}
    digests = run.load_references()
    for workload in workloads.WORKLOADS:
        reqs = workloads.requests(workload, seed)
        assert len({r["key"] for r in reqs}) == len(reqs)
        for r in reqs:
            assert r["key"] in keys and r["key"] in digests


@pytest.mark.parametrize("seed", range(5))
def test_construct_past_cap_share_is_fixed(seed):
    reqs = workloads.requests("construct", seed)
    assert len(reqs) == 14
    assert sum(map(workloads.past_cap, reqs)) == 1


def test_corrupted_reference_fails_the_op():
    reqs = [workloads.number(3, 2), workloads.number(70, 1), workloads.gf(1, 20)]
    digests = run.load_references()
    report, _ = run.spawn("plain", reqs)

    ops = run.check(reqs, report, digests)
    assert [op["ok"] for op in ops] == [True, False, True]
    assert ops[1]["status"].startswith("raised ValueError")
    assert not any(op["wrong"] for op in ops)

    corrupted = dict(digests, **{reqs[0]["key"]: "0" * 16})
    ops = run.check(reqs, report, corrupted)
    assert [op["ok"] for op in ops] == [False, False, True]
    assert [op["wrong"] for op in ops] == [True, False, False]


def test_a_list_whose_every_op_fails_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "requests", lambda workload, seed: [workloads.number(70, 1)])
    assert run.main(["--workload", "construct", "--seed", "1", "--seconds", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "no op of the construct list succeeded" in err


def test_self_time_on_a_hand_built_tree():
    # op [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        (2, "c", 2.0, 3.0, 1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (3, "b", 5.0, 9.0, 0, 0),
        (0, "op", 0.0, 10.0, None, 0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    rows = tracing.by_name(spans)
    assert rows["op"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert rows["a"]["total_s"] == 3.0


def test_nested_same_name_counts_once():
    spans = [(1, "x", 1.0, 2.0, 0, 0), (0, "x", 0.0, 4.0, None, 0)]
    row = tracing.by_name(spans)["x"]
    assert row == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_overlapping_children_are_covered_once():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_profile_rollup_gives_builtins_to_their_callers():
    frac, exact = "/lib/fractions.py", "/pkg/exact.py"
    stats = {
        (frac, 1, "_add"): (10, 10, 0.5, 0.9, {}),
        (frac, 2, "__new__"): (4, 4, 0.25, 0.25, {}),
        (frac, 3, "forward"): (10, 10, 0.25, 1.0, {}),
        (exact, 1, "__mul__"): (3, 3, 1.0, 2.0, {}),
        ("~", 0, "<built-in method math.gcd>"): (
            8, 8, 0.75, 0.75, {(frac, 1, "_add"): (6, 6, 0.5, 0.5), (exact, 1, "__mul__"): (2, 2, 0.25, 0.25)},
        ),
    }
    layers = {frac: "fractions", exact: "exact"}
    self_s, ops = tracing.profile_rollup(stats, layers.get)
    assert ops == 14
    assert self_s == {"fractions": 1.5, "exact": 1.25}


def test_benchmark_json_declares_the_reported_metrics():
    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
