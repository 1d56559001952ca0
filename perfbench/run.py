"""Layered benchmark for polybernoulli.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|construct|series \\
        --seed N --seconds S --trace 0|1

One closed-loop client (this process) serves each repetition's request list
through a fresh child process, one child at a time, so every repetition starts
from empty caches as a command-line user does.  Outputs are checked against
``references.json``.  With ``--trace 0`` the last line of stdout is the JSON
result with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced and profiled run.  Lines before it
print every metric by name and unit, the calibration, and failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 9
P90_MIN_BEYOND = 10
DRIFT_RATIO = 1.5

END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
SUITE_SPANS = tuple(dict.fromkeys(tracing.SUITES.values()))
CACHE_FIELDS = {"hits": "count", "misses": "count", "hit_ratio": "ratio", "currsize": "count"}
PER_LAYER_UNITS = {
    "fractions.self_s": "s",
    "fractions.ops": "count",
    "exact.mul_calls": "count",
    "exact.term_products": "count",
    "exact.mul_s": "s",
    "exact.substitute_calls": "count",
    "exact.substitute_s": "s",
    "exact.homogeneous_substitute_s": "s",
    "exact.self_s": "s",
    "series.mul_calls": "count",
    "series.coeff_products": "count",
    "series.div_s": "s",
    "series.compose_s": "s",
    "series.self_s": "s",
    "numbers.poly_bernoulli_calls": "count",
    "numbers.poly_bernoulli_poly_s": "s",
    "generalized.gen_pb_poly_s": "s",
    "generalized.gen_pb_numbers_s": "s",
    **{f"{cache}.{field}": unit for cache in tracing.CACHES for field, unit in CACHE_FIELDS.items()},
    **{f"{suite}_s": "s" for suite in SUITE_SPANS},
    "cli.setup_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed stdlib-Fraction loop; spots drift, never rescales."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 10001):
        acc = (acc + Fraction(1, i)) * Fraction(i, i + 1)
    return time.perf_counter() - start


def spawn(mode: str, requests: list, spans_path: Path | None = None) -> tuple[dict, float]:
    """Serve ``requests`` in a fresh child; returns its report and wall seconds."""
    job = {"mode": mode, "requests": requests, "spans_path": spans_path and str(spans_path)}
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
        env=env,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout), wall


def check(requests: list, report: dict, digests: dict) -> list[dict]:
    """Each op's time and verdict against its reference.

    An op fails if it raises, exits non-zero, or prints output that differs
    from its reference; only the last is a wrong answer.
    """
    ops = []
    for request, (seconds, status, digest, chars) in zip(requests, report["ops"], strict=True):
        matches = digest == digests[request["key"]]
        ops.append(
            {
                "key": request["key"],
                "seconds": seconds,
                "status": status,
                "ok": status == "ok" and matches,
                "wrong": not matches and (status == "ok" or chars > 0),
            }
        )
    return ops


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, digests: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.digests = digests
        self.start = time.perf_counter()
        self.calibration = [calibrate()]
        self.setup: list[float] = []
        self.parser: list[float] = []
        self.ops: list[dict] = []
        self.reps: list[dict] = []

    def child(self, mode: str, requests: list, spans_path: Path | None = None) -> dict:
        report, wall = spawn(mode, requests, spans_path)
        self.setup.append(report["setup_s"])
        self.parser.append(report["parser_s"])
        if mode != "setup":
            ops = check(requests, report, self.digests)
            self.ops += ops
            self.reps.append(
                {
                    "mode": mode,
                    "wall_s": wall,
                    "serve_s": sum(op["seconds"] for op in ops),
                    "ops": ops,
                    "peak_rss_mb": report["peak_rss_mb"],
                }
            )
            self.calibration.append(calibrate())
        return report

    def time_left(self, next_cost: float) -> bool:
        return time.perf_counter() - self.start + next_cost <= self.seconds

    def top_up_setup(self) -> None:
        while len(self.setup) < MIN_SETUP_SAMPLES:
            self.child("setup", [])

    def reps_of(self, mode: str) -> list[dict]:
        return [r for r in self.reps if r["mode"] == mode]


def op_times(reps: list[dict]) -> list[float]:
    """Each op's median over the repetitions in which it succeeded.

    Every repetition serves the same list, so the same op is timed once per
    repetition; the median keeps a minority of repetitions that ran while
    the machine was slowed (or sped up) from moving the result.
    """
    times = [[] for _ in reps[0]["ops"]]
    for rep in reps:
        for i, op in enumerate(rep["ops"]):
            if op["ok"]:
                times[i].append(op["seconds"])
    return [statistics.median(t) for t in times if t]


def run_plain(run: Run) -> dict[str, float]:
    requests = workloads.requests(run.workload, run.seed)
    while True:
        run.child("plain", requests)
        if not run.time_left(run.reps[-1]["wall_s"]):
            break
    reps = run.reps_of("plain")
    times = op_times(reps)
    if not times:
        raise BenchError(f"no op of the {run.workload} list succeeded; nothing to time")
    run.top_up_setup()
    return {
        "setup_s": statistics.median(run.setup),
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def run_traced(run: Run, out_dir: Path) -> tuple[dict[str, float], dict]:
    """Untraced, traced and profiled repetitions of one list, then more
    untraced/traced pairs while time is left; per-layer metrics."""
    requests = workloads.requests(run.workload, run.seed)
    spans_path = out_dir / f"spans-{run.workload}-seed{run.seed}.json.gz"
    run.child("plain", requests)
    traced = [run.child("traced", requests, spans_path)]
    profiled = run.child("profiled", requests)
    pair_cost = run.reps[0]["wall_s"] + run.reps[1]["wall_s"]
    while run.time_left(pair_cost):
        run.child("plain", requests)
        traced.append(run.child("traced", requests))
    run.top_up_setup()

    counts = traced[0]["counts"]
    for other in traced[1:]:
        if other["counts"] != counts or other["caches"] != traced[0]["caches"]:
            raise BenchError("traced repetitions of one list gave different counts")

    def span_s(*names: str) -> float:
        return statistics.median(
            sum(t["spans"].get(name, {}).get("total_s", 0.0) for name in names) for t in traced
        )

    profile = profiled["profile_self_s"]
    metrics = {
        "fractions.self_s": profile.get("fractions", 0.0),
        "fractions.ops": profiled["fraction_ops"],
        "exact.mul_calls": counts.get("exact.mul_calls", 0),
        "exact.term_products": counts.get("exact.term_products", 0),
        "exact.mul_s": span_s("exact.mul"),
        "exact.substitute_calls": counts.get("exact.substitute_calls", 0),
        "exact.substitute_s": span_s("exact.substitute"),
        "exact.homogeneous_substitute_s": span_s("exact.homogeneous_substitute"),
        "exact.self_s": profile.get("exact", 0.0),
        "series.mul_calls": counts.get("series.mul_calls", 0),
        "series.coeff_products": counts.get("series.coeff_products", 0),
        "series.div_s": span_s("series.div"),
        "series.compose_s": span_s("series.compose"),
        "series.self_s": profile.get("series", 0.0),
        "numbers.poly_bernoulli_calls": counts.get("numbers.poly_bernoulli_calls", 0),
        "numbers.poly_bernoulli_poly_s": span_s("numbers.poly_bernoulli_poly"),
        "generalized.gen_pb_poly_s": span_s("generalized.gen_pb_poly"),
        "generalized.gen_pb_numbers_s": span_s("generalized.gen_pb_numbers"),
        **traced[0]["caches"],
        **{f"{suite}_s": span_s(suite) for suite in SUITE_SPANS},
        "cli.setup_s": statistics.median(run.parser),
        "cli.parse_s": span_s("cli.parse"),
        "cli.render_s": span_s("cli.render"),
        "trace.overhead_frac": statistics.median(r["serve_s"] for r in run.reps_of("traced"))
        / statistics.median(r["serve_s"] for r in run.reps_of("plain")),
    }
    detail = {
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_self_s": {name: row["self_s"] for name, row in traced[0]["spans"].items()},
        "profile_self_s": profile,
    }
    return metrics, detail


def load_references() -> dict:
    path = HERE / "references.json"
    refs = json.loads(path.read_text())
    if refs.get("cross_checked") is not True:
        raise BenchError(f"{path.name} was not cross-checked; regenerate it")
    return refs["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polybernoulli" / "__init__.py").is_file():
        print(f"no polybernoulli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        digests = load_references()
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        run = Run(args.workload, args.seed, args.seconds, digests)
        spawn("setup", [])  # compiles bytecode; not a sample
        if args.trace:
            metrics, detail = run_traced(run, out_dir)
            units = PER_LAYER_UNITS
        else:
            metrics, detail = run_plain(run), {}
            units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    wrong = sum(op["wrong"] for op in run.ops)
    record = summarize(run, args, metrics, units, detail, attempted, failed, wrong)
    out_name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / out_name).write_text(json.dumps(record, indent=1))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def summarize(run, args, metrics, units, detail, attempted, failed, wrong) -> dict:
    """Print the human-readable report; return the record kept beside the run."""
    cal = run.calibration
    cal_median = statistics.median(cal)
    drifting = max(cal) / min(cal) > DRIFT_RATIO
    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} python={env['python']} nproc={env['nproc']}"
    )
    print(
        f"calibration: {len(cal)} samples, median {cal_median:.4f} s, "
        f"min {min(cal):.4f} s, max {max(cal):.4f} s"
        + ("  DRIFT: machine speed changed during the run" if drifting else "")
    )
    ok_times = [op["seconds"] for op in run.ops if op["ok"]]
    print(f"repetitions: {len(run.reps)} children, {attempted} ops, {len(run.setup)} set-ups")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    if not args.trace and ok_times:
        print(
            f"  op_s_p50 is the median over {len(op_times(run.reps))} ops of each op's "
            f"median over {len(run.reps)} repetitions"
        )
        value, beyond = p90(ok_times)
        if beyond >= P90_MIN_BEYOND:
            print(f"  {'op_s_p90':<40} {value:>14.6g} s   (all {len(ok_times)} samples, {beyond} beyond)")
        else:
            print(f"  op_s_p90 not reported: {len(ok_times)} samples, {beyond} beyond it (needs {P90_MIN_BEYOND})")
    print(
        f"  {'failed_frac':<40} {failed / attempted:>14.6g} ratio  "
        f"({failed}/{attempted} failed, {wrong} with wrong output)"
    )
    failures: dict[str, list[str]] = {}
    for op in run.ops:
        if not op["ok"]:
            kind = "wrong output" if op["wrong"] else op["status"].split(":")[0]
            failures.setdefault(kind, []).append(op["key"])
    for kind, keys in failures.items():
        print(f"    {len(keys)} failed with {kind}, e.g. {keys[0]}")
    if detail:
        print(f"  spans written to {detail['spans_file']}; self time by span name:")
        for name, seconds in sorted(detail["span_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<38} {seconds:>12.6f} s")
        print("  profiled self time by source file:")
        for name, seconds in sorted(detail["profile_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<38} {seconds:>12.6f} s")
    return {
        "env": env,
        "calibration_s": cal,
        "drifting": drifting,
        "metrics": metrics,
        "setup_s": run.setup,
        "reps": run.reps,
        **detail,
    }


if __name__ == "__main__":
    sys.exit(main())
