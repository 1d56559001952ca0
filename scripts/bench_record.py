#!/usr/bin/env python3
"""Run every benchmark workload and write one BENCH_<number>.json at the repo root.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py 21

Each workload that ``BENCHMARK.json`` lists runs twice through its command
(``perfbench/run.py``): once untraced, seeded with the given number, for the
run length that ``BENCHMARK.json`` sets, and once traced, at seed 1 for 3 s,
for the per-layer metrics.  The record keeps each run's final JSON line and,
from the run's own record under ``.perfbench/``, the ``env``, the
``drifting`` flag and the median ``calibration_s``.  It also names the
commit checked out, whether the tree had uncommitted changes, and every
command, so a later record can be made the same way.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_SEED, TRACED_SECONDS = 1, 3


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    kept = ROOT / ".perfbench" / f"run-{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(kept.read_text())
    return {
        "command": " ".join(argv),
        "result": json.loads(out.splitlines()[-1]),
        "env": record["env"],
        "drifting": record["drifting"],
        "calibration_s_median": statistics.median(record["calibration_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int,
                        help="names the file BENCH_<number>.json and seeds the untraced runs")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    record = {
        "command": f"python3 scripts/bench_record.py {args.number}",
        "head": _git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "untraced": {w: _run(bench["command"], w, args.number, bench["run_seconds"], 0)
                     for w in names},
        "traced": {w: _run(bench["command"], w, TRACED_SEED, TRACED_SECONDS, 1) for w in names},
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
