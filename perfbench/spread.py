"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10

Every workload in ``BENCHMARK.json`` runs at its ``run_seconds``.  Workloads
are interleaved seed by seed, not run in blocks, so a slow patch of the
machine spreads over all of them.  For each workload and end-to-end metric
it prints the median of the runs and the distance between the first and third
quartile as a share of the median, next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    args = parser.parse_args(argv)

    names = [w["name"] for w in config["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    for seed in args.seeds:
        for workload in names:
            proc = subprocess.run(
                [*config["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            for name, value in metrics.items():
                values[workload].setdefault(name, []).append(value)
            shown = " ".join(f"{k}={v:.5g}" for k, v in metrics.items())
            print(
                f"{workload} seed={seed} correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} {shown} | {lines[1]}",
                flush=True,
            )

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"{'workload':<10} {'metric':<12} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for workload in names:
        for name, xs in values[workload].items():
            if len(xs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            spread = (q3 - q1) / median
            print(f"{workload:<10} {name:<12} {median:>12.6g} {spread:>11.3f} {bounds[name]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
