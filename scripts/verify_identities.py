#!/usr/bin/env python3
"""Run every identity suite in sequence and print a timing summary.

This is the long-form driver: where the `verify` subcommand answers one
question, this walks all suites with one line per suite (status, check
count, cases compared, wall time) and expands the per-identity reports on
failure or on request.  Exit status is 0 when every identity holds, 1 when
one fails, and 2 for a grid no suite can run.
"""

import argparse
import sys
import time

from polybernoulli.reports import all_passed
from polybernoulli.verification import SUITE_NAMES, run_suite, validate_grid


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=None, help="override suite defaults")
    parser.add_argument("--k-min", type=int, default=None)
    parser.add_argument("--k-max", type=int, default=None)
    parser.add_argument("-v", "--verbose", action="store_true", help="print every report line")
    args = parser.parse_args(argv)
    try:
        validate_grid("all", args.n_max, args.k_min, args.k_max)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    suites = [name for name in SUITE_NAMES if name != "all"]
    overall_ok = True
    total_checks = total_cases = 0
    start = time.perf_counter()
    for suite in suites:
        t0 = time.perf_counter()
        reports = run_suite(suite, n_max=args.n_max, k_min=args.k_min, k_max=args.k_max)
        elapsed = time.perf_counter() - t0
        ok = all_passed(reports)
        overall_ok = overall_ok and ok
        cases = sum(r.cases for r in reports)
        total_checks += len(reports)
        total_cases += cases
        status = "ok" if ok else "FAILED"
        print(
            f"{suite:<7} {status:<7} {len(reports):>2} checks {cases:>5} cases"
            f"  {elapsed * 1000:8.1f} ms"
        )
        if args.verbose or not ok:
            for report in reports:
                print("    " + report.format_line())
    elapsed = time.perf_counter() - start
    verdict = "ok" if overall_ok else "FAILED"
    print(
        f"{verdict}: {total_checks} identity checks over {total_cases} cases in {elapsed:.2f} s"
    )
    return 0 if overall_ok else 1


if __name__ == "__main__":
    sys.exit(main())
