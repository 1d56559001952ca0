"""Generate ``references.json``: the expected output of every request.

Every reference is cross-checked once, here, against the other computation
route, and the file records which check each family passed:

* closed-form outputs (``polynomial``/``number --generalized``, plain
  ``number``, ``table``) against the series oracle;
* series-route outputs (``eval --generalized``, ``gf_poly_bernoulli``,
  ``gf_iterated_integral``) against ``poly_eval`` of the closed form, or the
  closed-form numbers.

Plain ``number`` requests past the package's cap of 64 raise in the CLI; their
references come from a ``PolyBernoulliCache(n_cap=128)``.

Run from the repository root (takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
from math import factorial
from pathlib import Path

import workloads as W
from polybernoulli import cli, gen_pb_numbers, gen_pb_poly, gf_iterated_integral, gf_poly_bernoulli
from polybernoulli.exact import format_rational, poly_eval
from polybernoulli.generalized import gen_pb_numbers_series, gen_pb_poly_series
from polybernoulli.numbers import PolyBernoulliCache

OUT = Path(__file__).resolve().parent / "references.json"
ORACLE_ORDER = max(W.EVAL_N[-1], W.GEN_N[-1])


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def require(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"cross-check failed: {what}")


def normalized(series, n: int):
    return series.coefficient(n) * factorial(n)


def main() -> int:
    digests: dict[str, str] = {}
    checks: dict[str, str] = {}
    families = W.universe()

    def add(request: dict, text: str) -> None:
        digests[request["key"]] = W.digest(text)

    rc, transcript = run_cli(W.VERIFY["argv"])
    require(rc == 0 and transcript.endswith("ok: 26/26 identity checks passed\n"), "verify")
    add(W.VERIFY, transcript)
    checks["verify"] = "all 26 closed-form vs oracle identity checks passed"

    # Plain numbers and tables against the number series at order 96.
    big = PolyBernoulliCache(n_cap=128)
    plain = {k: gf_poly_bernoulli(k, W.PLAIN_N[-1]) for k in W.K_VALUES}
    refused = 0
    for req in families["number"]:
        n, k = int(req["argv"][2]), int(req["argv"][4])
        value = big.poly_bernoulli(n, k)
        require(value == normalized(plain[k], n), req["key"])
        text = format_rational(value) + "\n"
        if W.past_cap(req):
            with contextlib.suppress(ValueError):
                run_cli(req["argv"])
                raise SystemExit(f"{req['key']} no longer fails past the cap")
            refused += 1
        else:
            require(run_cli(req["argv"]) == (0, text), req["key"])
        add(req, text)
    checks["number"] = (
        f"{len(families['number'])} values equal n! [t^n] gf_poly_bernoulli(k, 96); "
        f"the {refused} past the cap of 64 raise in the CLI and come from "
        "PolyBernoulliCache(n_cap=128)"
    )
    for req in families["table"]:
        rc, text = run_cli(req["argv"])
        lines = text.split()
        header_len = lines.index("0")
        ks = [int(h[2:]) for h in lines[1:header_len]]
        cells = lines[header_len:]
        width = len(ks) + 1
        for row in range(len(cells) // width):
            n = int(cells[row * width])
            for k, cell in zip(ks, cells[row * width + 1 : (row + 1) * width]):
                require(cell == format_rational(normalized(plain[k], n)), f"{req['key']} n={n}")
        require(rc == 0, req["key"])
        add(req, text)
    checks["table"] = f"{len(families['table'])} tables, every cell against the number series"

    # Generalized closed forms against the series oracle at rational points;
    # the same comparisons give the eval --generalized references.
    for k in W.K_VALUES:
        oracle2 = [gen_pb_numbers_series(k, la, lb, ORACLE_ORDER) for la, lb in W.POINTS_2]
        oracle4 = [gen_pb_poly_series(k, *pt, ORACLE_ORDER) for pt in W.POINTS_4]
        for n in range(min(W.GEN_N[0], W.EVAL_N[0]), ORACLE_ORDER + 1):
            numbers, poly = gen_pb_numbers(n, k), gen_pb_poly(n, k)
            for p, (la, lb) in enumerate(W.POINTS_2):
                value = poly_eval(numbers, {"La": la, "Lb": lb})
                require(value == normalized(oracle2[p], n), f"gen numbers n={n} k={k} p={p}")
                if n in W.EVAL_N:
                    add(W.eval_number(n, k, p), format_rational(value) + "\n")
            for p, (la, lb, lc, x) in enumerate(W.POINTS_4):
                value = poly_eval(poly, {"La": la, "Lb": lb, "Lc": lc, "X": x})
                require(value == normalized(oracle4[p], n), f"gen poly n={n} k={k} p={p}")
                if n in W.EVAL_N:
                    add(W.eval_poly(n, k, p), format_rational(value) + "\n")
            if n in W.GEN_N:
                for req, expected in ((W.polynomial(n, k), poly), (W.number_gen(n, k), numbers)):
                    rc, text = run_cli(req["argv"])
                    require(rc == 0 and text == cli.render(expected) + "\n", req["key"])
                    add(req, text)
        print(f"generalized k={k} done", file=sys.stderr, flush=True)
    checks["polynomial"] = (
        f"{len(families['polynomial'])} polynomials: poly_eval equals the gen_pb_poly_series "
        f"oracle at {len(W.POINTS_4)} rational points each"
    )
    checks["number_gen"] = (
        f"{len(families['number_gen'])} values: poly_eval equals the gen_pb_numbers_series "
        f"oracle at {len(W.POINTS_2)} rational points each"
    )
    checks["eval_number"] = (
        f"{len(families['eval_number'])} series values equal poly_eval of gen_pb_numbers"
    )
    checks["eval_poly"] = f"{len(families['eval_poly'])} series values equal poly_eval of gen_pb_poly"
    # The series at a higher order shares its low coefficients; confirm that
    # the CLI, which expands only to n + margin, prints the same text.
    for req in families["eval_number"][:: len(W.EVAL_N) - 1] + families["eval_poly"][:: len(W.EVAL_N) - 1]:
        rc, text = run_cli(req["argv"])
        require(rc == 0 and W.digest(text) == digests[req["key"]], f"CLI {req['key']}")

    for family, build in (("gf", gf_poly_bernoulli), ("iterated", gf_iterated_integral)):
        for req in families[family]:
            k, order = req["args"]
            series = build(k, order)
            for n in range(order + 1):
                require(normalized(series, n) == big.poly_bernoulli(n, k), f"{req['key']} n={n}")
            add(req, W.series_text(series))
        print(f"{family} done", file=sys.stderr, flush=True)
    checks["gf"] = f"{len(families['gf'])} series: n! [t^n] equals the closed-form poly_bernoulli"
    checks["iterated"] = (
        f"{len(families['iterated'])} series: n! [t^n] equals the closed-form poly_bernoulli"
    )

    missing = [r["key"] for reqs in families.values() for r in reqs if r["key"] not in digests]
    require(not missing, f"no reference for {missing[:3]}")
    OUT.write_text(
        json.dumps(
            {
                "cross_checked": True,
                "python": platform.python_version(),
                "checks": checks,
                "verify_transcript": transcript,
                "digests": digests,
            },
            indent=0,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(digests)} references to {OUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
