"""Command-line access to the poly-Bernoulli family.

Subcommands:

* ``number``     one value, plain or with the two formal parameters
* ``polynomial`` one polynomial, plain or with all three formal parameters
* ``table``      a grid of plain values over ranges of n and k
* ``verify``     run the identity suites and report pass/fail per identity
* ``eval``       evaluate at rational parameter points, generalized values
                 going through the independent series expansion

Exact rationals everywhere; output formats are text (default), json, and
csv for tables.  Exit status is 0 on success, 1 when a verification suite
fails, 2 on usage errors (including degenerate parameter points, and an
index the guard refuses in ``table``, ``verify`` and ``eval``).

Negative rational arguments need the ``--ln-b=-1/3`` form, since a bare
``-1/3`` token reads as an option.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from math import factorial

from . import __version__
from .exact import MultiPoly, format_poly, format_rational, parse_rational
from .generalized import gen_pb_numbers, gen_pb_poly, gen_pb_poly_series
from .numbers import check_index, k_range, poly_bernoulli, poly_bernoulli_poly
from .reports import all_passed
from .series import format_series, gen_pb_numbers_series
from .verification import SUITE_NAMES, run_suite

DISPLAY_NAMES = {"La": "ln(a)", "Lb": "ln(b)", "Lc": "ln(c)", "X": "x"}


def render(p: MultiPoly) -> str:
    return format_poly(p, names=DISPLAY_NAMES)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _nonnegative(text: str) -> int:
    """The argparse type of a lower index or its bound: an int that is not negative."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError("n must be non-negative")
    return n


# One row per value command: help, --generalized help, JSON key, and the
# plain and generalized text builders.  The builders look their functions up
# when called, so a rebound module name takes effect.
_VALUE_COMMANDS = {
    "number": (
        "print one poly-Bernoulli value",
        "keep the parameters a, b formal; prints a polynomial in ln(a), ln(b)",
        "value",
        lambda n, k: format_rational(poly_bernoulli(n, k)),
        lambda n, k: render(gen_pb_numbers(n, k)),
    ),
    "polynomial": (
        "print one poly-Bernoulli polynomial",
        "keep a, b, c formal; prints a polynomial in x, ln(a), ln(b), ln(c)",
        "polynomial",
        lambda n, k: render(poly_bernoulli_poly(n, k)),
        lambda n, k: render(gen_pb_poly(n, k)),
    ),
}


def cmd_value(args) -> int:
    text = args.builders[args.generalized](args.n, args.k)
    if args.format == "json":
        _emit_json({"n": args.n, "k": args.k, "generalized": args.generalized, args.key: text})
    else:
        print(text)
    return 0


def cmd_table(args) -> int:
    try:
        k_values = k_range(args.k_min, args.k_max)
        check_index(n=args.n_max)
    except ValueError as exc:
        args.parser.error(str(exc))
    rows = [
        [format_rational(poly_bernoulli(n, k)) for k in k_values]
        for n in range(args.n_max + 1)
    ]
    header = ["n"] + [f"k={k}" for k in k_values]

    if args.format == "json":
        _emit_json(
            {
                "n_max": args.n_max,
                "k_min": args.k_min,
                "k_max": args.k_max,
                "rows": [
                    {"n": n, "values": dict(zip(map(str, k_values), row))}
                    for n, row in enumerate(rows)
                ],
            }
        )
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for n, row in enumerate(rows):
            writer.writerow([n] + row)
    else:
        cells = [header] + [[str(n)] + row for n, row in enumerate(rows)]
        widths = [max(len(line[i]) for line in cells) for i in range(len(header))]
        for line in cells:
            print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return 0


def cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite, n_max=args.n_max, k_min=args.k_min, k_max=args.k_max)
    except ValueError as exc:
        args.parser.error(str(exc))
    ok = all_passed(reports)
    if args.format == "json":
        _emit_json(
            {
                "suite": args.suite,
                "all_passed": ok,
                "reports": [r.as_json_obj() for r in reports],
            }
        )
    else:
        for report in reports:
            print(report.format_line())
        passed = sum(r.passed for r in reports)
        verdict = "ok" if ok else "FAILED"
        print(f"{verdict}: {passed}/{len(reports)} identity checks passed")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    parser = args.parser
    n = args.number if args.number is not None else args.poly
    if args.number is not None and (args.x is not None or args.ln_c is not None):
        parser.error("-x and --ln-c apply only to --poly")

    if args.generalized:
        if args.ln_a is None or args.ln_b is None:
            parser.error("--generalized evaluation needs --ln-a and --ln-b")
        if args.poly is not None and (args.ln_c is None or args.x is None):
            parser.error("--generalized polynomial evaluation needs --ln-c and -x")
    else:
        if args.show_series:
            parser.error("--show-series requires --generalized")
        if any(v is not None for v in (args.ln_a, args.ln_b, args.ln_c)):
            parser.error("parameter bindings require --generalized")
        if args.poly is not None and args.x is None:
            parser.error("polynomial evaluation needs -x")

    series_text = None
    try:
        if args.generalized:
            if args.poly is not None:
                series = gen_pb_poly_series(args.k, args.ln_a, args.ln_b, args.ln_c, args.x, n)
            else:
                series = gen_pb_numbers_series(args.k, args.ln_a, args.ln_b, n)
            value = series.coefficient(n) * factorial(n)
            if args.show_series:
                series_text = format_series(series)
        elif args.poly is not None:
            value = poly_bernoulli_poly(n, args.k).eval({"X": args.x})
        else:
            value = poly_bernoulli(n, args.k)
    except ValueError as exc:
        parser.error(str(exc))

    text = format_rational(value)
    if args.format == "json":
        obj = {"n": n, "k": args.k, "generalized": args.generalized, "value": text}
        if series_text is not None:
            obj["series"] = series_text
        _emit_json(obj)
    else:
        if series_text is not None:
            print(f"series: {series_text}")
        print(text)
    return 0


def _add_format(sub, choices=("text", "json")) -> None:
    sub.add_argument("--format", choices=choices, default="text", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybernoulli",
        description="Exact poly-Bernoulli numbers, polynomials, and identity checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, generalized_help, key, plain, generalized) in _VALUE_COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("-n", type=_nonnegative, required=True, help="lower index")
        sub.add_argument("-k", type=int, required=True, help="upper index (any integer)")
        sub.add_argument("--generalized", action="store_true", help=generalized_help)
        _add_format(sub)
        sub.set_defaults(func=cmd_value, parser=sub, key=key, builders=(plain, generalized))

    sub = subs.add_parser("table", help="print a grid of plain values")
    sub.add_argument("--n-max", type=_nonnegative, default=8)
    sub.add_argument("--k-min", type=int, default=-3)
    sub.add_argument("--k-max", type=int, default=3)
    _add_format(sub, choices=("text", "json", "csv"))
    sub.set_defaults(func=cmd_table, parser=sub)

    sub = subs.add_parser("verify", help="machine-check the identity suites")
    sub.add_argument("--suite", choices=SUITE_NAMES, default="all")
    sub.add_argument("--n-max", type=_nonnegative, default=None, help="override the suite default")
    sub.add_argument("--k-min", type=int, default=None)
    sub.add_argument("--k-max", type=int, default=None)
    _add_format(sub)
    sub.set_defaults(func=cmd_verify, parser=sub)

    sub = subs.add_parser(
        "eval", help="evaluate at rational points (generalized goes through the series)"
    )
    target = sub.add_mutually_exclusive_group(required=True)
    target.add_argument("--number", type=_nonnegative, metavar="N", help="evaluate the n=N value")
    target.add_argument(
        "--poly", type=_nonnegative, metavar="N", help="evaluate the n=N polynomial"
    )
    sub.add_argument("-k", type=int, required=True)
    sub.add_argument("--generalized", action="store_true")
    sub.add_argument("--ln-a", type=parse_rational, default=None, metavar="Q")
    sub.add_argument("--ln-b", type=parse_rational, default=None, metavar="Q")
    sub.add_argument("--ln-c", type=parse_rational, default=None, metavar="Q")
    sub.add_argument("-x", "--x", dest="x", type=parse_rational, default=None, metavar="Q")
    sub.add_argument(
        "--show-series", action="store_true", help="also print the backing series"
    )
    _add_format(sub)
    sub.set_defaults(func=cmd_eval, parser=sub)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use through ``build_parser``.

    Parsing leaves the parser as it was, so every ``main`` call can share it;
    ``build_parser`` itself still returns a new parser on each call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
