"""Oracle anchors and the one-call entry point for every identity suite.

The checks here pin the closed forms to constructions that share no code
with them: truncated series expansions (which also carry the negative upper
index, against the double Stirling sum and under duality) and the
iterated-integral build of the generating function.  Like every suite, each
one is a lazy stream of ``(label, lhs, rhs)`` cases fed to
:func:`~polybernoulli.reports.check` with its grid's n_max and k range.
``run_suite`` is what the command line calls; it maps a suite name to the
right verifier family and returns the combined report list in a stable order.
It is the one place that sets grids and checks them: no ``verify_*`` function
has a default, and ``run_suite`` rejects a grid it cannot run before any
suite runs.
"""

from __future__ import annotations

from math import factorial

from .euler import verify_euler_identities
from .generalized import (
    _POINTS_2,
    _oracle_cases,
    gen_pb_numbers,
    verify_corollary1,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_theorem5,
)
from .numbers import check_index, k_range, poly_bernoulli, poly_bernoulli_negative
from .reports import IdentityReport, check
from .series import gen_pb_numbers_series, gf_iterated_integral, gf_poly_bernoulli

__all__ = [
    "SUITE_NAMES",
    "verify_pb_closed_form",
    "verify_negative_index",
    "verify_iterated_integral",
    "verify_gen_numbers_anchor",
    "run_suite",
]

SUITE_NAMES = ("all", "T1", "T2", "T3", "T4", "T5", "C1", "euler", "oracle")


def verify_pb_closed_form(n_max: int, ks: range) -> list[IdentityReport]:
    """Closed-form numbers against the generating-function expansion."""

    def cases():
        for k in ks:
            s = gf_poly_bernoulli(k, n_max)
            for n in range(n_max + 1):
                yield f"n={n} k={k}", poly_bernoulli(n, k), s.coefficient(n) * factorial(n)

    return [
        check("ORACLE", "closed-form numbers match the generating-function expansion",
              n_max, ks, cases())
    ]


def verify_negative_index(n_max: int) -> list[IdentityReport]:
    """Negative upper index against the series oracle: closed forms, duality, integrality."""
    ks = range(-n_max, 1)
    grid = [(n, k) for n in range(n_max + 1) for k in range(n_max + 1)]
    series = [gf_poly_bernoulli(-k, n_max) for k in range(n_max + 1)]

    def oracle(n, k):
        return series[k].coefficient(n) * factorial(n)

    def integrality_cases():
        for n, k in grid:
            value = poly_bernoulli(n, -k)
            positive_integer = value.denominator == 1 and value > 0
            yield f"n={n} k=-{k}: {value} is a positive integer", positive_integer, True

    return [
        check("ORACLE", "negative upper index agrees with the double Stirling sum",
              n_max, ks,
              ((f"n={n} k=-{k}", (poly_bernoulli(n, -k), oracle(n, k)),
                (poly_bernoulli_negative(n, k),) * 2) for n, k in grid)),
        check("ORACLE", "swapping the indices at negative upper index changes nothing",
              n_max, ks,
              ((f"(n,k)=({n},{k})", oracle(n, k), oracle(k, n)) for n, k in grid)),
        check("ORACLE", "negative-index values are positive integers",
              n_max, ks, integrality_cases()),
    ]


def verify_iterated_integral(n_max: int) -> list[IdentityReport]:
    """The integrate-and-divide construction rebuilds the generating function, k = 1..5."""
    ks = range(1, 6)
    return [
        check("ORACLE", "iterated-integral construction rebuilds the generating function",
              n_max, ks,
              ((f"k={k}", gf_iterated_integral(k, n_max), gf_poly_bernoulli(k, n_max))
               for k in ks))
    ]


def verify_gen_numbers_anchor(n_max: int, ks: range) -> list[IdentityReport]:
    """Two-parameter closed form pinned to its series oracle on a wider grid."""
    return [
        check("ORACLE", "two-parameter closed form anchored to the series oracle",
              n_max, ks,
              _oracle_cases(n_max, ks, _POINTS_2, gen_pb_numbers_series, gen_pb_numbers))
    ]


def run_suite(
    suite: str,
    n_max: int | None = None,
    k_min: int | None = None,
    k_max: int | None = None,
) -> list[IdentityReport]:
    """Run one named identity suite (or all of them) and collect the reports.

    ValueError, before any suite runs, for an unknown suite, an empty k range
    (from :func:`~polybernoulli.numbers.k_range`, default -3..3), an n_max
    that :func:`~polybernoulli.numbers.check_index` refuses, and T5 with no k >= 1.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite: {suite!r}")
    ks = k_range(-3 if k_min is None else k_min, 3 if k_max is None else k_max)
    if n_max is not None:
        check_index(n=n_max)
    if suite in ("all", "T5") and ks[-1] < 1:
        raise ValueError("T5 needs some k >= 1 in the k range")

    def n_or(default: int) -> int:
        return default if n_max is None else n_max

    reports: list[IdentityReport] = []
    if suite in ("all", "T1"):
        reports += verify_theorem1(n_or(10), ks)
    if suite in ("all", "T2"):
        reports += verify_theorem2(n_or(8), ks)
    if suite in ("all", "T3"):
        reports += verify_theorem3(n_or(10), ks)
    if suite in ("all", "T4"):
        reports += verify_theorem4(n_or(10), ks)
    if suite in ("all", "T5"):
        reports += verify_theorem5(n_or(8), range(max(ks.start, 1), ks.stop))
    if suite in ("all", "C1"):
        reports += verify_corollary1(n_or(10))
    if suite in ("all", "euler"):
        reports += verify_euler_identities(n_or(10))
    if suite in ("all", "oracle"):
        n = n_or(12)
        reports += verify_pb_closed_form(n, ks)
        reports += verify_negative_index(n)
        reports += verify_iterated_integral(n)
        reports += verify_gen_numbers_anchor(n, ks)
    return reports
