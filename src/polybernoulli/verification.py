"""Oracle anchors and the one-call entry point for every identity suite.

The checks here pin the closed forms to constructions that share no code
with them: truncated series expansions, the double Stirling sum at negative
upper index, and the iterated-integral build of the generating function.
``run_suite`` is what the command line calls; it maps a suite name to the
right verifier family with sensible grid defaults and returns the combined
report list in a stable order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .euler import verify_euler_identities
from .generalized import (
    DEFAULT_ORDER_MARGIN,
    DEFAULT_SEED,
    gen_pb_numbers,
    gen_pb_numbers_oracle,
    seeded_rational_points,
    verify_corollary1,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
    verify_theorem5,
)
from .exact import poly_eval
from .numbers import poly_bernoulli, poly_bernoulli_negative
from .reports import IdentityReport
from .series import gf_iterated_integral, gf_poly_bernoulli

__all__ = [
    "SUITE_NAMES",
    "verify_pb_closed_form",
    "verify_negative_index",
    "verify_iterated_integral",
    "verify_gen_numbers_anchor",
    "run_suite",
]

SUITE_NAMES = ("all", "T1", "T2", "T3", "T4", "T5", "C1", "euler", "oracle")


def verify_pb_closed_form(
    n_max: int = 12,
    k_min: int = -3,
    k_max: int = 3,
    margin: int = DEFAULT_ORDER_MARGIN,
) -> list[IdentityReport]:
    """Closed-form numbers against the generating-function expansion."""
    witness = ""
    for k in range(k_min, k_max + 1):
        if witness:
            break
        s = gf_poly_bernoulli(k, n_max + margin)
        for n in range(n_max + 1):
            expected = s.coefficient(n) * factorial(n)
            got = poly_bernoulli(n, k)
            if got != expected:
                witness = f"n={n} k={k}: closed form {got} vs series {expected}"
                break
    return [
        IdentityReport(
            "ORACLE",
            "closed-form numbers match the generating-function expansion",
            f"0..{n_max}",
            f"{k_min}..{k_max}",
            not witness,
            witness,
        )
    ]


def verify_negative_index(n_max: int = 12) -> list[IdentityReport]:
    """Negative-upper-index structure: double Stirling sum, duality, integrality."""
    n_range = f"0..{n_max}"
    k_range = f"-{n_max}..0"
    reports = []

    witness = ""
    for n in range(n_max + 1):
        if witness:
            break
        for k in range(n_max + 1):
            if poly_bernoulli(n, -k) != poly_bernoulli_negative(n, k):
                witness = f"n={n} k=-{k}: closed form vs double Stirling sum"
                break
    reports.append(
        IdentityReport(
            "ORACLE",
            "negative upper index agrees with the double Stirling sum",
            n_range,
            k_range,
            not witness,
            witness,
        )
    )

    witness = ""
    for n in range(n_max + 1):
        if witness:
            break
        for k in range(n_max + 1):
            if poly_bernoulli(n, -k) != poly_bernoulli(k, -n):
                witness = f"(n,k)=({n},{k}): duality broken"
                break
    reports.append(
        IdentityReport(
            "ORACLE",
            "swapping the indices at negative upper index changes nothing",
            n_range,
            k_range,
            not witness,
            witness,
        )
    )

    witness = ""
    for n in range(n_max + 1):
        if witness:
            break
        for k in range(n_max + 1):
            value = poly_bernoulli(n, -k)
            if value.denominator != 1 or value <= 0:
                witness = f"n={n} k=-{k}: value {value} is not a positive integer"
                break
    reports.append(
        IdentityReport(
            "ORACLE",
            "negative-index values are positive integers",
            n_range,
            k_range,
            not witness,
            witness,
        )
    )

    return reports


def verify_iterated_integral(k_max: int = 5, order: int = 12) -> list[IdentityReport]:
    """The integrate-and-divide construction rebuilds the generating function."""
    witness = ""
    for k in range(1, k_max + 1):
        lhs = gf_iterated_integral(k, order)
        rhs = gf_poly_bernoulli(k, order)
        if lhs != rhs:
            bad = next(n for n in range(order + 1) if lhs.coefficient(n) != rhs.coefficient(n))
            witness = f"k={k}: series differ first at t^{bad}"
            break
    return [
        IdentityReport(
            "ORACLE",
            "iterated-integral construction rebuilds the generating function",
            f"0..{order}",
            f"1..{k_max}",
            not witness,
            witness,
        )
    ]


def verify_gen_numbers_anchor(
    n_max: int = 12,
    k_min: int = -3,
    k_max: int = 3,
    seed: int = DEFAULT_SEED,
    points: int = 3,
    margin: int = DEFAULT_ORDER_MARGIN,
) -> list[IdentityReport]:
    """Two-parameter closed form pinned to its series oracle on a wider grid."""
    witness = ""
    for k in range(k_min, k_max + 1):
        if witness:
            break
        for la, lb in seeded_rational_points(seed, points, 2):
            values = gen_pb_numbers_oracle(n_max, k, (la, lb), margin)
            bad = next(
                (
                    n
                    for n in range(n_max + 1)
                    if values[n] != poly_eval(gen_pb_numbers(n, k), {"La": la, "Lb": lb})
                ),
                None,
            )
            if bad is not None:
                witness = f"n={bad} k={k} at ({la},{lb}): series vs closed form"
                break
    return [
        IdentityReport(
            "ORACLE",
            "two-parameter closed form anchored to the series oracle",
            f"0..{n_max}",
            f"{k_min}..{k_max}",
            not witness,
            witness,
        )
    ]


def run_suite(
    suite: str,
    n_max: int | None = None,
    k_min: int | None = None,
    k_max: int | None = None,
    seed: int = DEFAULT_SEED,
    margin: int = DEFAULT_ORDER_MARGIN,
) -> list[IdentityReport]:
    """Run one named identity suite (or all of them) and collect the reports."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite: {suite!r}")
    lo = -3 if k_min is None else k_min
    hi = 3 if k_max is None else k_max
    if lo > hi:
        raise ValueError("the k range is empty")
    if n_max is not None and n_max < 0:
        raise ValueError("n_max must be non-negative")
    if margin < 0:
        raise ValueError("the order margin must be non-negative")
    k_set = range(lo, hi + 1)

    def n_or(default: int) -> int:
        return default if n_max is None else n_max

    reports: list[IdentityReport] = []
    if suite in ("all", "T1"):
        reports += verify_theorem1(n_or(10), k_set, seed=seed, margin=margin)
    if suite in ("all", "T2"):
        reports += verify_theorem2(n_or(8), k_set)
    if suite in ("all", "T3"):
        reports += verify_theorem3(n_or(10), k_set)
    if suite in ("all", "T4"):
        n = n_or(10)
        reports += verify_theorem4(n, k_set, integral_n_max=min(n, 8))
    if suite in ("all", "T5"):
        k1_set = tuple(k for k in k_set if k >= 1) or (1, 2)
        reports += verify_theorem5(n_or(8), k1_set)
    if suite in ("all", "C1"):
        reports += verify_corollary1(n_or(10), margin=margin)
    if suite in ("all", "euler"):
        reports += verify_euler_identities(n_or(10))
    if suite in ("all", "oracle"):
        n = n_or(12)
        reports += verify_pb_closed_form(n, lo, hi, margin=margin)
        reports += verify_negative_index(n)
        reports += verify_iterated_integral(order=n)
        reports += verify_gen_numbers_anchor(n, lo, hi, seed=seed, margin=margin)
    return reports
