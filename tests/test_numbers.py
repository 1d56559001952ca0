import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest

from polybernoulli import numbers
from polybernoulli.euler import euler_poly, gen_euler_poly
from polybernoulli.exact import X, poly_eval
from polybernoulli.generalized import (
    gen_pb_numbers,
    gen_pb_numbers_by_sum,
    gen_pb_poly,
    gen_pb_poly_assembled,
    gen_pb_poly_double_sum,
)
from polybernoulli.numbers import (
    PolyBernoulliCache,
    classical_bernoulli,
    poly_bernoulli,
    poly_bernoulli_negative,
    poly_bernoulli_poly,
)
from polybernoulli.series import PowerSeries, gf_poly_bernoulli, ps_div, ps_exp_linear

F = Fraction


def stirling2_explicit(n, m):
    """S(n, m) by the alternating binomial sum, the reference for the recurrence.

    ``S(n, m) = (-1)^m / m! * sum_{l=0}^{m} (-1)^l C(m, l) l^n`` with the
    ``0^0 = 1`` convention at l = n = 0.
    """
    acc = sum(comb(m, l) * (-1) ** l * l**n for l in range(m + 1))
    value = Fraction((-1) ** m * acc, factorial(m))
    assert value.denominator == 1, "alternating sum did not produce an integer"
    return value.numerator


def count_set_partitions(n, m):
    """Brute-force S(n, m) by enumerating restricted growth strings."""
    if n == 0:
        return 1 if m == 0 else 0

    def extend(i, used):
        if i == n:
            return 1 if used == m else 0
        total = 0
        for label in range(used + 1):
            if label == used and used == m:
                continue  # no room for another block
            total += extend(i + 1, used + (1 if label == used else 0))
        return total

    return extend(0, 0)


# -- Stirling numbers ------------------------------------------------------


def test_stirling_base_cases():
    assert numbers._stirling_row(0) == (1,)
    assert numbers._stirling_row(5)[0] == 0
    assert len(numbers._stirling_row(5)) == 6  # S(5, m) = 0 for m > 5 is left out
    assert numbers._stirling_row(4)[2] == 7
    assert numbers._stirling_row(5)[3] == 25


def test_stirling_recurrence_matches_alternating_sum():
    for n in range(26):
        for m in range(n + 1):
            assert numbers._stirling_row(n)[m] == stirling2_explicit(n, m)


def test_threads_growing_a_cold_triangle_never_corrupt_it():
    # A triangle grown in place lost or doubled rows when threads raced to
    # append.  Eight threads grow a cold triangle together, 500 times over.
    trials, threads, top = 500, 8, 60
    expected = [tuple(stirling2_explicit(n, m) for m in range(n + 1)) for n in range(top + 1)]
    start = threading.Barrier(threads + 1, timeout=10)
    done = threading.Barrier(threads + 1, timeout=10)
    arrived, errors = [], []

    def grow():
        for _ in range(trials):
            start.wait()
            arrived.append(None)
            while len(arrived) < threads:  # keep every thread runnable
                pass
            try:
                numbers._stirling_row(top)[3]
            except IndexError as exc:
                errors.append(exc)
            done.wait()

    workers = [threading.Thread(target=grow) for _ in range(threads)]
    corrupted = 0
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for _ in range(trials):
            numbers._stirling_row.cache_clear()
            arrived.clear()
            errors.clear()
            start.wait()
            done.wait()
            try:
                triangle = [numbers._stirling_row(n) for n in range(top + 1)]
            except IndexError as exc:
                errors.append(exc)
            corrupted += bool(errors) or triangle != expected
    finally:
        sys.setswitchinterval(old_interval)
        for worker in workers:
            worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    assert corrupted == 0, f"{corrupted} of {trials} triangles corrupted"


def test_deep_cold_row_does_not_recurse_row_by_row():
    numbers._stirling_row.cache_clear()
    try:
        assert numbers._stirling_row(1100)[2] == stirling2_explicit(1100, 2)
    finally:
        numbers._stirling_row.cache_clear()  # rows to 1100 hold about 250 MB


def test_stirling_matches_partition_enumeration():
    for n in range(1, 8):
        for m in range(n + 1):
            assert numbers._stirling_row(n)[m] == count_set_partitions(n, m)


# -- poly-Bernoulli numbers ------------------------------------------------


def test_known_values():
    assert poly_bernoulli(0, 5) == 1
    assert poly_bernoulli(1, 1) == F(1, 2)
    assert poly_bernoulli(1, 2) == F(1, 4)
    assert poly_bernoulli(2, 2) == F(-1, 36)
    assert poly_bernoulli(3, 2) == F(-1, 24)
    assert poly_bernoulli(0, -7) == 1
    assert poly_bernoulli(2, -2) == 14


def test_integer_sum_equals_the_term_by_term_fraction_sum():
    # the closed form sums over one common denominator; this is the same
    # Stirling sum with one Fraction per term
    def reference(n, k):
        total = F(0)
        for m in range(1, n + 2):
            s = numbers._stirling_row(n)[m - 1]
            total += F((-1) ** (m - 1) * factorial(m - 1) * s) / F(m) ** k
        return total if n % 2 == 0 else -total

    for n in range(0, 49):
        for k in range(-4, 5):
            value = poly_bernoulli(n, k)
            assert isinstance(value, F)
            assert value == reference(n, k)


def test_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        poly_bernoulli(-1, 2)


def test_matches_series_oracle():
    order = 14
    for k in range(-4, 5):
        s = gf_poly_bernoulli(k, order)
        for n in range(order + 1):
            assert poly_bernoulli(n, k) == s.coefficient(n) * factorial(n)


def test_negative_index_closed_forms_agree():
    for n in range(9):
        for k in range(9):
            assert poly_bernoulli_negative(n, k) == poly_bernoulli(n, -k)


def test_negative_index_form_rejects_a_negative_index():
    with pytest.raises(ValueError, match="^n=-1 is negative$"):
        poly_bernoulli_negative(-1, 2)
    with pytest.raises(ValueError, match="^k=-1 is negative$"):
        poly_bernoulli_negative(2, -1)


def test_negative_index_duality_and_positivity():
    for n in range(9):
        for k in range(9):
            v = poly_bernoulli_negative(n, k)
            assert v == poly_bernoulli_negative(k, n)
            assert isinstance(v, int) and v > 0


# -- poly-Bernoulli polynomials --------------------------------------------


def test_poly_examples():
    assert poly_bernoulli_poly(0, 3) == 1
    assert poly_bernoulli_poly(1, 2) == X + F(1, 4)
    p2 = poly_bernoulli_poly(2, 1)
    assert p2 == X**2 + X + F(1, 6)


def test_poly_at_zero_gives_numbers():
    for k in range(-3, 4):
        for n in range(8):
            assert poly_eval(poly_bernoulli_poly(n, k), {"X": 0}) == poly_bernoulli(n, k)


def test_poly_matches_exponential_convolution():
    # the polynomial family is the coefficient sequence of the number series
    # multiplied by e^{X t}
    order = 8
    for k in (-2, 1, 3):
        s = gf_poly_bernoulli(k, order) * ps_exp_linear(X, order)
        for n in range(order + 1):
            assert poly_bernoulli_poly(n, k) == s.coefficient(n) * factorial(n)


# -- classical Bernoulli numbers -------------------------------------------


def test_classical_bernoulli_values():
    expected = [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0)]
    assert [classical_bernoulli(n) for n in range(8)] == expected


def test_classical_bernoulli_matches_series():
    order = 12
    den = ps_exp_linear(F(1), order + 1) - 1
    s = ps_div(PowerSeries.identity(order + 1), den)
    for n in range(order + 1):
        assert classical_bernoulli(n) == s.coefficient(n) * factorial(n)


def test_convention_split_is_only_at_one():
    for n in range(12):
        if n == 1:
            assert classical_bernoulli(1) == -poly_bernoulli(1, 1) == F(-1, 2)
        else:
            assert classical_bernoulli(n) == poly_bernoulli(n, 1)


# -- cache behavior --------------------------------------------------------


def test_cache_cap_is_enforced():
    small = PolyBernoulliCache(n_cap=4)
    assert small.poly_bernoulli(4, 1) == poly_bernoulli(4, 1)
    with pytest.raises(ValueError, match="^n=5 exceeds the cache cap 4$"):
        small.poly_bernoulli(5, 1)


def test_cap_error_names_the_requested_index():
    # the numbers below n and the Stirling rows past it are never named
    with pytest.raises(ValueError, match=r"^n=70 exceeds the cache cap 64$"):
        poly_bernoulli_poly(70, 2)
    with pytest.raises(ValueError, match=r"^n=70 exceeds the cache cap 64$"):
        poly_bernoulli_negative(70, 3)
    with pytest.raises(ValueError, match=r"^k=70 exceeds the cache cap 64$"):
        poly_bernoulli_negative(3, 70)
    # every route refuses before it computes: no memo grows, and k = 97 is
    # used nowhere else, so a value built first would be a new entry
    routes = [
        lambda: gen_pb_numbers_by_sum(70, 97),
        lambda: gen_pb_poly_assembled(70, 97),
        lambda: gen_pb_poly_double_sum(70, 97),
        lambda: gen_pb_numbers(70, 97),
        lambda: gen_pb_poly(70, 97),
        lambda: euler_poly(70),
        lambda: gen_euler_poly(70),
    ]
    memos = (gen_pb_numbers, numbers._closed_form)
    for route in routes:
        before = [memo.cache_info().currsize for memo in memos]
        with pytest.raises(ValueError, match=r"^n=70 exceeds the cache cap 64$"):
            route()
        assert [memo.cache_info().currsize for memo in memos] == before


def test_negative_index_form_works_up_to_the_cap():
    # the double-Stirling form reads row n + 1, one past the cap
    for k in (0, 1, 3, 64):
        assert poly_bernoulli_negative(64, k) == poly_bernoulli(64, -k)


def test_cache_can_be_raised():
    big = PolyBernoulliCache(n_cap=80)
    assert big.poly_bernoulli(70, 1) == poly_bernoulli_like_reference(70)


def poly_bernoulli_like_reference(n):
    # independent check for one large value through the series route
    order = n
    num = PowerSeries.identity(order + 1)
    den = 1 - ps_exp_linear(F(-1), order + 1)
    s = ps_div(num, den)
    return s.coefficient(n) * factorial(n)


def test_cache_rejects_bad_cap():
    with pytest.raises(ValueError):
        PolyBernoulliCache(n_cap=-1)
