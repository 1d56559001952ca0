"""Truncated formal power series over an exact coefficient ring.

A :class:`PowerSeries` stores the coefficients ``c_0 .. c_N`` of one series in
``t``; ``N`` is the (inclusive) truncation order and is always explicit.
Combining two series truncates to the smaller order, and nothing ever extends
an order silently.  Coefficients may be ``Rational`` or ``MultiPoly``, and
the ring operations, division and calculus mix the two freely, since the
polynomial type absorbs rational scalars.  Composition is the exception: it
runs on integers and takes rational coefficients only.

Division is valuation-aware: numerator and denominator are both shifted down
by the denominator's valuation before the usual recurrence runs, so quotients
like ``t^2 / t`` work without any rational-function machinery.  The shifted
leading coefficient must be an invertible scalar (a nonzero Rational, or a
polynomial that is a nonzero rational constant).

The generating-function constructors at the bottom build the series whose
normalized coefficients are poly-Bernoulli numbers: the two-parameter series
at a rational (ln a, ln b) point, its plain specialization at (1, 0), and the
equivalent nested-integration recipe.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .exact import MultiPoly, format_poly, format_rational

__all__ = [
    "PowerSeries",
    "ps_div",
    "ps_compose",
    "ps_exp_linear",
    "polylog_series",
    "gen_pb_numbers_series",
    "gf_poly_bernoulli",
    "gf_iterated_integral",
    "format_series",
]

Coeff = Union[Fraction, MultiPoly]
_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_coeff(value) -> Coeff:
    if isinstance(value, MultiPoly):
        return value
    return Fraction(value)


class PowerSeries:
    """Immutable truncated series ``c_0 + c_1 t + ... + c_N t^N + O(t^{N+1})``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(_as_coeff(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self._coeffs = cs

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        _check_order(order)
        return cls((value,) + (_F0,) * order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series ``t`` truncated at ``order`` (which must be >= 1)."""
        _check_order(order)
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls((_F0, _F1) + (_F0,) * (order - 1))

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> Coeff:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order + 1 if all are zero."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return i
        return self.order + 1

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(
                tuple(a + b for a, b in zip(self._coeffs[: n + 1], other._coeffs[: n + 1]))
            )
        if isinstance(other, (int, Fraction, MultiPoly)):
            head = self._coeffs[0] + other
            return PowerSeries((head,) + self._coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(tuple(-c for c in self._coeffs))

    def __sub__(self, other):
        if isinstance(other, (PowerSeries, int, Fraction, MultiPoly)):
            return self + (-other if isinstance(other, PowerSeries) else -_as_coeff(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            a, b = self._coeffs, other._coeffs
            out = []
            for m in range(n + 1):
                acc = _F0
                for i in range(m + 1):
                    acc = acc + a[i] * b[m - i]
                out.append(acc)
            return PowerSeries(out)
        if isinstance(other, (int, Fraction, MultiPoly)):
            s = _as_coeff(other)
            return PowerSeries(tuple(c * s for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def integrate(self) -> "PowerSeries":
        """Termwise integral from 0; the order grows by one (exactly known)."""
        out = [_F0]
        for i, c in enumerate(self._coeffs):
            out.append(c * Fraction(1, i + 1))
        return PowerSeries(out)

    def __repr__(self):
        return f"PowerSeries({format_series(self)!r})"


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"truncation order must be a non-negative integer, got {order!r}")


def _unit_inverse(c) -> Fraction:
    """Multiplicative inverse of an invertible scalar coefficient."""
    if isinstance(c, MultiPoly):
        try:
            c = c.constant_value()
        except ValueError:
            raise ValueError("leading coefficient not a unit") from None
    if c == 0:
        raise ValueError("leading coefficient not a unit")
    return _F1 / Fraction(c)


def ps_div(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Valuation-aware quotient.

    Both operands are shifted down by the denominator's valuation ``v``; the
    numerator must vanish to at least that order ("non-series quotient"
    otherwise), and the shifted denominator must start with an invertible
    scalar ("leading coefficient not a unit" otherwise).  The result's order
    is ``min(num.order, den.order) - v``.
    """
    v = den.valuation()
    if v > den.order:
        raise ValueError("division by the zero series")
    if num.valuation() < v:
        raise ValueError("non-series quotient: numerator valuation below denominator's")
    a = num.coeffs[v:]
    b = den.coeffs[v:]
    n_out = min(num.order, den.order) - v
    if n_out < 0:
        raise ValueError("insufficient order to form the quotient")
    inv = _unit_inverse(b[0])
    q: list = []
    for m in range(n_out + 1):
        acc = a[m] if m < len(a) else _F0
        for i in range(m):
            acc = acc - q[i] * b[m - i]
        q.append(acc * inv)
    return PowerSeries(q)


def ps_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Substitute ``inner`` (with zero constant term) into ``outer``.

    Both series must have rational coefficients (a ``MultiPoly`` coefficient
    raises ``ValueError``); the result has the smaller of the two orders.

    Horner's scheme from the top coefficient down, on integers: ``inner`` is
    put over one common denominator once, and the running value is an integer
    vector over a single denominator, with its content divided out each step.
    Since ``inner`` has no constant term, the value at step ``j`` is only needed
    to order ``n - j`` (``n`` being the result's order), so each step is a
    truncated, shifted convolution.
    """
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires an inner series with zero constant term")
    if any(isinstance(c, MultiPoly) for c in outer.coeffs + inner.coeffs):
        raise ValueError("composition requires rational coefficients")
    n = min(outer.order, inner.order)
    inner_den = lcm(*(c.denominator for c in inner.coeffs[1 : n + 1]))
    inner_num = [c.numerator * (inner_den // c.denominator) for c in inner.coeffs[1 : n + 1]]
    top = outer.coeffs[n]
    num, den = [top.numerator], top.denominator
    for j in range(n - 1, -1, -1):
        # outer_j + inner * value, to order n - j; value is known to order n - j - 1
        c = outer.coeffs[j]
        step_den = lcm(inner_den * den, c.denominator)
        scale = step_den // (inner_den * den)
        rev = num[::-1]
        num = [c.numerator * (step_den // c.denominator)] + [
            scale * sum(map(mul, inner_num[:m], rev[-m:])) for m in range(1, len(rev) + 1)
        ]
        g = gcd(step_den, *num)
        den = step_den // g
        num = [a // g for a in num]
    return PowerSeries([Fraction(a, den) for a in num])


def ps_exp_linear(c, order: int) -> PowerSeries:
    """The exponential ``e^{c t}`` truncated at ``order``.

    ``c`` may be a Rational or a MultiPoly (e.g. ``X*Lc``), so parameterized
    exponentials like ``c^{x t}`` stay exact.
    """
    _check_order(order)
    c = _as_coeff(c)
    coeffs = [_F1]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * c * Fraction(1, n))
    return PowerSeries(coeffs)


def polylog_series(k: int, order: int) -> PowerSeries:
    """The polylogarithm ``Li_k(z) = sum_{m>=1} z^m / m^k`` truncated at ``order``.

    Valid for every integer ``k``; negative ``k`` simply makes the
    coefficients the integers ``m^{-k}``.
    """
    _check_order(order)
    coeffs = [_F0]
    for m in range(1, order + 1):
        coeffs.append(Fraction(m) ** (-k))
    return PowerSeries(coeffs)


def gen_pb_numbers_series(k: int, ln_a, ln_b, order: int) -> PowerSeries:
    """Series oracle for the two-parameter values at one rational point.

    Expands ``Li_k(1 - (a b)^{-t}) / (b^t - a^{-t})`` with ln a, ln b bound
    to rationals; requires ``ln a + ln b != 0`` so the denominator keeps
    valuation one.  Internally everything is computed one order higher so the
    valuation-1 division still delivers the requested order.
    """
    la, lb = Fraction(ln_a), Fraction(ln_b)
    if la + lb == 0:
        raise ValueError("degenerate parameter point: ln(a) + ln(b) = 0")
    _check_order(order)
    m = order + 1
    inner = 1 - ps_exp_linear(-(la + lb), m)
    num = ps_compose(polylog_series(k, m), inner)
    den = ps_exp_linear(lb, m) - ps_exp_linear(-la, m)
    return ps_div(num, den)


def gf_poly_bernoulli(k: int, order: int) -> PowerSeries:
    """Generating series of the poly-Bernoulli numbers with upper index ``k``.

    The two-parameter series at ``(ln a, ln b) = (1, 0)``, that is
    ``Li_k(1 - e^{-t}) / (1 - e^{-t})``; the coefficient of ``t^n`` times
    ``n!`` is the n-th poly-Bernoulli number.
    """
    return gen_pb_numbers_series(k, 1, 0, order)


def gf_iterated_integral(k: int, order: int) -> PowerSeries:
    """The same generating series for ``k >= 1`` via nested integration.

    Start from ``t / (e^t - 1)`` and repeat "integrate from 0, then divide by
    ``e^t - 1``" ``k - 1`` times; a final multiplication by ``e^t`` yields the
    series.  Each integration raises the order by one and each division
    lowers it by one, so the requested order survives the whole pipeline.
    This must agree coefficient-for-coefficient with
    :func:`gf_poly_bernoulli`, which is exactly what the oracle suite checks.
    """
    if k < 1:
        raise ValueError("the nested-integration form needs k >= 1")
    _check_order(order)
    m = order + 1
    den = ps_exp_linear(_F1, m) - 1
    s = ps_div(PowerSeries.identity(m), den)
    for _ in range(2, k + 1):
        s = ps_div(s.integrate(), den)
    return ps_exp_linear(_F1, order) * s


# -- pretty printing -------------------------------------------------------


def _coeff_text(c) -> tuple[str, bool]:
    """Render one coefficient; the flag says whether it is a bare negative."""
    if isinstance(c, MultiPoly) and not c.is_constant():
        return f"({format_poly(c)})", False
    value = c.constant_value() if isinstance(c, MultiPoly) else Fraction(c)
    return format_rational(abs(value)), value < 0


def format_series(s: PowerSeries) -> str:
    """Human-oriented rendering, e.g. ``1 + 1/2*t + 1/12*t^2 + O(t^3)``."""
    parts: list[str] = []
    for n, c in enumerate(s.coeffs):
        if c == 0:
            continue
        text, negative = _coeff_text(c)
        power = "" if n == 0 else ("t" if n == 1 else f"t^{n}")
        if power and text == "1":
            body = power
        elif power:
            body = f"{text}*{power}"
        else:
            body = text
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    if not parts:
        parts.append("0")
    return "".join(parts) + f" + O(t^{s.order + 1})"
