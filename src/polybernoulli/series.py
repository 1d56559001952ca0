"""Truncated formal power series over an exact coefficient ring.

A :class:`PowerSeries` stores the coefficients ``c_0 .. c_N`` of one series in
``t``; ``N`` is the (inclusive) truncation order and is always explicit.
Combining two series truncates to the smaller order, and nothing ever extends
an order silently.

A series is stored the way a ``MultiPoly`` is: a tuple of numerators over one
positive common denominator, with the content they share with it divided out
by one ``gcd`` (``PowerSeries._from_parts``), so equal series have equal
storage and equality is a plain comparison.  A numerator is an ``int``, or an
integer-coefficient ``MultiPoly`` where a coefficient is a polynomial (as in
``e^{X t}``); a coefficient given as a ``MultiPoly`` stays one, even when it
is constant, and compares and hashes equal to its value.  Both kinds go
through the same loops.  Ring operations, division, composition and the
constructors run on these numerators; ``Fraction``s are built only at the
edges: ``coeffs`` and ``coefficient``.

Division is valuation-aware: numerator and denominator are both shifted down
by the denominator's valuation before the usual recurrence runs, so quotients
like ``t^2 / t`` work without any rational-function machinery.  The shifted
leading coefficient must be an invertible scalar (a nonzero Fraction, or a
polynomial that is a nonzero rational constant).  Composition takes rational
coefficients only; there too a constant polynomial counts as its value.

The generating-function constructors at the bottom build the series whose
normalized coefficients are poly-Bernoulli numbers: the two-parameter series
at a rational (ln a, ln b) point, its plain specialization at (1, 0), and the
equivalent nested-integration recipe.  The two-parameter numerator
``Li_k(1 - (ab)^{-t})`` is an exponential sum (``ps_exp_poly``), built in
``O(N^2)`` integer operations, so no oracle path composes series:
``ps_compose`` is a general primitive, and the tests' reference for that
numerator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence, Union

from .exact import _ZERO_EXPS, MultiPoly, _as_fraction, _join_terms, format_poly

__all__ = [
    "PowerSeries",
    "ps_div",
    "ps_compose",
    "ps_exp_poly",
    "ps_exp_linear",
    "polylog_series",
    "gen_pb_numbers_series",
    "gf_poly_bernoulli",
    "gf_iterated_integral",
    "format_series",
]

Coeff = Union[Fraction, MultiPoly]
Numerator = Union[int, MultiPoly]


def _split(value) -> tuple[Numerator, int]:
    """A coefficient as an integer numerator over a positive denominator."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, MultiPoly):
        return MultiPoly._from_parts(value._num, 1), value._den
    value = _as_fraction(value)
    return value.numerator, value.denominator


def _integers(num: Sequence[Numerator]):
    """Every integer the numerators are made of."""
    for c in num:
        if isinstance(c, MultiPoly):
            yield from c._num.values()
        else:
            yield c


def _exact_div(c: Numerator, g: int) -> Numerator:
    """``c / g`` for a ``g`` that divides every integer of ``c``."""
    if isinstance(c, MultiPoly):
        return MultiPoly._from_parts({e: v // g for e, v in c._num.items()}, 1)
    return c // g


class PowerSeries:
    """Immutable truncated series ``c_0 + c_1 t + ... + c_N t^N + O(t^{N+1})``."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence):
        parts = [_split(c) for c in coeffs]
        if not parts:
            raise ValueError("a series needs at least its constant coefficient")
        # over the lcm of the reduced denominators, no content is left to divide out
        den = lcm(*(d for _, d in parts))
        self._num = tuple(n if d == den else n * (den // d) for n, d in parts)
        self._den = den

    @classmethod
    def _from_parts(cls, num: Sequence[Numerator], den: int) -> "PowerSeries":
        """``num / den`` in canonical form, with the content shared with ``den`` divided out.

        Internal fast path: ``num`` holds ints and integer-coefficient
        ``MultiPoly``s, and ``den`` is positive.
        """
        if den != 1:
            g = gcd(den, *_integers(num))
            if g != 1:
                num = [_exact_div(c, g) for c in num]
                den //= g
        obj = object.__new__(cls)
        obj._num = tuple(num)
        obj._den = den
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        _check_order(order)
        return cls((value,) + (0,) * order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series ``t`` truncated at ``order`` (which must be >= 1)."""
        _check_order(order)
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls((0, 1) + (0,) * (order - 1))

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._num) - 1

    @property
    def coeffs(self) -> tuple:
        return tuple(_coeff(c, self._den) for c in self._num)

    def coefficient(self, n: int) -> Coeff:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return _coeff(self._num[n], self._den)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order + 1 if all are zero."""
        for i, c in enumerate(self._num):
            if c:
                return i
        return self.order + 1

    def __eq__(self, other):
        # canonical storage: equal series have equal numerators and denominator
        if isinstance(other, PowerSeries):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self):
        return hash((self._num, self._den))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_series(other, self.order)
        if other is None:
            return NotImplemented
        n = min(self.order, other.order) + 1
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        return PowerSeries._from_parts(
            [a * sa + b * sb for a, b in zip(self._num[:n], other._num[:n])], den
        )

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries._from_parts([-c for c in self._num], self._den)

    def __sub__(self, other):
        other = _as_series(other, self.order)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            a, rev = self._num, other._num[n::-1]
            return PowerSeries._from_parts(
                [sum(map(mul, a[: m + 1], rev[n - m :])) for m in range(n + 1)],
                self._den * other._den,
            )
        if isinstance(other, (int, Fraction, MultiPoly)):
            s, d = _split(other)
            return PowerSeries._from_parts([c * s for c in self._num], self._den * d)
        return NotImplemented

    __rmul__ = __mul__

    def integrate(self) -> "PowerSeries":
        """Termwise integral from 0; the order grows by one (exactly known)."""
        scale = lcm(*range(1, len(self._num) + 1))
        return PowerSeries._from_parts(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(self._num)], self._den * scale
        )

    def __repr__(self):
        return f"PowerSeries({format_series(self)!r})"


def _as_series(value, order: int) -> PowerSeries | None:
    """A series, or a scalar or polynomial as a constant series of ``order``."""
    if isinstance(value, PowerSeries):
        return value
    if isinstance(value, (int, Fraction, MultiPoly)):
        return PowerSeries.constant(value, order)
    return None


def _coeff(c: Numerator, den: int) -> Coeff:
    """One coefficient, ``c / den``, as a Fraction or a MultiPoly."""
    if isinstance(c, MultiPoly):
        return MultiPoly._from_parts(c._num, den)
    return Fraction(c, den)


def _check_order(order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"truncation order must be a non-negative integer, got {order!r}")


def _scalar(c: Numerator, error: str) -> int:
    """A numerator as an int; a polynomial that is not constant raises
    ``ValueError(error)``.  The value decides, not the type: a constant
    ``MultiPoly`` is its integer."""
    if isinstance(c, MultiPoly):
        if not c.is_constant():
            raise ValueError(error)
        c = sum(c._num.values())  # its constant term, the only one
    return c


def ps_div(num: PowerSeries, den: PowerSeries) -> PowerSeries:
    """Valuation-aware quotient.

    Both operands are shifted down by the denominator's valuation ``v``; the
    numerator must vanish to at least that order ("non-series quotient"
    otherwise), and the shifted denominator must start with an invertible
    scalar ("leading coefficient not a unit" otherwise).  The result's order
    is ``min(num.order, den.order) - v``.

    The recurrence runs on the operands' numerators, which gives the quotient
    up to the scalar ``den._den / num._den``.  The quotient is one numerator
    vector over one running denominator; a step's value is reduced, and the
    running denominator is rescaled only when the step's reduced denominator
    does not divide it.
    """
    v = den.valuation()
    if v > den.order:
        raise ValueError("division by the zero series")
    if num.valuation() < v:
        raise ValueError("non-series quotient: numerator valuation below denominator's")
    n_out = min(num.order, den.order) - v
    if n_out < 0:
        raise ValueError("insufficient order to form the quotient")
    a, b, scale = num._num[v:], den._num[v:], den._den
    lead = _scalar(b[0], "leading coefficient not a unit")
    if lead < 0:
        lead, b, scale = -lead, [-c for c in b], -scale
    q: list = []
    q_den = 1
    for m in range(n_out + 1):
        # q_m = (a_m - sum_{i<m} q_i b_{m-i}) / b_0, with q_i = q[i] / q_den
        step = a[m] * q_den - sum(map(mul, q, b[m:0:-1]))
        step_den = q_den * lead
        g = gcd(step_den, *_integers((step,)))
        step, step_den = _exact_div(step, g), step_den // g
        if q_den % step_den:
            grow = step_den // gcd(q_den, step_den)
            q = [c * grow for c in q]
            q_den *= grow
        q.append(step * (q_den // step_den))
    return PowerSeries._from_parts([c * scale for c in q], q_den * num._den)


def ps_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Substitute ``inner`` (with zero constant term) into ``outer``.

    Both series must have rational coefficients: a constant ``MultiPoly``
    coefficient counts as its value, and one that is not constant raises
    ``ValueError``.  The result has the smaller of the two orders.

    A general primitive: the series oracle builds its numerator as an
    exponential sum instead, and the tests compare that sum against this.

    Horner's scheme from the top coefficient down, on the stored numerators:
    with ``outer`` and ``inner`` each over its own denominator, the running
    value is ``outer``'s denominator times the partial sum, an integer vector
    over a single denominator, with its content divided out each step.  Since
    ``inner`` has no constant term, the value at step ``j`` is only needed to
    order ``n - j`` (``n`` being the result's order), so each step is a
    truncated, shifted convolution.
    """
    if inner._num[0] != 0:
        raise ValueError("composition requires an inner series with zero constant term")
    error = "composition requires rational coefficients"
    n = min(outer.order, inner.order)
    outer_num = [_scalar(c, error) for c in outer._num]
    inner_num, inner_den = [_scalar(c, error) for c in inner._num][1 : n + 1], inner._den
    num, den = [outer_num[n]], 1
    for c in reversed(outer_num[:n]):
        # c + inner * value, to order n - j; value is known to order n - j - 1
        step_den = inner_den * den
        rev = num[::-1]
        num = [c * step_den] + [
            sum(map(mul, inner_num[:m], rev[-m:])) for m in range(1, len(rev) + 1)
        ]
        g = gcd(step_den, *num)
        den = step_den // g
        num = [a // g for a in num]
    return PowerSeries._from_parts(num, den * outer._den)


def ps_exp_poly(weights: Sequence, c, order: int) -> PowerSeries:
    """The exponential sum ``sum_j weights[j] e^{j c t}`` truncated at ``order``.

    The weights are rationals; ``c`` may be a Fraction or a MultiPoly (e.g.
    ``X*Lc``), so parameterized exponentials like ``c^{x t}`` stay exact.
    The coefficient of ``t^n`` is ``c^n / n!`` times the moment
    ``sum_j weights[j] j^n``.  With ``c = p/q`` and the weights ``w_j`` over
    one denominator, that is ``p^n q^{N-n} N!/n! sum_j w_j j^n`` over
    ``q^N N!``; the moments take ``O(N len(weights))`` integer products.
    """
    _check_order(order)
    p, q = _split(c)
    w = PowerSeries(weights)  # the weights as integers over one denominator
    num = [0] * (order + 1)  # the moments sum_j w_j j^n
    for j, term in enumerate(w._num):
        for n in range(order + 1):
            if not term:  # a zero weight, or j = 0 past n = 0
                break
            num[n] += term
            term *= j
    weight = 1  # q^(N - n) N!/n!
    for n in range(order, 0, -1):
        num[n] *= weight
        weight *= q * n
    num[0] *= weight
    power = 1  # p^n, last, so a polynomial c costs two products per order
    for n in range(1, order + 1):
        power = power * p
        num[n] = power * num[n]
    return PowerSeries._from_parts(num, weight * w._den)


def ps_exp_linear(c, order: int) -> PowerSeries:
    """The exponential ``e^{c t}`` truncated at ``order``.

    The exponential sum :func:`ps_exp_poly` with the weights ``(0, 1)``, so
    the module has one exponential loop; the oracle's polylog numerator is
    the same loop with the weights of ``Li_k`` at ``1 - w``.
    """
    return ps_exp_poly((0, 1), c, order)


def polylog_series(k: int, order: int) -> PowerSeries:
    """The polylogarithm ``Li_k(z) = sum_{m>=1} z^m / m^k`` truncated at ``order``.

    Valid for every integer ``k``; negative ``k`` simply makes the
    coefficients the integers ``m^{-k}``, and positive ``k`` puts them over
    ``lcm(1..N)^k``.
    """
    _check_order(order)
    ms = range(1, order + 1)
    if k <= 0:
        return PowerSeries._from_parts([0] + [m**-k for m in ms], 1)
    scale = lcm(*ms)
    return PowerSeries._from_parts([0] + [(scale // m) ** k for m in ms], scale**k)


def _polylog_at_one_minus(k: int, degree: int) -> tuple[list[int], int]:
    """``Li_k`` cut at ``degree`` and rewritten at ``z = 1 - w``: ``sum_j d_j w^j``.

    ``d_j = (-1)^j sum_{i>=j} C(i, j) / i^k``.  Returns the integers ``D d_j``
    for ``j = 0..degree`` and the polylog's one denominator ``D``.  A Taylor
    shift by one, ``O(degree^2)`` integer additions, then the sign of ``w``.
    """
    li = polylog_series(k, degree)
    d = list(li._num)
    for i in range(degree):
        for j in range(degree - 1, i - 1, -1):
            d[j] += d[j + 1]
    return [-c if j % 2 else c for j, c in enumerate(d)], li._den


def gen_pb_numbers_series(k: int, ln_a, ln_b, order: int) -> PowerSeries:
    """Series oracle for the two-parameter values at one rational point.

    Expands ``Li_k(1 - (a b)^{-t}) / (b^t - a^{-t})`` with ln a, ln b bound
    to rationals; requires ``ln a + ln b != 0`` so the denominator keeps
    valuation one.  Internally everything is computed one order higher so the
    valuation-1 division still delivers the requested order.

    The numerator is an exponential sum, with no composition: with ``Li_k``
    cut at that order ``m`` and written as ``sum_j d_j w^j`` at ``z = 1 - w``,
    it is ``sum_j d_j e^{-j (ln a + ln b) t}``.  That is exact to ``t^m``,
    since ``1 - (ab)^{-t}`` has no constant term.
    """
    la, lb = _as_fraction(ln_a), _as_fraction(ln_b)
    if la + lb == 0:
        raise ValueError("degenerate parameter point: ln(a) + ln(b) = 0")
    _check_order(order)
    m = order + 1
    weights, scale = _polylog_at_one_minus(k, m)
    num = ps_exp_poly(weights, -(la + lb), m)
    num = PowerSeries._from_parts(num._num, num._den * scale)  # the weights were D d_j
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
    den = ps_exp_linear(1, m) - 1
    s = ps_div(PowerSeries.identity(m), den)
    for _ in range(2, k + 1):
        s = ps_div(s.integrate(), den)
    return ps_exp_linear(1, order) * s


# -- pretty printing -------------------------------------------------------


def format_series(s: PowerSeries) -> str:
    """Human-oriented rendering, e.g. ``1 + 1/2*t + 1/12*t^2 + O(t^3)``.

    A coefficient that is a non-constant polynomial is a bracketed factor.
    """
    terms = []
    for n, c in enumerate(s._num):
        if not c:
            continue
        power = [] if n == 0 else ["t" if n == 1 else f"t^{n}"]
        if not isinstance(c, MultiPoly):
            terms.append((c, s._den, power))
        elif c.is_constant():
            # an integer numerator polynomial is over 1
            terms.append((c._num[_ZERO_EXPS], s._den, power))
        else:
            terms.append((1, 1, [f"({format_poly(_coeff(c, s._den))})", *power]))
    return _join_terms(terms) + f" + O(t^{s.order + 1})"
