"""Exact coefficient arithmetic: rational scalars and sparse multivariate polynomials.

The scalar type is :class:`fractions.Fraction`.  It already keeps every
value in the canonical form the package relies on: reduced, positive
denominator, zero stored as 0/1.

``MultiPoly`` is a sparse polynomial over ``Fraction`` in the five fixed
indeterminates ``X``, ``La``, ``Lb``, ``Lc``, ``Y``.  ``La``, ``Lb``, ``Lc``
stand for the formal logarithms of three positive parameters a, b, c, kept
symbolic so identities can be checked exactly; ``X`` is the polynomial
argument, and ``Y`` a second argument, so identities in ``x + y`` hold as
polynomial identities.
A polynomial is stored as integer numerators over one positive common
denominator: a map from exponent vectors ``(eX, eLa, eLb, eLc, eY)`` to
nonzero ints, and one int.  Every result has the content it shares with the
denominator divided out, so equal polynomials have equal storage: equality
is plain map equality, and zero is the empty map over 1.  Ring operations,
substitution, calculus and evaluation run on Python ints; ``Fraction``s are
built only at the edges (``items``, ``coefficient``, ``constant_value`` and
the value ``eval`` returns).

Every power and every binomial sum in the closed forms is built by one
routine here: ``powers`` and ``binomial_convolution``.  A polynomial keeps
the powers it has been raised to, so ``powers`` builds each power of a base
once and a later call on the same object reads it back.  The table is a
slot of the base, keyed by nothing, and lives exactly as long as the base: a
caller that holds a base (a module constant, or a binding held across a
suite) keeps its powers, and a base built per call is freed with its powers.

Every sum, difference, product and sum of products (``+``, ``-``, ``*``,
``substitute``, ``homogeneous_substitute`` and ``binomial_convolution``)
runs one multiply-accumulate kernel, ``_add_product``: it adds
``weight * a * b`` straight into a running numerator map over one running
denominator, so no polynomial is built per product.  A sum
``a + weight * b`` is the product ``1 * b`` added into a copy of ``a``.

Everything here is immutable; operations return new objects, and values can
be shared freely across threads.  The power table is the one slot that
changes, and only by being replaced whole by a table of the same powers.
"""

from __future__ import annotations

import re
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd, lcm, perm
from typing import Iterator, Mapping, Union

__all__ = [
    "MultiPoly",
    "VARIABLES",
    "X",
    "LA",
    "LB",
    "LC",
    "Y",
    "as_poly",
    "poly_eval",
    "powers",
    "binomial_convolution",
    "homogeneous_substitute",
    "format_rational",
    "parse_rational",
    "format_poly",
]

Scalar = Union[int, Fraction]
PolyLike = Union["MultiPoly", int, Fraction]

VARIABLES = ("X", "La", "Lb", "Lc", "Y")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXPS = (0,) * len(VARIABLES)


def _index(name: str) -> int:
    """The field of ``name`` in an exponent vector; ValueError for an unknown name."""
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown indeterminate: {name}") from None


def _as_fraction(value) -> Scalar:
    """``value`` unchanged if it is an int or Fraction; TypeError for anything else.

    The one scalar coercion: a float or a string would enter as its binary
    or parsed value, so neither is accepted.
    """
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"not an exact rational: {value!r}")


class MultiPoly:
    """Immutable sparse polynomial in X, La, Lb, Lc, Y over Fraction."""

    # _pows: the base's powers built so far, from base^2 up (see ``powers``)
    __slots__ = ("_num", "_den", "_pows")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        coeffs: dict[tuple, Scalar] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != len(VARIABLES) or any(not isinstance(e, int) or e < 0 for e in key):
                raise ValueError(f"bad exponent vector: {exps!r}")
            c = _as_fraction(coeff)
            if c:
                coeffs[key] = c
        # over the lcm of the reduced denominators, no content is left to divide out
        den = lcm(*(c.denominator for c in coeffs.values()))
        self._num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        self._den = den
        self._pows = ()

    @classmethod
    def _from_parts(cls, num: dict[tuple, int], den: int) -> "MultiPoly":
        """``num / den`` in canonical form: zero terms dropped, content divided out.

        Internal fast path: ``num`` maps validated exponent vectors to ints,
        and ``den`` is positive.
        """
        if not all(num.values()):
            num = {e: c for e, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        obj = object.__new__(cls)
        obj._num = num
        obj._den = den
        obj._pows = ()
        return obj

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        c = _as_fraction(value)
        return cls._from_parts({_ZERO_EXPS: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        idx = _index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(VARIABLES)))
        return cls._from_parts({exps: 1}, 1)

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple, Fraction]]:
        den = self._den
        return ((exps, Fraction(c, den)) for exps, c in self._num.items())

    def is_constant(self) -> bool:
        return not self._num or self._num.keys() == {_ZERO_EXPS}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises ValueError otherwise."""
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self._num.get(_ZERO_EXPS, 0), self._den)

    def degree(self, name: str) -> int:
        """Largest exponent of ``name`` appearing in any term (0 for the zero poly)."""
        idx = _index(name)
        return max((e[idx] for e in self._num), default=0)

    def coefficient(self, exps: tuple) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def diff(self, name: str, order: int = 1) -> "MultiPoly":
        """The ``order``-th derivative in ``name``, in one pass.

        A term of exponent ``e`` drops to ``e - order`` with the falling
        factorial ``perm(e, order)`` as its weight, and vanishes for
        ``e < order``.
        """
        idx = _index(name)
        if not isinstance(order, int) or order < 0:
            raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
        return MultiPoly._from_parts({
            exps[:idx] + (exps[idx] - order,) + exps[idx + 1:]: perm(exps[idx], order) * c
            for exps, c in self._num.items() if exps[idx] >= order
        }, self._den)

    def integrate(self, name: str) -> "MultiPoly":
        """The antiderivative in ``name`` that vanishes at ``name = 0``."""
        idx = _index(name)
        scale = lcm(*(exps[idx] + 1 for exps in self._num))
        return MultiPoly._from_parts({
            exps[:idx] + (exps[idx] + 1,) + exps[idx + 1:]: c * (scale // (exps[idx] + 1))
            for exps, c in self._num.items()
        }, self._den * scale)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(value)
        return None

    def __add__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return _plus(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_parts({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return _plus(self, other, -1)

    def __rsub__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return _plus(other, self, -1)

    def __mul__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple, int] = {}
        den = _add_product(out, 1, self, other)
        return MultiPoly._from_parts(out, den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return powers(self, exponent)[-1]

    def __eq__(self, other):
        # canonical storage: equal polynomials have equal numerators and denominator
        if isinstance(other, MultiPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._num
            return self._den == other.denominator and self._num == {_ZERO_EXPS: other.numerator}
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((frozenset(self._num.items()), self._den))

    def __bool__(self):
        return bool(self._num)

    # -- substitution and evaluation --------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "MultiPoly":
        """Replace indeterminates by polynomials (or scalars).

        Unbound indeterminates pass through untouched, and all bindings apply
        at once.  Binding values may be ``MultiPoly``, ``int`` or ``Fraction``.
        The bound names are taken one at a time, nested as in Horner's rule:
        terms are grouped by their exponent ``e`` of the first name, each
        group (that name taken out) takes the remaining bindings, and the
        kernel ``_add_product`` adds the group times the ``e``-th power of
        the first value straight into one numerator map.  The groups are
        integer polynomials; the common denominator divides the sum once.
        The powers come from ``powers``, so a value the caller holds is
        raised once.  A group that a zero power drops is never expanded.
        """
        if not bindings:
            return self
        # every name and value is checked here, also one that no group reaches
        (i, value), *rest = [(_index(name), as_poly(v)) for name, v in bindings.items()]
        inner = {VARIABLES[j]: v for j, v in rest}
        groups: defaultdict[int, dict[tuple, int]] = defaultdict(dict)
        for exps, c in self._num.items():
            groups[exps[i]][exps[:i] + (0,) + exps[i + 1:]] = c
        pows = powers(value, max(groups, default=0))
        out: dict[tuple, int] = {}
        den = 1
        for e, terms in groups.items():
            if not pows[e]:
                continue
            group = MultiPoly._from_parts(terms, 1)
            if inner:
                group = group.substitute(inner)
            den = _add_product(out, den, group, pows[e])
        return MultiPoly._from_parts(out, den * self._den)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at an all-rational point.

        Every indeterminate that actually occurs must be bound; a missing one,
        or a name outside ``VARIABLES``, raises ValueError naming it, and a
        value that is not an int or Fraction raises TypeError.  A value
        ``p/q`` of an indeterminate of degree ``D`` enters a term of exponent
        ``e`` as ``p^e q^(D - e)``, so the sum runs on integers over the
        denominator ``den * q^D * ...``.
        """
        values = {_index(name): _as_fraction(value) for name, value in point.items()}
        den = self._den
        tables = []
        for name, idx in _VAR_INDEX.items():
            degree = self.degree(name)
            if degree:
                if idx not in values:
                    raise ValueError(f"unbound indeterminate: {name}")
                value = values[idx]
                p, q = value.numerator, value.denominator
                tables.append((idx, [p**e * q ** (degree - e) for e in range(degree + 1)]))
                den *= q**degree
        total = 0
        for exps, c in self._num.items():
            for idx, table in tables:
                c *= table[exps[idx]]
            total += c
        return Fraction(total, den)

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _add_product(
    out: dict[tuple, int], den: int, a: MultiPoly, b: MultiPoly, weight: int = 1
) -> int:
    """Add ``weight * a * b`` into the numerator map ``out`` over ``den``, in place.

    The multiply-accumulate kernel: every sum and product in the ring, and
    every sum of products, runs this one loop, so no polynomial is built per
    product.  ``out`` is rescaled first when the product's denominator does
    not divide ``den``.  The operand with fewer terms runs the outer loop,
    so the per-term setup runs the fewest times.  Returns the denominator
    ``out`` is over afterwards; zero sums stay in ``out`` until
    ``MultiPoly._from_parts`` drops them.
    """
    d = a._den * b._den
    if den % d:
        grow = d // gcd(den, d)
        for e in out:
            out[e] *= grow
        den *= grow
    scale = den // d * weight
    if len(a._num) > len(b._num):
        a, b = b, a
    get = out.get
    right = b._num.items()
    for (a0, a1, a2, a3, a4), c1 in a._num.items():
        c1 *= scale
        for (b0, b1, b2, b3, b4), c2 in right:
            key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
            out[key] = get(key, 0) + c1 * c2
    return den


X = MultiPoly.variable("X")
LA = MultiPoly.variable("La")
LB = MultiPoly.variable("Lb")
LC = MultiPoly.variable("Lc")
Y = MultiPoly.variable("Y")
_ONE = MultiPoly.constant(1)


def _plus(a: MultiPoly, b: MultiPoly, weight: int) -> MultiPoly:
    """``a + weight * b``: the product ``1 * b`` added into a copy of ``a``."""
    out = dict(a._num)
    den = _add_product(out, a._den, _ONE, b, weight)
    return MultiPoly._from_parts(out, den)


def as_poly(value: PolyLike) -> MultiPoly:
    """Coerce an int or Fraction to a constant polynomial; pass polynomials through."""
    p = MultiPoly._coerce(value)
    if p is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return p


def poly_eval(p: MultiPoly, point: Mapping[str, Scalar]) -> Fraction:
    return p.eval(point)


def powers(base: PolyLike, n: int) -> list[MultiPoly]:
    """``[1, base, base^2, ..., base^n]``, each power built once per base.

    A ``MultiPoly`` base keeps the powers it has been raised to, for as long
    as the base itself lives: a call past the highest power built so far
    multiplies only the missing ones, and a call at or below it multiplies
    nothing.  The table holds ``base^2`` and up, so a base never refers to
    itself.  It is replaced whole, by one assignment of a new tuple, so a
    reader sees either table; threads that race compute equal powers, and
    the most a race costs is a rebuild, when a shorter table lands last.
    The list returned is new on every call.  A scalar base is a new
    constant on every call, so its powers are not kept.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("polynomial exponent must be a non-negative integer")
    base = as_poly(base)
    higher = base._pows
    if len(higher) < n - 1:
        grown = list(higher)
        last = grown[-1] if grown else base
        while len(grown) < n - 1:
            last = last * base
            grown.append(last)
        base._pows = higher = tuple(grown)
    return [_ONE, base, *higher[: n - 1]][: n + 1]


def binomial_convolution(a, b):
    """``sum_l C(n, l) a[l] b[n - l]`` with ``n = len(a) - 1``.

    This is ``n!`` times the ``t^n`` coefficient of the product of the two
    exponential generating functions ``sum a_l t^l / l!`` and
    ``sum b_m t^m / m!``.  Entries may be polynomials or scalars, and the
    result is always a ``MultiPoly``.  Each term goes through the kernel
    ``_add_product`` with ``C(n, l)`` as its weight, into one numerator map.
    """
    n = len(a) - 1
    if n < 0 or len(b) != len(a):
        raise ValueError(f"convolution needs equal non-empty lengths, got {len(a)}, {len(b)}")
    out: dict[tuple, int] = {}
    den = 1
    for l in range(n + 1):
        den = _add_product(out, den, as_poly(a[l]), as_poly(b[n - l]), comb(n, l))
    return MultiPoly._from_parts(out, den)


def homogeneous_substitute(p: MultiPoly, numerator: PolyLike, complement: PolyLike) -> MultiPoly:
    """Substitute ``X`` by a formal quotient with denominators cleared.

    With ``n`` the degree of ``p`` in ``X``, replace ``X`` by
    ``numerator / complement`` and multiply through by ``complement ** n``:
    the terms are grouped by their exponent ``d`` of ``X``, and each group
    ``m * X^d``, with ``m`` free of ``X``, adds
    ``m * numerator^d * complement^(n - d)`` into one numerator map, the last
    product through the kernel ``_add_product``.  The groups are integer
    polynomials; the denominator of ``p`` divides the sum once.  No
    rational-function arithmetic is involved at any point.
    """
    degree = p.degree("X")
    num_pows, comp_pows = powers(numerator, degree), powers(complement, degree)
    groups: dict[int, dict[tuple, int]] = {}
    for exps, c in p._num.items():
        groups.setdefault(exps[0], {})[(0,) + exps[1:]] = c
    out: dict[tuple, int] = {}
    den = 1
    for d, rest in groups.items():
        rest = MultiPoly._from_parts(rest, 1) * num_pows[d]
        den = _add_product(out, den, rest, comp_pows[degree - d])
    return MultiPoly._from_parts(out, den * p._den)


# -- text forms -----------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")

CANONICAL_NAMES = {name: name for name in VARIABLES}


def format_rational(q: Scalar) -> str:
    """Canonical text form: ``p/q``, or just ``p`` when the denominator is 1.

    Exact at any size, also past the interpreter's limit on int-to-text digits.
    """
    q = _as_fraction(q)
    try:
        return str(q)
    except ValueError:  # past the int-to-text digit limit
        return _join_terms([(q.numerator, q.denominator, ())])


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(t)


def _term_sort_key(exps):
    return (sum(exps), exps)


def _join_terms(terms) -> str:
    """A signed sum of ``(numerator, denominator, factor texts)`` terms.

    The one term joiner of both text forms.  Each magnitude is written as
    ``format_rational`` writes it, reduced by one ``gcd``, and is left out
    when it is 1 and the term has factors, and written exactly at any size.  A
    term's numerator is a nonzero int and its denominator positive; no terms
    at all give ``0``.
    """
    parts = []
    for num, den, factors in terms:
        g = gcd(num, den)
        top, bottom = abs(num) // g, den // g
        try:
            mag = str(top) if bottom == 1 else f"{top}/{bottom}"
        except ValueError:  # past the int-to-text digit limit; Decimal has none
            mag = str(Decimal(top)) if bottom == 1 else f"{Decimal(top)}/{Decimal(bottom)}"
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag, *factors])
        sign = (" - " if num < 0 else " + ") if parts else ("-" if num < 0 else "")
        parts.append(sign + body)
    return "".join(parts) or "0"


def format_poly(p: MultiPoly, names: Mapping[str, str] | None = None) -> str:
    """Render a polynomial as a sorted sum of terms.

    Terms are ordered by total degree, then lexicographically on the exponent
    vector (in ``VARIABLES`` order), highest first, so the output is
    canonical.  ``names`` maps each indeterminate to its spelling, and its
    key order is the order of the factors within a term; neither changes the
    term order.  An indeterminate that occurs in ``p`` but has no name raises
    ValueError naming it.
    """
    names = CANONICAL_NAMES if names is None else names
    for idx, var in enumerate(VARIABLES):
        if var not in names and any(exps[idx] for exps in p._num):
            raise ValueError(f"no name for indeterminate: {var}")
    spelled = [(_index(var), name) for var, name in names.items()]

    def term(exps):
        factors = [name if exps[i] == 1 else f"{name}^{exps[i]}" for i, name in spelled if exps[i]]
        return p._num[exps], p._den, factors

    return _join_terms(map(term, sorted(p._num, key=_term_sort_key, reverse=True)))
