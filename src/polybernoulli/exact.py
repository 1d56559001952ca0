"""Exact coefficient arithmetic: rational scalars and sparse multivariate polynomials.

The scalar type is :class:`fractions.Fraction`, re-exported as ``Rational``.
It already keeps every value in the canonical form the package relies on:
reduced, positive denominator, zero stored as 0/1.

``MultiPoly`` is a sparse polynomial over ``Rational`` in the five fixed
indeterminates ``X``, ``La``, ``Lb``, ``Lc``, ``Y``.  ``La``, ``Lb``, ``Lc``
stand for the formal logarithms of three positive parameters a, b, c, kept
symbolic so identities can be checked exactly; ``X`` is the polynomial
argument, and ``Y`` a second argument, so identities in ``x + y`` hold as
polynomial identities.
Terms live in a map from exponent vectors ``(eX, eLa, eLb, eLc, eY)`` to
nonzero coefficients, so equality is plain map equality and zero is the
empty map.

Every power and every binomial sum in the closed forms is built by one
routine here: ``powers`` and ``binomial_convolution``.

Everything here is immutable; operations return new objects, and values can
be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Union

__all__ = [
    "Rational",
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
    "parse_poly",
]

Rational = Fraction

Scalar = Union[int, Fraction]
PolyLike = Union["MultiPoly", int, Fraction]

VARIABLES = ("X", "La", "Lb", "Lc", "Y")
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ZERO_EXPS = (0,) * len(VARIABLES)
_F0 = Fraction(0)
_F1 = Fraction(1)


def _index(name: str) -> int:
    """The field of ``name`` in an exponent vector; ValueError for an unknown name."""
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown indeterminate: {name}") from None


class MultiPoly:
    """Immutable sparse polynomial in X, La, Lb, Lc, Y over Rational."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        clean: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(exps)
            if len(key) != len(VARIABLES) or any(not isinstance(e, int) or e < 0 for e in key):
                raise ValueError(f"bad exponent vector: {exps!r}")
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self._terms = clean

    @classmethod
    def _from_clean(cls, terms: dict[tuple, Fraction]) -> "MultiPoly":
        # internal fast path: terms must already be validated and zero-free
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        c = Fraction(value)
        return cls._from_clean({_ZERO_EXPS: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        idx = _index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(VARIABLES)))
        return cls._from_clean({exps: _F1})

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterator[tuple[tuple, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or set(self._terms) == {_ZERO_EXPS}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises ValueError otherwise."""
        if not self._terms:
            return _F0
        if set(self._terms) == {_ZERO_EXPS}:
            return self._terms[_ZERO_EXPS]
        raise ValueError("not a constant polynomial")

    def degree(self, name: str) -> int:
        """Largest exponent of ``name`` appearing in any term (0 for the zero poly)."""
        idx = _index(name)
        return max((e[idx] for e in self._terms), default=0)

    def coefficient(self, exps: tuple) -> Fraction:
        return self._terms.get(tuple(exps), _F0)

    def diff(self, name: str) -> "MultiPoly":
        """The derivative in ``name``: each term's exponent drops by one."""
        idx = _index(name)
        return MultiPoly._from_clean({
            exps[:idx] + (exps[idx] - 1,) + exps[idx + 1:]: exps[idx] * c
            for exps, c in self._terms.items() if exps[idx]
        })

    def integrate(self, name: str) -> "MultiPoly":
        """The antiderivative in ``name`` that vanishes at ``name = 0``."""
        idx = _index(name)
        return MultiPoly._from_clean({
            exps[:idx] + (exps[idx] + 1,) + exps[idx + 1:]: c / (exps[idx] + 1)
            for exps, c in self._terms.items()
        })

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
        out = dict(self._terms)
        _accumulate(out, other._terms)
        return MultiPoly._from_clean(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._from_clean({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = MultiPoly._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = (
                    e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3], e1[4] + e2[4]
                )
                s = out.get(key, _F0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return MultiPoly._from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return powers(self, exponent)[-1]

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return not self._terms
            return self._terms == {_ZERO_EXPS: c}
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self._terms.get(_ZERO_EXPS, _F0))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- substitution and evaluation --------------------------------------

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "MultiPoly":
        """Replace indeterminates by polynomials (or scalars).

        Unbound indeterminates pass through untouched, and all bindings apply
        at once.  Binding values may be ``MultiPoly``, ``int`` or ``Rational``.
        Terms are grouped by their exponents of the bound names, so each
        product of powers multiplies one group, and every product is summed
        into one map.
        """
        bound = {_index(name): powers(v, self.degree(name)) for name, v in bindings.items()}
        groups: dict[tuple, dict[tuple, Fraction]] = {}
        for exps, coeff in self._terms.items():
            residual = tuple(0 if i in bound else e for i, e in enumerate(exps))
            groups.setdefault(tuple(exps[i] for i in bound), {})[residual] = coeff
        out: dict[tuple, Fraction] = {}
        for key, residual_terms in groups.items():
            group = MultiPoly._from_clean(residual_terms)
            for pows, e in zip(bound.values(), key):
                if e:
                    group = group * pows[e]
            _accumulate(out, group._terms)
        return MultiPoly._from_clean(out)

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at an all-rational point.

        Every indeterminate that actually occurs must be bound; a missing one
        raises ValueError naming it.
        """
        total = _F0
        for exps, coeff in self._terms.items():
            v = coeff
            for name, idx in _VAR_INDEX.items():
                e = exps[idx]
                if e:
                    if name not in point:
                        raise ValueError(f"unbound indeterminate: {name}")
                    v *= Fraction(point[name]) ** e
            total += v
        return total

    def __repr__(self):
        return f"MultiPoly({format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def _accumulate(out: dict[tuple, Fraction], terms: Mapping[tuple, Fraction]) -> None:
    """Add ``terms`` into the term map ``out`` in place, dropping zero sums."""
    for exps, c in terms.items():
        s = out.get(exps, _F0) + c
        if s:
            out[exps] = s
        else:
            out.pop(exps, None)


X = MultiPoly.variable("X")
LA = MultiPoly.variable("La")
LB = MultiPoly.variable("Lb")
LC = MultiPoly.variable("Lc")
Y = MultiPoly.variable("Y")


def as_poly(value: PolyLike) -> MultiPoly:
    """Coerce an int or Rational to a constant polynomial; pass polynomials through."""
    p = MultiPoly._coerce(value)
    if p is None:
        raise TypeError(f"cannot interpret {value!r} as a polynomial")
    return p


def poly_eval(p: MultiPoly, point: Mapping[str, Scalar]) -> Fraction:
    return p.eval(point)


def powers(base: PolyLike, n: int) -> list[MultiPoly]:
    """``[1, base, base^2, ..., base^n]``, one multiplication per power."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("polynomial exponent must be a non-negative integer")
    base = as_poly(base)
    out = [MultiPoly.constant(1), base][: n + 1]
    while len(out) <= n:
        out.append(out[-1] * base)
    return out


def binomial_convolution(a, b):
    """``sum_l C(n, l) a[l] b[n - l]`` with ``n = len(a) - 1``.

    This is ``n!`` times the ``t^n`` coefficient of the product of the two
    exponential generating functions ``sum a_l t^l / l!`` and
    ``sum b_m t^m / m!``.  Entries may be polynomials or scalars; the sum
    lives in whichever ring they do.
    """
    n = len(a) - 1
    if n < 0 or len(b) != len(a):
        raise ValueError(f"convolution needs equal non-empty lengths, got {len(a)}, {len(b)}")
    return sum(comb(n, l) * a[l] * b[n - l] for l in range(n + 1))


def homogeneous_substitute(p: MultiPoly, numerator: PolyLike, complement: PolyLike) -> MultiPoly:
    """Substitute ``X`` by a formal quotient with denominators cleared.

    With ``n`` the degree of ``p`` in ``X``, replace ``X`` by
    ``numerator / complement`` and multiply through by ``complement ** n``:
    each term ``m * X^d``, with ``m`` free of ``X``, becomes
    ``m * numerator^d * complement^(n - d)``, summed into one map.  No
    rational-function arithmetic is involved at any point.
    """
    degree = p.degree("X")
    num_pows, comp_pows = powers(numerator, degree), powers(complement, degree)
    out: dict[tuple, Fraction] = {}
    for exps, c in p.items():
        rest = MultiPoly._from_clean({(0,) + exps[1:]: c})
        _accumulate(out, (rest * num_pows[exps[0]] * comp_pows[degree - exps[0]])._terms)
    return MultiPoly._from_clean(out)


# -- text round-trip -------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_FACTOR_RE = re.compile(rf"^({'|'.join(VARIABLES)})(?:\^([1-9]\d*))?$")

CANONICAL_NAMES = {name: name for name in VARIABLES}


def format_rational(q: Scalar) -> str:
    """Canonical text form: ``p/q``, or just ``p`` when the denominator is 1."""
    return str(Fraction(q))


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    if not _RATIONAL_RE.match(t):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(t)


def _term_sort_key(exps):
    return (sum(exps), exps)


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
        if var not in names and any(exps[idx] for exps in p._terms):
            raise ValueError(f"no name for indeterminate: {var}")
    if p.is_zero():
        return "0"
    spelled = [(_index(var), name) for var, name in names.items()]
    parts = []
    for exps in sorted(p._terms, key=_term_sort_key, reverse=True):
        coeff = p._terms[exps]
        factors = []
        for idx, name in spelled:
            e = exps[idx]
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag), *factors])
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(parts)


def parse_poly(text: str) -> MultiPoly:
    """Parse the canonical `format_poly` output (``VARIABLES`` names) back."""
    t = text.strip()
    if not t:
        raise ValueError("empty polynomial text")
    if t == "0":
        return MultiPoly.constant(0)
    terms: dict[tuple, Fraction] = {}
    for chunk in t.replace(" - ", " + -").split(" + "):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"malformed polynomial text: {text!r}")
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = _F1
        exps = [0] * len(VARIABLES)
        saw_factor = False
        for factor in chunk.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                exps[_VAR_INDEX[m.group(1)]] += int(m.group(2) or 1)
                saw_factor = True
            elif _RATIONAL_RE.match(factor):
                coeff *= Fraction(factor)
                saw_factor = True
            else:
                raise ValueError(f"malformed term factor: {factor!r}")
        if not saw_factor:
            raise ValueError(f"malformed polynomial text: {text!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, _F0) + sign * coeff
    return MultiPoly(terms)
