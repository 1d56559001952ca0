from fractions import Fraction
from math import comb, factorial
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybernoulli.exact import (
    LA,
    LB,
    LC,
    VARIABLES,
    MultiPoly,
    X,
    Y,
    as_poly,
    binomial_convolution,
    format_poly,
    format_rational,
    homogeneous_substitute,
    parse_poly,
    parse_rational,
    poly_eval,
    powers,
)
from polybernoulli.series import PowerSeries

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=8
)

exponents = st.tuples(*[st.integers(0, 2)] * 5)


@st.composite
def polys(draw):
    terms = draw(st.dictionaries(exponents, rationals, max_size=4))
    return MultiPoly(terms)


points = st.fixed_dictionaries(
    {name: rationals for name in ("X", "La", "Lb", "Lc", "Y")}
)


# -- rational scalar contract ---------------------------------------------


def test_rat_arith_basic():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert 1 - F(1, 4) == F(3, 4)
    assert F(2, 3) * F(3, 2) == 1
    assert F(1, 2) / F(1, 4) == 2


def test_rat_arith_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_rational_canonical_form():
    q = F(2) / F(-4)
    assert q.numerator == -1 and q.denominator == 2
    z = F(3, 7) - F(3, 7)
    assert z.numerator == 0 and z.denominator == 1


def test_rational_round_trip():
    for text in ["0", "5", "-5", "1/2", "-7/3", "22/7"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(F(4, 8)) == "1/2"


def test_parse_rational_rejects_junk():
    for bad in ["", "1.5", "1/0", "a/b", "1/-2", "--3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(rationals, rationals, rationals)
@settings(max_examples=40)
def test_rat_arith_field_laws(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c


# -- polynomial ring -------------------------------------------------------


def test_poly_zero_and_constants():
    assert MultiPoly.constant(0).is_zero()
    assert MultiPoly.constant(0) == 0
    assert MultiPoly.constant(F(3, 4)) == F(3, 4)
    assert (X - X).is_zero()
    assert as_poly(2) + as_poly(3) == 5


def test_poly_arith_example():
    p = X * LA + 1
    q = X * LA - 1
    assert p * q == X * X * LA * LA - 1
    assert p + q == 2 * X * LA
    assert p - q == 2


def test_poly_pow():
    p = X + LB
    assert p**0 == 1
    assert p**1 == p
    assert p**3 == X**3 + 3 * X**2 * LB + 3 * X * LB**2 + LB**3
    with pytest.raises(ValueError):
        p ** (-1)


def test_poly_rejects_bad_exponents():
    with pytest.raises(ValueError):
        MultiPoly({(1, 2): 1})
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0, 0, -1): 1})
    with pytest.raises(ValueError):
        MultiPoly({(1, 0, 0, 0): 1})


def test_degree_helpers():
    p = X**2 * LA + LC**5
    assert p.degree("X") == 2
    assert p.degree("Lc") == 5
    assert p.degree("Lb") == 0
    assert (p * Y**3).degree("Y") == 3


def test_diff_and_integrate_examples():
    p = X**3 * LA + 2 * X * LC - 5
    assert p.diff("X") == 3 * X**2 * LA + 2 * LC
    assert p.diff("La") == X**3
    assert p.diff("Y").is_zero()
    assert p.integrate("X") == F(1, 4) * X**4 * LA + X**2 * LC - 5 * X
    assert MultiPoly.constant(0).integrate("Lb").is_zero()
    assert MultiPoly.constant(3).integrate("Y") == 3 * Y


@pytest.mark.parametrize("name", VARIABLES)
@given(polys(), polys())
@settings(max_examples=25)
def test_integrate_then_diff_is_identity_and_diff_obeys_leibniz(name, p, q):
    assert p.integrate(name).diff(name) == p
    assert p.integrate(name).substitute({name: 0}).is_zero()
    assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)


@pytest.mark.parametrize("name", VARIABLES)
@given(polys(), st.integers(0, 4), st.integers(0, 6))
@settings(max_examples=25)
def test_higher_derivative_equals_repeated_first_derivatives(name, p, shift, order):
    p = p * MultiPoly.variable(name) ** shift  # exponents up to 6, orders past them
    repeated = p
    for _ in range(order):
        repeated = repeated.diff(name)
    assert p.diff(name, order) == repeated


def test_higher_derivative_examples_and_bad_order():
    p = X**3 * LA + 2 * X * LC - 5
    assert p.diff("X", 0) == p
    assert p.diff("X", 2) == 6 * X * LA
    assert p.diff("X", 3) == 6 * LA
    assert p.diff("X", 4).is_zero()
    for order in (-1, 1.5):
        with pytest.raises(ValueError, match="derivative order"):
            p.diff("X", order)


def test_substitute_plain():
    p = X**2 + LB
    assert p.substitute({"X": 2}) == 4 + LB
    assert p.substitute({"X": X + 1}) == X**2 + 2 * X + 1 + LB
    shifted = (X * LC).substitute({"X": X + 1})
    assert shifted == X * LC + LC
    # bindings apply simultaneously, so two indeterminates can swap
    assert (X**2 * LA).substitute({"X": LA, "La": X}) == LA**2 * X
    assert (X * Y**2 + X).substitute({"X": Y, "Y": X}) == Y * X**2 + Y
    assert (X**2).substitute({"X": X + Y}) == X**2 + 2 * X * Y + Y**2
    with pytest.raises(TypeError):
        LB.substitute({"X": "2"})


def test_substitute_identity_is_noop():
    p = X**2 * LA - LB * LC + 7
    same = p.substitute({"X": X, "La": LA, "Lb": LB, "Lc": LC, "Y": Y})
    assert same == p


def test_substitute_unknown_name():
    with pytest.raises(ValueError):
        X.substitute({"Z": 1})


@pytest.mark.parametrize("method", ["degree", "diff", "integrate"])
def test_unknown_name_raises_value_error(method):
    with pytest.raises(ValueError, match="unknown indeterminate: Z"):
        getattr(X, method)("Z")


def test_eval_requires_occurring_bindings():
    p = X * LA
    assert p.eval({"X": 2, "La": F(1, 2)}) == 1
    with pytest.raises(ValueError, match="Lb"):
        (p + LB).eval({"X": 2, "La": 1})
    # a name outside VARIABLES is an error, as in substitute, degree, diff and integrate
    with pytest.raises(ValueError, match="unknown indeterminate: x"):
        (LA + 1).eval({"La": 2, "x": 5})
    # unused indeterminates need no binding
    assert MultiPoly.constant(5).eval({}) == 5


def test_homogeneous_substitute_clears_denominators():
    # p(X) = X^2 + X + 1, X -> u/v at degree 2: u^2 + u v + v^2
    p = X**2 + X + 1
    u, v = LA, LA + LB
    assert homogeneous_substitute(p, u, v) == u**2 + u * v + v**2


def test_powers_lists_every_power_from_one():
    assert powers(X + 1, 0) == [1]
    assert powers(X + 1, 1) == [1, X + 1]
    assert powers(X + 1, 3) == [1, X + 1, X**2 + 2 * X + 1, X**3 + 3 * X**2 + 3 * X + 1]
    assert powers(F(-1, 2), 2) == [1, F(-1, 2), F(1, 4)]
    assert all(isinstance(q, MultiPoly) for q in powers(2, 2))
    for bad in (-1, F(1, 2)):
        with pytest.raises(ValueError, match="non-negative integer"):
            powers(X, bad)
    with pytest.raises(TypeError):
        powers("X", 2)


def test_binomial_convolution_examples():
    # (X + LB)^3 is the convolution of the powers of X with the powers of LB
    assert binomial_convolution(powers(X, 3), powers(LB, 3)) == (X + LB) ** 3
    assert binomial_convolution([1, 1, 1], [1, 1, 1]) == 4  # e^t * e^t = e^{2t}
    # scalar entries give a polynomial, equal and hash-equal to the scalar sum
    scalar = binomial_convolution([F(1, 2), 3], [-1, F(2, 3)])
    assert isinstance(scalar, MultiPoly)
    assert scalar == F(-8, 3) and hash(scalar) == hash(F(-8, 3))
    assert binomial_convolution([F(1, 2)], [X]) == F(1, 2) * X
    assert binomial_convolution([X, 0, 0], [0, 0, LC]) == X * LC


@pytest.mark.parametrize("a, b", [([], []), ([1, 2], [1]), ([1], [1, 2]), ([X], [])])
def test_binomial_convolution_rejects_empty_or_unequal_lengths(a, b):
    with pytest.raises(ValueError, match="equal non-empty lengths"):
        binomial_convolution(a, b)


@given(st.lists(polys(), min_size=1, max_size=5), st.data())
@settings(max_examples=30)
def test_binomial_convolution_is_the_product_of_egfs(a, data):
    # independent reference: n! [t^n] of (sum a_l t^l / l!) * (sum b_m t^m / m!)
    b = data.draw(st.lists(polys(), min_size=len(a), max_size=len(a)))
    n = len(a) - 1
    egf_a = PowerSeries([F(1, factorial(l)) * c for l, c in enumerate(a)])
    egf_b = PowerSeries([F(1, factorial(m)) * c for m, c in enumerate(b)])
    assert binomial_convolution(a, b) == (egf_a * egf_b).coefficient(n) * factorial(n)


@given(polys(), st.integers(0, 5))
@settings(max_examples=30)
def test_power_is_repeated_multiplication(p, e):
    product = MultiPoly.constant(1)
    for _ in range(e):
        product = product * p
    assert p**e == product
    assert powers(p, e)[-1] == product


@given(polys(), polys(), polys())
@settings(max_examples=25)
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys(), polys(), points)
@settings(max_examples=40)
def test_eval_is_ring_homomorphism(p, q, pt):
    assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)
    assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)


@given(polys(), polys(), polys(), points)
@settings(max_examples=30)
def test_substitute_then_eval_matches(p, q, r, pt):
    # replacing X by q then evaluating equals evaluating with X bound to q(pt);
    # binding Y to r as well checks that both bindings apply at once
    assert poly_eval(p.substitute({"X": q}), pt) == poly_eval(p, pt | {"X": poly_eval(q, pt)})
    composed = p.substitute({"X": q, "Y": r})
    inner_pt = pt | {"X": poly_eval(q, pt), "Y": poly_eval(r, pt)}
    assert poly_eval(composed, pt) == poly_eval(p, inner_pt)


# -- canonical storage: integer numerators over one common denominator -----

# denominators up to 10^6, so the common denominator of a polynomial varies
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@st.composite
def wide_polys(draw):
    return MultiPoly(draw(st.dictionaries(exponents, wide_rationals, max_size=5)))


wide_points = st.fixed_dictionaries(
    {name: st.one_of(st.integers(-9, 9), wide_rationals) for name in VARIABLES}
)


@given(wide_polys(), wide_polys(), wide_rationals.filter(bool))
@settings(max_examples=60)
def test_polynomials_built_by_different_routes_compare_and_hash_equal(p, q, c):
    n = p.degree("X")
    for a, b in [
        ((p + q) - q, p),
        ((p - q) + q, p),
        (p * q, q * p),
        (-(-p), p),
        (binomial_convolution(powers(p, 3), powers(q, 3)), (p + q) ** 3),
        # X -> q / c with the denominator cleared, against substitute-and-multiply
        (homogeneous_substitute(p, q, c), c**n * p.substitute({"X": q * (1 / c)})),
    ]:
        assert a == b
        assert hash(a) == hash(b)


@given(wide_rationals)
def test_a_constant_hashes_like_its_value(c):
    assert MultiPoly.constant(c) == c
    assert hash(MultiPoly.constant(c)) == hash(c)
    assert hash(X * c - X * c + c) == hash(c)


@given(wide_polys())
@settings(max_examples=60)
def test_rebuilding_from_items_gives_the_same_polynomial(p):
    coeffs = dict(p.items())
    assert all(isinstance(c, F) and c for c in coeffs.values())
    assert MultiPoly(coeffs) == p
    assert hash(MultiPoly(coeffs)) == hash(p)


def test_content_cancels():
    assert (X + 1) * F(1, 2) * 2 == X + 1
    assert format_poly((X + 1) * F(1, 2) * 2) == "X + 1"
    assert F(3, 2) * (F(2, 3) * X**2).diff("X") == 2 * X
    assert (6 * X + 3).integrate("X") == 3 * X**2 + 3 * X
    p = F(1, 3) * X + F(5, 7) * LA - F(1, 10**6) * Y
    assert str(p - p) == "0"
    assert p - p == 0 and hash(p - p) == hash(0)


# -- the multiply-accumulate kernel against term-by-term Fraction routines --


def _fraction_terms(value):
    return dict(as_poly(value).items())


def _reference_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = out.get(key, F(0)) + ca * cb
    return out


def _reference_powers(value, n):
    out = [{(0,) * len(VARIABLES): F(1)}]
    for _ in range(n):
        out.append(_reference_product(out[-1], _fraction_terms(value)))
    return out


def _reference_negated(terms):
    return {e: -c for e, c in terms.items()}


def _reference_sum(term_maps):
    out = {}
    for terms in term_maps:
        for e, c in terms.items():
            out[e] = out.get(e, F(0)) + c
    return MultiPoly(out)


def _reference_substitute(p, bindings):
    # one product of powers per term, each product its own term map
    bound = {
        VARIABLES.index(name): _reference_powers(v, p.degree(name)) for name, v in bindings.items()
    }

    def substituted(exps, c):
        term = {tuple(0 if i in bound else e for i, e in enumerate(exps)): c}
        for i, pows in bound.items():
            term = _reference_product(term, pows[exps[i]])
        return term

    return _reference_sum(substituted(exps, c) for exps, c in p.items())


def _reference_homogeneous_substitute(p, numerator, complement):
    n = p.degree("X")
    num_pows, comp_pows = _reference_powers(numerator, n), _reference_powers(complement, n)
    return _reference_sum(
        _reference_product(_reference_product({(0,) + exps[1:]: c}, num_pows[exps[0]]),
                           comp_pows[n - exps[0]])
        for exps, c in p.items()
    )


def _reference_convolution(a, b):
    n = len(a) - 1
    products = (
        (comb(n, l), _reference_product(_fraction_terms(a[l]), _fraction_terms(b[n - l])))
        for l in range(n + 1)
    )
    return _reference_sum({e: w * c for e, c in terms.items()} for w, terms in products)


@st.composite
def small_wide_polys(draw):
    return MultiPoly(draw(st.dictionaries(exponents, wide_rationals, max_size=3)))


# entries of a sum of products: polynomials, zero, and int and Fraction scalars
entries = st.one_of(
    small_wide_polys(),
    st.just(0),
    st.just(MultiPoly.constant(0)),
    st.integers(-9, 9),
    wide_rationals,
    st.sampled_from([X, LA, LB, LC, Y]),
)

# several names at once, including bindings that swap indeterminates
bindings = st.one_of(
    st.dictionaries(st.sampled_from(VARIABLES), entries, min_size=1, max_size=3),
    st.permutations(VARIABLES).map(
        lambda names: {v: MultiPoly.variable(w) for v, w in zip(VARIABLES, names)}
    ),
)


@given(wide_polys(), bindings)
@settings(max_examples=80)
def test_substitute_matches_reference(p, binding):
    assert p.substitute(binding) == _reference_substitute(p, binding)


@given(wide_polys(), entries, entries)
@settings(max_examples=80)
def test_homogeneous_substitute_matches_reference(p, numerator, complement):
    got = homogeneous_substitute(p, numerator, complement)
    assert got == _reference_homogeneous_substitute(p, numerator, complement)


@given(st.lists(entries, min_size=1, max_size=6), st.data())
@settings(max_examples=80)
def test_binomial_convolution_matches_reference(a, data):
    b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
    assert binomial_convolution(a, b) == _reference_convolution(a, b)


@given(wide_polys(), wide_polys(), st.one_of(st.integers(-9, 9), wide_rationals))
@settings(max_examples=60)
def test_ring_operations_match_reference(p, q, c):
    # wide denominators, so the kernel often rescales the running numerator map
    tp, tq, tc = _fraction_terms(p), _fraction_terms(q), _fraction_terms(c)
    for got, terms in [
        (p * q, [_reference_product(tp, tq)]),
        (p + q, [tp, tq]),
        (p - q, [tp, _reference_negated(tq)]),
        (q - p, [tq, _reference_negated(tp)]),
        (c - p, [tc, _reference_negated(tp)]),
        (p - c, [tp, _reference_negated(tc)]),
        (p + c, [tp, tc]),
        (c + p, [tc, tp]),
    ]:
        assert got == _reference_sum(terms)


def _reference_eval(p, point):
    # the term-by-term Fraction sum the integer evaluation must equal
    total = F(0)
    for exps, coeff in p.items():
        for name, e in zip(VARIABLES, exps):
            coeff *= F(point[name]) ** e
        total += coeff
    return total


@given(wide_polys(), wide_points)
@settings(max_examples=60)
def test_eval_matches_the_fraction_sum_over_items(p, point):
    value = p.eval(point)
    assert isinstance(value, F)
    assert value == _reference_eval(p, point)


@given(wide_polys(), wide_points)
@settings(max_examples=30)
def test_eval_names_each_unbound_indeterminate(p, point):
    for name in VARIABLES:
        if p.degree(name):
            missing = {v: q for v, q in point.items() if v != name}
            with pytest.raises(ValueError, match=f"^unbound indeterminate: {name}$"):
                p.eval(missing)


# -- text round-trip -------------------------------------------------------


def test_format_poly_examples():
    assert format_poly(MultiPoly.constant(0)) == "0"
    assert format_poly(X + F(1, 4)) == "X + 1/4"
    assert format_poly(X * LC + F(1, 4) * LA - F(3, 4) * LB) == "X*Lc + 1/4*La - 3/4*Lb"
    assert format_poly(-X**2 + 1) == "-X^2 + 1"
    assert format_poly(X * X * LA) == "X^2*La"
    assert format_poly(X * Y + LC * Y**2 - Y) == "Lc*Y^2 + X*Y - Y"


def test_format_poly_display_name_variant():
    # alternate spellings and factor order change rendering, not term order
    p = X * LC + F(1, 4) * LA - F(3, 4) * LB
    pretty = format_poly(p, names={"La": "ln(a)", "Lb": "ln(b)", "Lc": "ln(c)", "X": "x"})
    assert pretty == "ln(c)*x + 1/4*ln(a) - 3/4*ln(b)"


def test_format_poly_rejects_an_occurring_indeterminate_without_a_name():
    names = {"X": "X", "La": "La", "Lb": "Lb", "Lc": "Lc"}
    assert format_poly(X * LC + 1, names=names) == "X*Lc + 1"
    with pytest.raises(ValueError, match="^no name for indeterminate: Y$"):
        format_poly(X * Y + Y, names=names)
    with pytest.raises(ValueError, match="^unknown indeterminate: Z$"):
        format_poly(X, names={**names, "Z": "z"})


def test_format_poly_term_order_is_graded_lex():
    p = LB + X + LA + X * X
    assert format_poly(p) == "X^2 + X + La + Lb"


def test_parse_poly_examples():
    assert parse_poly("0").is_zero()
    assert parse_poly("X + 1/4") == X + F(1, 4)
    assert parse_poly("-X^2 + 1") == 1 - X**2
    assert parse_poly("Lc*X + 1/4*La - 3/4*Lb") == X * LC + F(1, 4) * LA - F(3, 4) * LB
    assert parse_poly("3/2") == F(3, 2)
    assert parse_poly("Lc*Y^2 + X*Y - Y") == X * Y + LC * Y**2 - Y


def test_parse_poly_rejects_junk():
    for bad in ["", "x + 1", "X^", "X**2", "1 +", "X^-2"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


@given(polys())
@settings(max_examples=60)
def test_poly_text_round_trip(p):
    assert parse_poly(format_poly(p)) == p
