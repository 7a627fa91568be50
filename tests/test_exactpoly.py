import math
import os
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir.exactpoly import (
    Poly,
    _monomial_inverse_power,
    format_poly,
    lincomb,
    parse_poly,
)
from jetvir.jetreps import mat_mul
from jetvir.multiindex import enumerate_indices


def test_parse_basic():
    p = parse_poly("2 * x0^2 x1 - 1/3 * x1^3 + 4", 2)
    assert p.coeff((2, 1)) == 2
    assert p.coeff((0, 3)) == Fraction(-1, 3)
    assert p.coeff((0, 0)) == 4


def test_parse_single_variable_stem():
    z = parse_poly("z^-2 + 3 * z", 1, varname="z")
    assert z.coeff((-2,)) == 1
    assert z.coeff((1,)) == 3


def test_coeff_rejects_an_exponent_of_the_wrong_length():
    f = parse_poly("x0 + x1", 2)
    for expo in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="dimension"):
            f.coeff(expo)
    assert f.coeff((0, 1)) == 1 and f.coeff([1, 0]) == 1 and f.coeff((1, 1)) == 0


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("x5", 2)
    with pytest.raises(ValueError):
        parse_poly("y0", 2)


def test_rejects_float_coefficients():
    with pytest.raises(ValueError, match="exact"):
        Poly(1, {(0,): 0.1})
    with pytest.raises(ValueError, match="exact"):
        Poly.constant(2, 0.5)
    with pytest.raises(ValueError, match="exact"):
        Poly.monomial((1, 2), 2.0)
    assert Poly(1, {(0,): Fraction(1, 10)}).coeff((0,)) == Fraction(1, 10)


def test_rejects_bool_exponents():
    with pytest.raises(ValueError, match="integers"):
        Poly(1, {(True,): 1})
    with pytest.raises(ValueError, match="integers"):
        Poly(2, {(0, False): 1})


def test_format_round_trip():
    p = parse_poly("2 * x0^2 x1 - 1/3 * x1^3 + 4 - x0", 2)
    assert parse_poly(format_poly(p), 2) == p
    assert format_poly(Poly.zero(3)) == "0"


def test_arithmetic_ring_laws():
    f = parse_poly("x0^2 + x0 x1 - 2", 2)
    g = parse_poly("x0 + 3 x1", 2)
    h = parse_poly("1/2 * x1^2 - x0", 2)
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == Poly.zero(2)
    assert (f * g).eval([1, 2]) == f.eval([1, 2]) * g.eval([1, 2])


def test_derivative_and_taylor():
    f = parse_poly("x0^3 x1 + 2 x1^2", 2)
    assert f.deriv(0) == parse_poly("3 x0^2 x1", 2)
    assert f.deriv_multi((3, 1)) == Poly.constant(2, 6)
    assert f.deriv_multi((3, 1)).eval([0, 0]) == 6
    assert f.deriv_multi((0, 2)).eval([0, 0]) == 4


def test_laurent_derivative():
    z = parse_poly("z^-2", 1, "z")
    assert z.deriv(0) == parse_poly("-2 z^-3", 1, "z")


def test_truncate():
    f = parse_poly("x0^3 + x0 x1 + 1", 2)
    assert f.truncate(2) == parse_poly("x0 x1 + 1", 2)
    with pytest.raises(ValueError):
        parse_poly("z^-1", 1, "z").truncate(2)


def test_composition():
    h = parse_poly("x0^2", 1)
    traj = [parse_poly("z + z^2", 1, "z")]
    assert h.compose_univariate(traj) == parse_poly("z^2 + 2 z^3 + z^4", 1, "z")


def test_composition_negative_power_needs_monomial():
    lz = parse_poly("x0^-1", 1)
    assert lz.compose_univariate([parse_poly("2 z", 1, "z")]) == \
        parse_poly("1/2 * z^-1", 1, "z")
    with pytest.raises(ValueError):
        lz.compose_univariate([parse_poly("z + 1", 1, "z")])


def test_degree_cap(monkeypatch):
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "8")
    f = parse_poly("x0^5", 1)
    with pytest.raises(OverflowError):
        _ = f * f
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "not-a-number")
    with pytest.raises(ValueError):
        _ = f * f


def test_degree_cap_bounds_the_product_not_the_operands(monkeypatch):
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "8")
    # The operand degrees sum to 9 > 8, but z^5 * z^-4 = z.
    assert parse_poly("z^5", 1, "z") * parse_poly("z^-4", 1, "z") == \
        parse_poly("z", 1, "z")
    # Only x0^5 * x0^4 exceeds 8; every other term pair is small.
    f = parse_poly("x0^5 + x0 + 1", 1)
    g = parse_poly("x0^4 + x0 + 2", 1)
    with pytest.raises(OverflowError):
        _ = f * g


def test_degree_cap_is_read_on_each_product(monkeypatch):
    f = parse_poly("x0^5", 1)
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "8")
    with pytest.raises(OverflowError):
        _ = f * f
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "10")
    assert f * f == parse_poly("x0^10", 1)
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "9")
    with pytest.raises(OverflowError):
        _ = f * f


def test_degree_cap_negative_powers(monkeypatch):
    monkeypatch.setenv("JETVIR_MAX_DEGREE", "8")
    assert _monomial_inverse_power(parse_poly("z^2", 1, "z"), 3) == \
        parse_poly("z^-6", 1, "z")
    with pytest.raises(OverflowError):
        _monomial_inverse_power(parse_poly("z^5", 1, "z"), 3)


def test_scale_rejects_float():
    with pytest.raises(ValueError, match="exact"):
        Poly.constant(1, 1).scale(0.1)
    assert Poly.constant(1, 2).scale(Fraction(1, 4)) == Poly.constant(1, Fraction(1, 2))


def test_eval_rejects_float():
    with pytest.raises(ValueError, match="exact"):
        parse_poly("x0^2 + x1", 2).eval([0.1, 0])
    assert parse_poly("x0^2 + x1", 2).eval([Fraction(1, 2), 1]) == Fraction(5, 4)


def test_deriv_multi_rejects_malformed_orders():
    f = parse_poly("x0^2 + x1", 2)
    for order in ((-1, 0), (0, -2), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            f.deriv_multi(order)
    assert f.deriv_multi((1, 0)) == parse_poly("2 x0", 2)
    assert Poly.constant(0, 3).deriv_multi(()) == Poly.constant(0, 3)


# -- properties on random polynomials ------------------------------------------

_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _polys(d, max_deg=3):
    return st.dictionaries(st.sampled_from(enumerate_indices(d, max_deg)), _COEFFS,
                           max_size=5).map(lambda terms: Poly(d, terms))


_TRIPLES = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), _polys(d), _polys(d), _polys(d)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_TRIPLES)
def test_ring_axioms(case):
    d, f, g, h = case
    zero, one = Poly.zero(d), Poly.constant(d, 1)
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f + zero == f
    assert f + (-f) == zero
    assert f - g == f + (-g)
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * one == f
    assert f * (g + h) == f * g + f * h


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_TRIPLES, st.integers(0, 2))
def test_leibniz_rule(case, mu):
    d, f, g, _ = case
    mu %= d
    assert (f * g).deriv(mu) == f.deriv(mu) * g + f * g.deriv(mu)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_TRIPLES)
def test_parse_inverts_format(case):
    d, f, _, _ = case
    assert parse_poly(format_poly(f), d) == f


@st.composite
def _compositions(draw):
    d = draw(st.integers(1, 3))
    target = draw(st.integers(1, 2))
    subs = [draw(_polys(target, 2)) for _ in range(d)]
    return draw(_polys(d)), draw(_polys(d)), subs, target


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_compositions())
def test_composition_is_a_ring_homomorphism(case):
    f, g, subs, target = case
    fs, gs = f.compose_univariate(subs), g.compose_univariate(subs)
    assert (f + g).compose_univariate(subs) == fs + gs
    assert (f * g).compose_univariate(subs) == fs * gs
    assert Poly.constant(f.dim, 1).compose_univariate(subs) == Poly.constant(target, 1)


# -- the canonical form: nonzero int numerators over one denominator ----------

def _assert_clean(r, dim):
    assert r.dim == dim
    num, den = r.numerators, r.denominator
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert num or den == 1
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == dim
        assert all(type(x) is int for x in e)
        assert type(c) is Fraction and c != 0
    assert Poly(r.dim, r.terms) == r
    assert hash(r) == hash(Poly(r.dim, r.terms))
    before = dict(num), den
    view = r.terms
    view[(0,) * dim] = Fraction(99, 7)
    view.clear()
    with pytest.raises(TypeError):
        num[(0,) * dim] = 1
    assert (dict(r.numerators), r.denominator) == before


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_TRIPLES, st.integers(0, 2), st.integers(0, 3), st.integers(0, 3), _COEFFS)
def test_results_keep_the_term_invariant(case, mu, p, n, k):
    d, f, g, _ = case
    mu %= d
    for r in (f + g, f - g, -f, f * g, f.scale(k), f.scale(0), f.scale(Fraction(-3, 2)),
              f.deriv(mu), f.truncate(p), f ** n):
        _assert_clean(r, d)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_compositions())
def test_composition_keeps_the_term_invariant(case):
    f, _, subs, target = case
    _assert_clean(f.compose_univariate(subs), target)


def test_cancellations_drop_terms():
    f = parse_poly("x0^2 - 1/2 * x0 x1 + 3", 2)
    g = parse_poly("x0 x1 - 3", 2)
    for r in (f + (-f), f - f, f.scale(0), Poly.constant(2, 5).deriv(1)):
        _assert_clean(r, 2)
        assert r.is_zero()
    r = (f + g) - g
    _assert_clean(r, 2)
    assert r == f
    x, one = parse_poly("x0", 1), Poly.constant(1, 1)
    r = (x + one) * (x - one)
    _assert_clean(r, 1)
    assert r.terms == {(2,): 1, (0,): -1}
    r = parse_poly("x0^-2 + x0", 1).compose_univariate([parse_poly("2 z", 1, "z")])
    _assert_clean(r, 1)
    assert r == parse_poly("1/4 * z^-2 + 2 z", 1, "z")


def test_products_reject_a_dimension_mismatch():
    x, y = parse_poly("x0", 1), parse_poly("x0", 2)
    with pytest.raises(ValueError, match="dimension"):
        _ = x * y


def test_numerators_share_one_reduced_denominator():
    f = parse_poly("1/2 * x0 + 1/3", 1)
    assert dict(f.numerators) == {(1,): 3, (0,): 2} and f.denominator == 6
    r = f + parse_poly("1/2 * x0 + 2/3", 1)
    assert dict(r.numerators) == {(1,): 1, (0,): 1} and r.denominator == 1
    assert f.coeff((1,)) == Fraction(1, 2) and f.coeff((5,)) == 0
    assert Poly.zero(2).denominator == 1 and not Poly.zero(2).numerators
    assert f.scale(Fraction(-3, 2)) == parse_poly("-3/4 * x0 - 1/2", 1)


# -- sums of products against a Fraction reference --------------------------

def _reference_sum_of_products(d, pairs):
    out = {}
    for x, y in pairs:
        for e1, c1 in x.terms.items():
            for e2, c2 in y.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return Poly(d, out)


@st.composite
def _product_sums(draw):
    d = draw(st.integers(1, 3))
    laurent = st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * d),
        st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4)
    polys = laurent.map(lambda terms: Poly(d, terms))
    pairs = draw(st.lists(st.tuples(polys, polys), max_size=4))
    return d, pairs, draw(st.integers(2, 16))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_product_sums())
def test_sums_of_products_match_a_fraction_reference(case):
    """A left fold of * and + over 0-4 pairs, and the one matrix entry that
    mat_mul computes from the same pairs, against sums of Fraction products;
    OverflowError exactly when some term pair exceeds the degree cap."""
    d, pairs, cap = case
    row, col = (tuple(x for x, _ in pairs),), tuple((y,) for _, y in pairs)
    over = any(sum(abs(a + b) for a, b in zip(e1, e2)) > cap
               for x, y in pairs for e1 in x.numerators for e2 in y.numerators)
    with mock.patch.dict(os.environ, {"JETVIR_MAX_DEGREE": str(cap)}):
        if over:
            with pytest.raises(OverflowError):
                reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs, Poly.zero(d))
            with pytest.raises(OverflowError):
                mat_mul(row, col)
            return
        r = reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs, Poly.zero(d))
        if pairs:
            assert mat_mul(row, col) == ((r,),)
    assert r == _reference_sum_of_products(d, pairs)
    _assert_clean(r, d)


# -- linear combinations against a Fraction reference ------------------------

def test_lincomb_rejects_floats_and_a_dimension_mismatch():
    x = parse_poly("x0", 2)
    with pytest.raises(ValueError, match="exact"):
        lincomb(2, [(1, x), (0.5, x)])
    with pytest.raises(ValueError, match="exact"):
        lincomb(2, [(0.0, x)])
    with pytest.raises(ValueError, match="dimension"):
        lincomb(2, [(1, x), (1, parse_poly("x0", 1))])
    with pytest.raises(ValueError, match="dimension"):
        lincomb(1, [(0, x)])
    assert lincomb(3, []) == Poly.zero(3)
    assert lincomb(2, [(Fraction(1, 2), x), (Fraction(-1, 2), x)]) == Poly.zero(2)
    assert lincomb(2, [(3, x), (Fraction(1, 3), x)]) == x.scale(Fraction(10, 3))


@st.composite
def _linear_combinations(draw):
    d = draw(st.integers(1, 3))
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    laurent = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * d), fractions, max_size=4)
    coeffs = st.one_of(st.just(0), st.integers(-4, 4), fractions)
    pairs = draw(st.lists(st.tuples(coeffs, laurent.map(lambda t: Poly(d, t))),
                          max_size=6))
    return d, pairs


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_linear_combinations())
def test_lincomb_matches_a_fraction_reference(case):
    """sum_k c_k P_k over Laurent operands with int, Fraction and zero
    coefficients, against a sum of Fraction coefficients per exponent."""
    d, pairs = case
    out = {}
    for c, p in pairs:
        for e, v in p.terms.items():
            out[e] = out.get(e, 0) + c * v
    r = lincomb(d, pairs)
    assert r == Poly(d, out)
    _assert_clean(r, d)
