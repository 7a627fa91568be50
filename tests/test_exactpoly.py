import itertools
import math
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir import exactpoly
from jetvir.exactpoly import (
    MAX_DEGREE,
    Poly,
    _monomial_inverse_power,
    format_poly,
    lincomb,
    parse_poly,
    prim_products,
)
from jetvir.jetreps import mat_mul
from jetvir.multiindex import MultiIndex, enumerate_indices


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


@pytest.mark.parametrize("text, rest", [
    ("", ""), ("+", "+"), ("-", "-"), ("*", "*"), ("+ +", "+ +"), ("  ", "  "),
    ("x0 +", "+"), ("x0 - x1 -", "-"), ("x0 + *", "+ *"),
], ids=["empty", "plus", "minus", "star", "two-signs", "blank", "trailing-plus",
        "trailing-minus", "sign-then-star"])
def test_a_text_with_no_term_after_its_sign_does_not_parse(text, rest):
    with pytest.raises(ValueError) as caught:
        parse_poly(text, 2)
    assert str(caught.value) == f"cannot parse polynomial at: {rest!r}"


@pytest.mark.parametrize("text", ["x0 ", "x0 + 1 ", "x0\t", " x0 ", "\t2 * x0 x1^2\n"])
def test_whitespace_after_a_text_is_ignored_like_whitespace_before_it(text):
    assert parse_poly(text, 2) == parse_poly(text.strip(), 2)


@pytest.mark.parametrize("text, rest", [
    ("\t", "\t"), (" \n ", " \n "), ("x0 + ", "+ "), ("x0 -\t", "-\t"),
], ids=["tab", "blank-lines", "trailing-plus-space", "trailing-minus-tab"])
def test_a_blank_text_or_a_trailing_sign_still_does_not_parse(text, rest):
    with pytest.raises(ValueError) as caught:
        parse_poly(text, 2)
    assert str(caught.value) == f"cannot parse polynomial at: {rest!r}"


def test_zero_and_signed_terms_still_parse():
    assert parse_poly("0", 2) == parse_poly("x0 - x0", 2) == Poly.zero(2)
    assert parse_poly("- - x0", 2) == parse_poly("* x0", 2) == parse_poly("x0 *", 2) \
        == Poly.variable(2, 0)


# A second parser, a cursor loop with a nested flush and its own token
# pattern: the reference for parse_poly's results and error messages.
_REFERENCE_TOKEN = (
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>-?\d+))?|(?P<mul>\*))"
)


def _reference_parse_poly(text: str, dim: int, varname: str = "x") -> Poly:
    pos = 0
    tail = 0  # where the text after the last complete term begins
    n = len(text.rstrip())
    # term state
    sign = 1
    coeff: Fraction | None = None
    expo = [0] * dim
    started = False

    def flush():
        nonlocal sign, coeff, expo, started
        if not started:
            return
        c = coeff if coeff is not None else Fraction(1)
        result_terms[tuple(expo)] = result_terms.get(tuple(expo), Fraction(0)) + sign * c
        sign, coeff, expo, started = 1, None, [0] * dim, False

    result_terms: dict[MultiIndex, Fraction] = {}
    token = re.compile(_REFERENCE_TOKEN).match
    while pos < n:
        m = token(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            if started:
                flush()
                tail = m.start("sign")
            if m.group("sign") == "-":
                sign = -sign
            continue
        if m.group("num"):
            num = m.group("num")
            try:
                val = Fraction(num)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in coefficient {num!r}") from exc
            coeff = val if coeff is None else coeff * val
            started = True
            continue
        if m.group("var"):
            name = m.group("var")
            k = int(m.group("exp")) if m.group("exp") else 1
            if name == varname and dim == 1:
                idx = 0
            elif name.startswith(varname) and name[len(varname):].isdigit():
                idx = int(name[len(varname):])
                if idx >= dim:
                    raise ValueError(f"variable {name} out of range for dimension {dim}")
            else:
                raise ValueError(f"unknown variable {name!r}")
            if k < 0 and dim != 1:
                raise ValueError("negative exponents only supported in one variable")
            expo[idx] += k
            started = True
            continue
        # bare '*': separator, nothing to do
    if not started:
        raise ValueError(f"cannot parse polynomial at: {text[tail:]!r}")
    flush()
    if any(sum(abs(c) for c in e) > MAX_DEGREE for e in result_terms):
        raise OverflowError("parsed polynomial exceeds the degree cap")
    return Poly(dim, result_terms)


# Well-formed pieces and junk: joined with no separator they also make
# names like x01, x0x1 and z2x, numbers next to variables, and 4/0.
_PARSE_ALPHABET = [
    "x", "z", "x0", "x1", "x2", "z0", "z1", "x^2", "x^-1", "z^-2", "x0^2", "x1^-1",
    "x0^70", "x^70", "x0x1", "x_1", "y", "0", "1", "2", "1/3", "4/0", "3/", "x^",
    "12345678901234567890", "+", "-", "*", " ", "\t", "~", "^", "/", "(",
]


def _parse_outcome(parse, text, dim, varname):
    try:
        p = parse(text, dim, varname)
    except Exception as exc:
        return type(exc), str(exc)
    return p.dim, dict(p.numerators), p.denominator


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=st.lists(st.sampled_from(_PARSE_ALPHABET), max_size=10).map("".join),
       dim=st.integers(1, 3), varname=st.sampled_from(["x", "z"]))
def test_parse_poly_agrees_with_the_reference_parser(text, dim, varname):
    """Same polynomial, or the same exception type and message."""
    assert (_parse_outcome(parse_poly, text, dim, varname)
            == _parse_outcome(_reference_parse_poly, text, dim, varname))


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


def test_powers_need_a_non_bool_int_exponent():
    x = Poly.variable(1, 0)
    for n in (2.0, True, False, Fraction(2)):
        with pytest.raises(ValueError, match="integers"):
            x ** n
    assert x ** 0 == Poly.constant(1, 1) and x ** 2 == x * x


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
    assert f.deriv(0).deriv(0).deriv(0).deriv(1) == Poly.constant(2, 6)
    assert f.deriv(1).deriv(1).eval([0, 0]) == 4


def test_laurent_derivative():
    z = parse_poly("z^-2", 1, "z")
    assert z.deriv(0) == parse_poly("-2 z^-3", 1, "z")


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


def test_composition_and_powers_never_multiply_by_one(monkeypatch):
    """No product of one compose_univariate call or one ** call has the
    constant 1 as an operand, and a composition raises each q_i^k once."""
    f = Poly(2, {(2, 1): 1, (2, 0): 1, (0, 3): 1, (1, -1): 1, (0, 0): 5})
    q0, q1 = parse_poly("z + z^2", 1, "z"), parse_poly("3 z", 1, "z")
    x = parse_poly("x0 + 2 x1", 2)
    expected = (q0 ** 2 * q1 + q0 ** 2 + q1 ** 3 + q0 * parse_poly("1/3 * z^-1", 1, "z")
                + Poly.constant(1, 5), x * x * x * x * x * x)
    products, powers = [], []
    mul, pow_ = Poly.__mul__, Poly.__pow__

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counting_pow(a, n):
        powers.append(n)
        return pow_(a, n)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(Poly, "__pow__", counting_pow)
    composed = f.compose_univariate([q0, q1])
    assert sorted(powers) == [1, 1, 2, 3]  # q0, q1, q0^2, q1^3
    sixth = x ** 6
    monkeypatch.undo()
    assert (composed, sixth) == expected
    ones = (Poly.constant(1, 1), Poly.constant(2, 1))
    assert products and not any(op in ones for pair in products for op in pair)


def test_degree_cap(monkeypatch):
    monkeypatch.setattr(exactpoly, "MAX_DEGREE", 8)
    f = parse_poly("x0^5", 1)
    with pytest.raises(OverflowError):
        _ = f * f


def test_degree_cap_bounds_the_product_not_the_operands(monkeypatch):
    monkeypatch.setattr(exactpoly, "MAX_DEGREE", 8)
    # The operand degrees sum to 9 > 8, but z^5 * z^-4 = z.
    assert parse_poly("z^5", 1, "z") * parse_poly("z^-4", 1, "z") == \
        parse_poly("z", 1, "z")
    # Only x0^5 * x0^4 exceeds 8; every other term pair is small.
    f = parse_poly("x0^5 + x0 + 1", 1)
    g = parse_poly("x0^4 + x0 + 2", 1)
    with pytest.raises(OverflowError):
        _ = f * g


def test_degree_cap_negative_powers(monkeypatch):
    monkeypatch.setattr(exactpoly, "MAX_DEGREE", 8)
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


# -- the checked constructor against a Fraction reference --------------------

def _reference_exact(value):
    if isinstance(value, float):
        raise ValueError(f"values must be exact, got the float {value!r}")
    try:
        return Fraction(value)
    except TypeError:
        raise ValueError(f"values must be exact, got {value!r}") from None


def _reference_fields(dim, terms):
    """(numerators, denominator) of Poly(dim, terms) by Fraction arithmetic:
    each coefficient made a Fraction, summed per exponent into a dict, and
    put over the lcm of the denominators."""
    exactpoly.check_int("dimension", dim, 0)
    clean = {}
    if terms:
        for expo, coeff in terms.items():
            e = tuple(expo)
            if len(e) != dim:
                raise ValueError(f"exponent {e} has wrong dimension (expected {dim})")
            if any(type(c) is not int for c in e):
                raise ValueError(f"exponents must be integers: {e}")
            c = _reference_exact(coeff)
            if c != 0:
                clean[e] = clean.get(e, 0) + c
                if clean[e] == 0:
                    del clean[e]
    den = math.lcm(*(c.denominator for c in clean.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in clean.items()}, den


class _Key:
    """A dict key that is not a tuple and iterates as ``expo``; each
    instance is its own key, so two of them can name one exponent."""

    def __init__(self, expo):
        self.expo = expo

    def __iter__(self):
        return iter(self.expo)

    def __repr__(self):
        return f"_Key({self.expo!r})"


_ANY_COEFF = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.booleans(), st.decimals(min_value=-3, max_value=3, places=1),
    st.sampled_from(["0", "-2", "1/3", "2/4", " 5 "]))
_BAD_COEFF = st.one_of(st.floats(-2, 2), st.sampled_from(["x", "1/0", None, 1j, [1]]))


@st.composite
def _constructor_args(draw):
    """Terms of every kind: int, Fraction, bool, Decimal and str coefficients,
    zeros, duplicate exponents under tuple, range and ``_Key`` keys (so that
    terms cancel), and now and then a bad exponent or coefficient."""
    dim = draw(st.integers(0, 3))
    expo = st.tuples(*[st.integers(-1, 1)] * dim)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        e = draw(expo)
        key = draw(st.sampled_from(["tuple", "range", "key"]))
        if key == "range" and all(b == a + 1 for a, b in zip(e, e[1:])):
            e = range(e[0], e[0] + dim) if dim else range(0)
        elif key == "key":
            e = _Key(e)
        c = draw(_ANY_COEFF)
        terms[e] = c
        if draw(st.integers(0, 3)) == 0:
            terms[_Key(tuple(e))] = -_reference_exact(c)  # cancels the term above
    if draw(st.integers(0, 5)) == 0:
        bad = draw(st.sampled_from(["dim", "bool", "float", "str"]))
        e = {"dim": (0,) * (dim + 1), "bool": (True,) * dim or (True,),
             "float": (0.0,) * dim or (0.0,), "str": "ab"}[bad]
        terms[e] = 1
    if draw(st.integers(0, 5)) == 0:
        terms[_Key((0,) * dim)] = draw(_BAD_COEFF)
    return dim, terms


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_constructor_args())
def test_constructor_matches_a_fraction_reference(case):
    """Equal numerators in equal insertion order over an equal denominator,
    or the same exception type and message."""
    dim, terms = case
    try:
        want = _reference_fields(dim, terms)
    except Exception as error:
        with pytest.raises(type(error)) as info:
            Poly(dim, terms)
        assert str(info.value) == str(error)
        return
    got = Poly(dim, terms)
    assert list(got.numerators.items()) == list(want[0].items())
    assert got.denominator == want[1]
    _assert_clean(got, dim)


def _count_fraction_arithmetic(monkeypatch):
    """Counts of Fraction constructions and additions from here on."""
    counts = {"__new__": 0, "__add__": 0, "__radd__": 0}
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        counts["__new__"] += 1
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for name in ("__add__", "__radd__"):
        def counting(a, b, name=name, op=getattr(Fraction, name)):
            counts[name] += 1
            return op(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    return counts


def test_constructor_builds_and_adds_no_fraction(monkeypatch):
    """Distinct exponents with int and Fraction coefficients cost no
    Fraction; the Fraction reference does (the control), and a duplicate
    exponent still adds."""
    terms = {(0, 1): 3, (1, 0): Fraction(1, 2), (2, 2): Fraction(-5, 3), (1, 1): -7,
             (0, 0): 0, (3, 0): Fraction(0)}
    want = {(0, 1): 18, (1, 0): 3, (2, 2): -10, (1, 1): -42}, 6
    counts = _count_fraction_arithmetic(monkeypatch)
    f = Poly(2, terms)
    assert counts == {"__new__": 0, "__add__": 0, "__radd__": 0}
    assert (dict(f.numerators), f.denominator) == want
    assert _reference_fields(2, terms) == want
    assert counts["__new__"] > 0 and counts["__radd__"] > 0
    counts.update(dict.fromkeys(counts, 0))
    g = Poly(1, {(1,): Fraction(1, 2), range(1, 2): Fraction(1, 3), _Key((1,)): 1})
    assert counts["__add__"] + counts["__radd__"] == 2
    assert (dict(g.numerators), g.denominator) == ({(1,): 11}, 6)


def test_exact_returns_a_fraction_as_it_is():
    half = Fraction(1, 2)
    assert exactpoly.exact(half) is half
    assert exactpoly.exact("1/10") == Fraction(1, 10) and exactpoly.exact(True) == 1
    assert type(exactpoly.exact(3)) is Fraction
    for bad in (0.5, float("nan"), None, 1j):
        with pytest.raises(ValueError, match="exact"):
            exactpoly.exact(bad)
    with pytest.raises(ValueError, match="Invalid literal"):
        exactpoly.exact("x")


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
@given(_TRIPLES, st.integers(0, 2), st.integers(0, 3), _COEFFS)
def test_results_keep_the_term_invariant(case, mu, n, k):
    d, f, g, _ = case
    mu %= d
    for r in (f + g, f - g, -f, f * g, f.scale(k), f.scale(0), f.scale(Fraction(-3, 2)),
              f.deriv(mu), f ** n):
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

def _reference_sum_of_products(d, pairs, k=1):
    """k * sum c * x * y over the pairs (x, y), with c = 1, or triples
    (x, y, c), from Fraction products."""
    out = {}
    for x, y, *c in pairs:
        kc = k * c[0] if c else k
        for e1, c1 in x.terms.items():
            for e2, c2 in y.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + kc * c1 * c2
    return Poly(d, out)


@st.composite
def _product_sums(draw):
    d = draw(st.integers(1, 3))
    laurent = st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * d),
        st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=4)
    polys = laurent.map(lambda terms: Poly(d, terms))
    pairs = draw(st.lists(st.tuples(polys, polys), max_size=4))
    return d, pairs, draw(st.integers(2, 16)), draw(_COEFFS)


def _plan_batch(entries, ncols):
    """The prims, denominator and plans of ``prim_products`` for entries of
    terms (n, den, x, y), (n/den) * x * y each: the numerators of each
    nonzero operand object are one prim, entry t is column t % ncols of
    plan t // ncols, and every coefficient is over the lcm D of the
    den * den(x) * den(y); a term with n = 0 keeps its key."""
    prims, index = [], {}

    def prim(x):
        if id(x) not in index:
            index[id(x)] = len(prims)
            prims.append(dict(x.numerators))
        return index[id(x)]
    terms = [t for entry in entries for t in entry]
    den = math.lcm(*(d * x.denominator * y.denominator for _, d, x, y in terms))
    plans = [{} for _ in range(0, len(entries), ncols)]
    for t, entry in enumerate(entries):
        plan = plans[t // ncols]
        for n, d, x, y in entry:
            if not x.is_zero() and not y.is_zero():
                a, b = sorted((prim(x), prim(y)))
                key = (t % ncols, a, b)
                plan[key] = plan.get(key, 0) + n * (den // (d * x.denominator * y.denominator))
    return prims, den, plans


def _entries(rows, count):
    """The first ``count`` entries of ``prim_products`` rows, row by row."""
    return [x for row in rows for x in row][:count]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_product_sums())
def test_sums_of_products_match_a_fraction_reference(case):
    """Left folds of * with + and with -, the one matrix entry that mat_mul
    computes from the same pairs, the one entry of ``prim_products`` planned
    from them, and unary - and scale of the sum, against sums of Fraction
    products; OverflowError exactly when some term pair exceeds the degree
    cap."""
    d, pairs, cap, k = case
    row, col = (tuple(x for x, _ in pairs),), tuple((y,) for _, y in pairs)
    prims, den, plans = _plan_batch([[(1, 1, x, y) for x, y in pairs]], 1)
    over = any(sum(abs(a + b) for a, b in zip(e1, e2)) > cap
               for x, y in pairs for e1 in x.numerators for e2 in y.numerators)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactpoly, "MAX_DEGREE", cap)
        if over:
            with pytest.raises(OverflowError):
                reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs, Poly.zero(d))
            with pytest.raises(OverflowError):
                reduce(lambda acc, xy: acc - xy[0] * xy[1], pairs, Poly.zero(d))
            with pytest.raises(OverflowError):
                mat_mul(row, col)
            with pytest.raises(OverflowError):
                prim_products(d, prims, den, 1, plans)
            return
        r = reduce(lambda acc, xy: acc + xy[0] * xy[1], pairs, Poly.zero(d))
        s = reduce(lambda acc, xy: acc - xy[0] * xy[1], pairs, Poly.zero(d))
        if pairs:
            assert mat_mul(row, col) == ((r,),)
        assert prim_products(d, prims, den, 1, plans) == [(r,)]
    assert r == _reference_sum_of_products(d, pairs)
    assert s == -r == _reference_sum_of_products(d, pairs, -1)
    assert r.scale(k) == _reference_sum_of_products(d, pairs, k)
    for x in (r, s, -r, r.scale(k)):
        _assert_clean(x, d)


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


# -- batched sums of products against a Fraction reference -------------------

@st.composite
def _product_batches(draw):
    """Entries over one pool of shared operands: Laurent, constant and
    single-term Polys in 1-3 variables, with coefficients either small or
    beyond 64 bits; terms with n = 0; and entries that cancel to zero."""
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from((1, 2 ** 70)))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).map(
        lambda c: c * scale)
    laurent = st.dictionaries(st.tuples(*[st.integers(-3, 3)] * d), coeffs, max_size=4)
    pool = draw(st.lists(laurent.map(lambda t: Poly(d, t)), min_size=1, max_size=5))
    single = st.tuples(*[st.integers(-2, 2)] * d).map(lambda e: Poly.monomial(e, scale))
    pool += [Poly.constant(d, draw(coeffs)), draw(single)]
    operands = st.sampled_from(pool)
    term = st.tuples(st.integers(-3, 3), st.integers(1, 4), operands, operands)
    entries = draw(st.lists(st.lists(term, max_size=5), min_size=1, max_size=6))
    for n, den, x, y in draw(st.lists(term, max_size=2)):
        entries.append([(n, den, x, y), (-n, den, y, x)])
    return d, entries, draw(st.integers(2, 12))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_product_batches())
def test_batched_sums_of_products_match_a_fraction_reference(case):
    """Every entry of ``prim_products``, with the entries laid out one, two
    or three to a row, equals its Fraction reference, on the packed path
    and on the per-pair path, each forced through ``_BITS_PER_PAIR``;
    OverflowError exactly when some term, its coefficient zero or not, has
    a term pair above the degree cap."""
    d, entries, cap = case
    over = any(sum(map(abs, (a + b for a, b in zip(e1, e2)))) > cap
               for entry in entries for _, _, x, y in entry
               for e1 in x.numerators for e2 in y.numerators)
    expected = [_reference_sum_of_products(
        d, [(x, y, Fraction(n, den)) for n, den, x, y in entry]) for entry in entries]
    for bits, ncols in itertools.product((1 << 60, 0), (1, 2, 3)):
        prims, den, plans = _plan_batch(entries, ncols)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactpoly, "MAX_DEGREE", cap)
            mp.setattr(exactpoly, "_BITS_PER_PAIR", bits)
            if over:
                with pytest.raises(OverflowError):
                    prim_products(d, prims, den, ncols, plans)
                continue
            got = prim_products(d, prims, den, ncols, iter(plans))
        assert len(got) == len(plans) and all(len(row) == ncols for row in got)
        assert _entries(got, len(entries)) == expected
        assert all(x.is_zero() for x in _entries(got, len(plans) * ncols)[len(entries):])
        for r in _entries(got, len(entries)):
            _assert_clean(r, d)


def test_sums_of_products_slot_widths_degree_cap_and_argument_checks(monkeypatch):
    """Slots of 8, 16, 32, 64 and 128 bits on the packed path of
    ``prim_products``, chosen by the coefficient bound and wide enough for
    a coefficient at the bound; a zero coefficient does not spare a pair
    above the cap; prims of another dimension, inexact or bool
    coefficients and a denominator that is not an int > 0 raise
    ValueError."""
    z = parse_poly("z", 1, "z")
    widths = []
    unpack = exactpoly._unpack

    def logged(total, width, exponents):
        widths.append(width)
        return unpack(total, width, exponents)

    def products(*entries):
        prims, den, plans = _plan_batch(entries, 1)
        return _entries(prim_products(1, prims, den, 1, plans), len(entries))
    monkeypatch.setattr(exactpoly, "_unpack", logged)
    monkeypatch.setattr(exactpoly, "_BITS_PER_PAIR", 1 << 60)
    for k in (1, 2 ** 10, 2 ** 20, 2 ** 40, 2 ** 80):
        x = z.scale(k) - Poly.constant(1, 1)
        y = parse_poly("z^-2 - 1", 1, "z")
        assert (products([(1, 1, x, y)], [(3, 2, y, y)])
                == [x * y, (y * y).scale(Fraction(3, 2))])
    assert widths == [w for w in (8, 16, 32, 64, 128) for _ in range(2)]
    one = Poly.constant(1, 1)
    for k in (7, 15, 31, 63):  # a coefficient of +-2^k at the bound: k + 2 bits
        c = Poly.constant(1, 2 ** k)
        assert products([(1, 1, c, one)], [(-1, 1, c, one)]) == [c, -c]
    assert widths[10:] == [w for w in (16, 32, 64, 128) for _ in range(2)]
    monkeypatch.setattr(exactpoly, "MAX_DEGREE", 3)
    w = parse_poly("z^2", 1, "z")
    assert products([(1, 1, w, z)]) == [w * z]
    with pytest.raises(OverflowError):
        products([(1, 1, w, z)], [(0, 1, w, w)])
    with pytest.raises(ValueError, match="dimension"):
        prim_products(1, [{(1,): 1}, {(1, 0): 1}], 1, 1, [{(0, 0, 1): 1}])
    for c in (0.5, Fraction(1, 2), True):
        with pytest.raises(ValueError, match="coefficients must be ints"):
            prim_products(1, [{(1,): 1}], 1, 1, [{(0, 0, 0): c}])
    for den in (0, -1, 2.0, Fraction(2), True):
        with pytest.raises(ValueError, match="denominator must be an int > 0"):
            prim_products(1, [{(1,): 1}], den, 1, [{(0, 0, 0): 1}])


def test_sums_of_products_pack_only_batches_dense_in_their_layout(monkeypatch):
    """``prim_products`` packs when its distinct products have at least
    slots * width / ``_BITS_PER_PAIR`` term pairs on average; two far-apart
    monomials are multiplied term pair by term pair instead, and only a
    packed entry is unpacked."""
    paths = []
    num_mul, unpack = exactpoly._num_mul, exactpoly._unpack

    def logged_mul(a, b, one_var):
        paths.append("pairs")
        return num_mul(a, b, one_var)

    def logged_unpack(total, width, exponents):
        paths.append("packed")
        return unpack(total, width, exponents)
    sparse = parse_poly("z^40", 1, "z"), parse_poly("z^-40 + 1", 1, "z")
    dense = (parse_poly(" + ".join(f"z^{j}" for j in range(10)), 1, "z"),) * 2
    cases = [(_plan_batch([[(1, 1, x, y)]], 1), x * y) for x, y in (sparse, dense)]
    monkeypatch.setattr(exactpoly, "_num_mul", logged_mul)
    monkeypatch.setattr(exactpoly, "_unpack", logged_unpack)
    for (prims, den, plans), xy in cases:
        assert prim_products(1, prims, den, 1, plans) == [(xy,)]
    assert paths == ["pairs", "packed"]
