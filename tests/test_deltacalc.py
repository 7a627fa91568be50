import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir import deltacalc, verify
from jetvir.deltacalc import (
    DerivSpec,
    SmearMode,
    Which,
    delta_pair_closed,
    delta_pair_integral,
)
from jetvir.exactpoly import Poly, parse_poly
from jetvir.jetsums import SumKind, sum_closed
from jetvir.multiindex import enumerate_indices, unit

PLAIN = (SmearMode.PLAIN, SmearMode.PLAIN)
SHIFT_PLAIN = (SmearMode.SHIFTED, SmearMode.PLAIN)
SHIFT_SHIFT = (SmearMode.SHIFTED, SmearMode.SHIFTED)


def constant_term(f):
    """f(0), the coefficient of x^0."""
    return f.coeff((0,) * f.dim)


def shift_to_zero(f):
    """f minus its value at the origin (the shifted smearing function)."""
    return f - Poly.constant(f.dim, constant_term(f))


def _rand_poly(d, deg, rng):
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < 0.6:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(d, terms)


def test_pair_integral_examples():
    one = Poly.constant(1, 1)
    x = parse_poly("x0", 1)
    assert delta_pair_integral(one, one, DerivSpec.none(), DerivSpec.none(),
                               PLAIN, 1, 2) == 3
    assert delta_pair_integral(x, one, DerivSpec.on_x(0), DerivSpec.none(),
                               SHIFT_PLAIN, 1, 2) == 3
    assert delta_pair_integral(x, x, DerivSpec.on_x(0), DerivSpec.on_y(0),
                               SHIFT_SHIFT, 1, 1) == 1


def test_pair_closed_examples():
    assert delta_pair_closed("i", Poly.constant(2, 2), Poly.constant(2, 3),
                             None, None, 2, 1) == 18
    assert delta_pair_closed("ii", parse_poly("x0", 2), Poly.constant(2, 1),
                             0, None, 2, 2) == 4
    assert delta_pair_closed("iii", parse_poly("x1", 2), parse_poly("x0", 2),
                             0, 1, 2, 2) == 5


def test_oracle_matches_closed_forms():
    rng = random.Random(42)
    for d in (1, 2, 3):
        for p in (0, 2, 4):
            for _ in range(3):
                f = _rand_poly(d, p + 2, rng)
                g = _rand_poly(d, p + 2, rng)
                assert delta_pair_integral(
                    f, g, DerivSpec.none(), DerivSpec.none(), PLAIN, d, p
                ) == delta_pair_closed("i", f, g, None, None, d, p)
                for mu in range(d):
                    assert delta_pair_integral(
                        f, g, DerivSpec.on_x(mu), DerivSpec.none(),
                        SHIFT_PLAIN, d, p
                    ) == delta_pair_closed("ii", f, g, mu, None, d, p)
                    for nu in range(d):
                        assert delta_pair_integral(
                            f, g, DerivSpec.on_x(mu), DerivSpec.on_y(nu),
                            SHIFT_SHIFT, d, p
                        ) == delta_pair_closed("iii", f, g, mu, nu, d, p)


def test_kernel_asymmetry():
    # Swapping the derivative decoration between the two kernel factors
    # changes the value: the kernel is not symmetric in its arguments.
    f = Poly.constant(1, 1)
    g = parse_poly("x0", 1)
    a = delta_pair_integral(f, g, DerivSpec.on_x(0), DerivSpec.none(),
                            PLAIN, 1, 2)
    b = delta_pair_integral(f, g, DerivSpec.none(), DerivSpec.on_x(0),
                            PLAIN, 1, 2)
    assert a == 3 and b == -3


def test_shifted_slot_kills_constant():
    one = Poly.constant(1, 1)
    g = parse_poly("1 + x0", 1)
    assert delta_pair_integral(one, g, DerivSpec.on_x(0), DerivSpec.none(),
                               SHIFT_PLAIN, 1, 3) == 0
    assert delta_pair_closed("ii", one, g, 0, None, 1, 3) == 0


def test_shift_to_zero():
    f = parse_poly("3 + x0", 1)
    assert shift_to_zero(f) == parse_poly("x0", 1)


def _factorial(m):
    """m! = m0! * m1! * ... (empty product is 1)."""
    return math.prod(map(math.factorial, m))


def _reference_kernel_terms(d, p, deriv, poly_is_x):
    """Every term (coeff, exponent, word) of one decorated kernel factor."""
    hits_poly = deriv.which is not Which.NONE and (deriv.which is Which.ON_X) == poly_is_x
    hits_delta = deriv.which is not Which.NONE and not hits_poly
    out = []
    for m in enumerate_indices(d, p):
        coeff = Fraction((-1) ** sum(m), _factorial(m))
        expo = word = m
        if hits_poly:
            mu = deriv.direction
            if m[mu] == 0:
                continue
            coeff *= m[mu]
            expo = m[:mu] + (m[mu] - 1,) + m[mu + 1:]
        elif hits_delta:
            word = tuple(c + (i == deriv.direction) for i, c in enumerate(m))
        out.append((coeff, expo, word))
    return out


def _reference_pair_against_delta(f, expo, word):
    diff = tuple(w - e for w, e in zip(word, expo))
    if any(c < 0 for c in diff):
        return Fraction(0)
    return (-1) ** sum(word) * _factorial(word) * f.coeff(diff)


def _reference_pair_integral(f, g, d1, d2, modes, d, p):
    """The oracle as a plain loop over all N^2 pairs of kernel terms."""
    ff = shift_to_zero(f) if modes[0] is SmearMode.SHIFTED else f
    gg = shift_to_zero(g) if modes[1] is SmearMode.SHIFTED else g
    total = Fraction(0)
    for c1, e1, w1 in _reference_kernel_terms(d, p, d1, poly_is_x=True):
        for c2, e2, w2 in _reference_kernel_terms(d, p, d2, poly_is_x=False):
            total += (c1 * c2 * _reference_pair_against_delta(ff, e1, w2)
                      * _reference_pair_against_delta(gg, e2, w1))
    return total


@st.composite
def _pair_cases(draw):
    d = draw(st.integers(1, 3))
    p = draw(st.integers(0, 4))
    rng = draw(st.randoms(use_true_random=False))

    def deriv():
        return draw(st.sampled_from([
            DerivSpec.none(),
            *(DerivSpec.on_x(mu) for mu in range(d)),
            *(DerivSpec.on_y(mu) for mu in range(d))]))

    def field():
        f = _rand_poly(d, p + 2, rng)
        if draw(st.booleans()):
            expo = tuple(draw(st.integers(-2, 2)) for _ in range(d - 1))
            expo = expo + (draw(st.integers(-2, -1)),)
            f = f + Poly.monomial(expo, draw(st.integers(1, 4)))
        return f

    modes = tuple(draw(st.sampled_from(SmearMode)) for _ in range(2))
    return field(), field(), deriv(), deriv(), modes, d, p


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_pair_cases())
def test_pair_integral_equals_reference_loop(case):
    assert delta_pair_integral(*case) == _reference_pair_integral(*case)


def test_pair_integral_laurent_terms_never_reach_a_word():
    one = Poly.constant(1, 1)
    inv = parse_poly("x0^-1", 1)
    assert delta_pair_integral(inv, one, DerivSpec.none(), DerivSpec.none(),
                               PLAIN, 1, 2) == 0
    assert delta_pair_integral(one, inv, DerivSpec.none(), DerivSpec.none(),
                               PLAIN, 1, 2) == 0
    assert delta_pair_integral(inv + parse_poly("x0", 1), one, DerivSpec.on_x(0),
                               DerivSpec.none(), PLAIN, 1, 2) == 3
    # x^-1 against x (either way round) is where a shifted word would land
    # on a term of the other function if negative exponents were paired.
    x = parse_poly("x0", 1)
    assert delta_pair_integral(inv, x, DerivSpec.none(), DerivSpec.none(),
                               PLAIN, 1, 2) == 0
    assert delta_pair_integral(x, inv, DerivSpec.none(), DerivSpec.none(),
                               PLAIN, 1, 2) == 0


def test_bool_grid_raises_after_the_caches_are_primed():
    # True == 1 hashes like 1, so a cache keyed by (d, p) must not be
    # consulted before the grid check.
    one = Poly.constant(1, 1)
    none = DerivSpec.none()
    assert delta_pair_integral(one, one, none, none, PLAIN, 1, 2) == 3
    assert delta_pair_integral(one, one, none, none, PLAIN, 1, 1) == 2
    with pytest.raises(ValueError, match="dimension must be"):
        delta_pair_integral(one, one, none, none, PLAIN, True, 2)
    with pytest.raises(ValueError, match="jet order must be"):
        delta_pair_integral(one, one, none, none, PLAIN, 1, True)
    # The table keyed by (d, p, D1, D2) is primed for on_x(1); on_x(True)
    # finds that entry unless the direction is checked first.
    x = parse_poly("x0 + x1", 2)
    assert delta_pair_integral(x, x, DerivSpec.on_x(1), none, SHIFT_PLAIN, 2, 2) == 0
    assert (deltacalc._pair_table(2, 2, DerivSpec.on_x(True), none)
            is deltacalc._pair_table(2, 2, DerivSpec.on_x(1), none))
    with pytest.raises(ValueError, match="derivative direction"):
        delta_pair_integral(x, x, DerivSpec.on_x(True), none, SHIFT_PLAIN, 2, 2)


def _all_derivs(d):
    return [DerivSpec.none(), *(DerivSpec.on_x(mu) for mu in range(d)),
            *(DerivSpec.on_y(mu) for mu in range(d))]


def _decode(code, d, p):
    """The multi-index of a lattice code: its d digits in radix p + 3."""
    digits = []
    for _ in range(d):
        code, digit = divmod(code, p + 3)
        digits.append(digit)
    return tuple(reversed(digits))


def _word_map(d, p, deriv, poly_is_x):
    """One coded kernel expansion decoded to word -> (coefficient, exponent)."""
    (coeffs, expos, words), _ = deltacalc._kernel_terms(d, p, deriv, poly_is_x)
    assert len(coeffs) == len(expos) == len(words) == len(set(words))
    return {_decode(w, d, p): (c, _decode(e, d, p)) for c, e, w in zip(coeffs, expos, words)}


def test_kernel_terms_share_one_lift():
    """Every term (word w, exponent e) of a kernel expansion has w - e equal
    to the returned lift, e_mu for a decorated factor and 0 otherwise, and
    the terms are the reference expansion's with the pairing factor."""
    for d in range(1, 5):
        for p in range(6):
            for deriv in _all_derivs(d):
                for poly_is_x in (True, False):
                    lift = deltacalc._kernel_terms(d, p, deriv, poly_is_x)[1]
                    expected = ((0,) * d if deriv.which is Which.NONE
                                else unit(d, deriv.direction))
                    assert lift == expected, (d, p, deriv, poly_is_x)
                    terms = _word_map(d, p, deriv, poly_is_x)
                    for w, (_, e) in terms.items():
                        assert tuple(a - b for a, b in zip(w, e)) == lift
                    reference = {w: (c * (-1) ** sum(w) * _factorial(w), e)
                                 for c, e, w in _reference_kernel_terms(d, p, deriv, poly_is_x)}
                    assert terms == reference


@pytest.fixture
def fresh_tables():
    """Empty the kernel and pair-table caches before and after the test."""
    deltacalc._kernel_terms.cache_clear()
    deltacalc._pair_table.cache_clear()
    yield
    deltacalc._kernel_terms.cache_clear()
    deltacalc._pair_table.cache_clear()


@pytest.mark.parametrize("offset,aliases", [(1, True), (2, False)])
def test_a_radix_that_carries_breaks_the_oracle(monkeypatch, fresh_tables, offset, aliases):
    """Negative control for the radix: codes in radix p + 1 carry, so a word
    with a component p + 1 takes the code of another multi-index, and the
    oracle disagrees with the reference loop somewhere at d >= 2.  Radix
    p + 2 still agrees: its one carry, from an exponent p e_mu plus the box
    point 2 e_mu, lands on a point with no mu component, which no word of a
    factor decorated at mu has.  Both factors' decorations target the delta
    variable (on_y on the first, on_x on the second)."""
    def codes(d, p):
        radix = p + offset
        return (tuple(radix ** (d - 1 - i) for i in range(d)),
                tuple(sum(c * radix ** (d - 1 - i) for i, c in enumerate(m))
                      for m in enumerate_indices(d, p)))
    monkeypatch.setattr(deltacalc, "_codes", codes)
    rng = random.Random(31)
    wrong = set()
    for d, p in ((1, 2), (2, 0), (2, 2), (3, 1)):
        f, g = _dense_field(d, p, rng), _dense_field(d, p, rng)
        for mu, nu in itertools.product(range(d), repeat=2):
            case = (f, g, DerivSpec.on_y(mu), DerivSpec.on_x(nu), PLAIN, d, p)
            if delta_pair_integral(*case) != _reference_pair_integral(*case):
                wrong.add(d)
    assert wrong == ({2, 3} if aliases else set())


def test_rows_are_built_only_in_the_box_and_once(monkeypatch):
    """Fields with many negative and high exponents: each decoration pair
    has at most prod(Delta_i + 1) <= 4 pairs (s, Delta - s), each weight is
    built at most once, and only for an s where the call read both f_s and
    g_{Delta-s} and skipped neither as a shifted constant term."""
    deltacalc._pair_table.cache_clear()
    walks = []
    weight = deltacalc._weight

    def counting_weight(first, second, s):
        walks.append((current, id(first), id(second), s))
        return weight(first, second, s)
    monkeypatch.setattr(deltacalc, "_weight", counting_weight)
    rng = random.Random(20)
    cases = []
    for d, p in ((1, 3), (2, 2), (3, 2), (4, 1)):
        for _ in range(3):
            f, g = (Poly(d, {tuple(rng.randint(-3, p + 3) for _ in range(d)):
                             Fraction(rng.randint(1, 5), rng.randint(1, 4))
                             for _ in range(30)}) for _ in range(2))
            cases += [(f, g, d1, d2, modes, d, p) for d1 in _all_derivs(d)
                      for d2 in _all_derivs(d)
                      for modes in itertools.product(SmearMode, repeat=2)]
    for current in cases:
        assert delta_pair_integral(*current) == _reference_pair_integral(*current)
    assert walks and len({walk[1:] for walk in walks}) == len(walks)
    for key in {(case[5], case[6], case[2], case[3]) for case in cases}:
        first, second, pairs, weights = deltacalc._pair_table(*key)
        lift = pairs[0][1]
        assert all(tuple(map(sum, zip(s, t))) == lift for s, t in pairs)
        assert len(weights) <= len(pairs) == math.prod(b + 1 for b in lift) <= 4
    for (f, g, d1, d2, modes, d, p), _, _, s in walks:
        t = dict(deltacalc._pair_table(d, p, d1, d2)[2])[s]
        assert s in f.numerators and t in g.numerators, (s, t)
        assert not (modes[0] is SmearMode.SHIFTED and not any(s))
        assert not (modes[1] is SmearMode.SHIFTED and not any(t))


def test_no_weight_is_built_where_g_has_no_partner_term():
    """f = x0 meets the first factor's lift e_0 at s = e_0, whose partner
    g_0 does not exist, so the integral is 0 without a weight being built."""
    deltacalc._pair_table.cache_clear()
    x, g = parse_poly("x0", 1), parse_poly("x0^2 + x0^3", 1)
    assert delta_pair_integral(x, g, DerivSpec.on_x(0), DerivSpec.none(),
                               PLAIN, 1, 3) == 0
    assert deltacalc._pair_table(1, 3, DerivSpec.on_x(0), DerivSpec.none())[3] == {}


def _reference_row(first, second, s):
    """The row t -> W(s, t) as a dict over every term pair, t read off each
    pair, the walk that kept one dict entry per t."""
    row = {}
    for w1, (c1, e1) in first.items():
        hit = second.get(tuple(map(sum, zip(e1, s))))
        if hit is not None:
            c2, e2 = hit
            t = tuple(a - b for a, b in zip(w1, e2))
            if min(t) >= 0:
                row[t] = row.get(t, 0) + c1 * c2
    return {t: w for t, w in row.items() if w}


def test_each_row_is_one_weight_at_delta_minus_s():
    """After integrals of dense fields at every decoration pair and smear
    modes, every weight w held in a memo is the whole row a dict over every
    term pair gives: {Delta - s: w}, or {} when w = 0."""
    deltacalc._pair_table.cache_clear()
    rng = random.Random(23)
    keys = []
    for d, p in ((1, 0), (1, 4), (2, 3), (3, 2)):
        f, g = _dense_field(d, p, rng), _dense_field(d, p, rng)
        for d1, d2 in itertools.product(_all_derivs(d), repeat=2):
            for modes in itertools.product(SmearMode, repeat=2):
                delta_pair_integral(f, g, d1, d2, modes, d, p)
            keys.append((d, p, d1, d2))
    held = 0
    for d, p, d1, d2 in keys:
        _, _, pairs, weights = deltacalc._pair_table(d, p, d1, d2)
        first, second = _word_map(d, p, d1, True), _word_map(d, p, d2, False)
        for s, w in weights.items():
            held += 1
            expected = {dict(pairs)[s]: w} if w else {}
            assert _reference_row(first, second, s) == expected, (d, p, d1, d2, s)
    assert held >= len(keys)


def _dense_field(d, p, rng):
    """Every monomial of degree <= p + 2 with a nonzero coefficient, plus one
    Laurent term."""
    terms = {e: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
             for e in enumerate_indices(d, p + 2)}
    terms[(0,) * (d - 1) + (-1,)] = Fraction(rng.randint(1, 4))
    return Poly(d, terms)


def test_pair_integral_equals_reference_loop_on_the_whole_grid():
    """Every decoration pair and smear-mode pair at every d <= 2, p <= 4 and
    at (3, 2), on dense fields; the grid is walked forward, then in reverse
    against the same reference values, so a row cached under a wrong key
    shows up in one order or the other."""
    rng = random.Random(14)
    cases = []
    for d, p in [(d, p) for d in (1, 2) for p in range(5)] + [(3, 2)]:
        f, g = _dense_field(d, p, rng), _dense_field(d, p, rng)
        derivs = [DerivSpec.none(), *(DerivSpec.on_x(mu) for mu in range(d)),
                  *(DerivSpec.on_y(mu) for mu in range(d))]
        cases += [(f, g, d1, d2, modes, d, p) for d1 in derivs for d2 in derivs
                  for modes in itertools.product(SmearMode, repeat=2)]
    expected = [_reference_pair_integral(*case) for case in cases]
    assert any(expected) and not all(expected)
    for order in (range(len(cases)), reversed(range(len(cases)))):
        for i in order:
            assert delta_pair_integral(*cases[i]) == expected[i], cases[i][2:]


def _reference_pair_closed(case, f, g, mu, nu, d, p):
    """The closed forms read through constant_term(Poly.deriv(...))."""
    if case == "i":
        return sum_closed(SumKind.A, d, p) * constant_term(f) * constant_term(g)
    if case == "ii":
        return sum_closed(SumKind.B, d, p, mu) * constant_term(f.deriv(mu)) * constant_term(g)
    f_mu, f_nu = constant_term(f.deriv(mu)), constant_term(f.deriv(nu))
    g_mu, g_nu = constant_term(g.deriv(mu)), constant_term(g.deriv(nu))
    if mu == nu:
        return sum_closed(SumKind.C, d, p, mu) * f_mu * g_mu
    return (sum_closed(SumKind.E, d, p, mu, nu) * f_nu * g_mu
            + sum_closed(SumKind.D, d, p, mu, nu) * f_mu * g_nu)


@st.composite
def _closed_cases(draw):
    """Fields with denominators and Laurent terms (exponents -2..2, so
    x^{e_mu} and its neighbours such as x_mu^-1 x_nu occur); half the drawn
    exponents are 0 or a unit, the ones the closed forms read."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(0, 4))
    read = [(0,) * d] + [unit(d, mu) for mu in range(d)]
    exponents = st.sampled_from(list(itertools.product(range(-2, 3), repeat=d)))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    field = st.dictionaries(st.sampled_from(read) | exponents, coeff, max_size=12)
    f, g = (Poly(d, draw(field)) for _ in range(2))
    return f, g, d, p


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_closed_cases())
def test_pair_closed_equals_the_derivative_reading(case):
    """All three cases at every direction (pair) on each drawn field pair."""
    f, g, d, p = case
    calls = [("i", None, None)] + [("ii", mu, None) for mu in range(d)]
    calls += [("iii", mu, nu) for mu in range(d) for nu in range(d)]
    for which, mu, nu in calls:
        args = (which, f, g, mu, nu, d, p)
        assert delta_pair_closed(*args) == _reference_pair_closed(*args), args[0::3]


def test_pair_closed_builds_no_derivative(monkeypatch):
    def deriv(self, mu):
        raise AssertionError("delta_pair_closed called Poly.deriv")
    monkeypatch.setattr(Poly, "deriv", deriv)
    # d_1 of the Laurent term x0^-1 x1 is x0^-1, which has no constant term.
    f = Poly(2, {(0, 0): Fraction(1, 2), (1, 0): 3, (0, 1): Fraction(-2, 3), (-1, 1): 1})
    g = parse_poly("-1 + 5/4 * x0 + x1^2", 2)
    assert delta_pair_closed("i", f, g, None, None, 2, 2) == -3
    assert delta_pair_closed("ii", f, g, 1, None, 2, 2) == Fraction(8, 3)
    assert delta_pair_closed("iii", f, g, 0, 1, 2, 2) == Fraction(-25, 6)
    assert delta_pair_closed("iii", f, g, 0, 0, 2, 2) == Fraction(45, 2)


@pytest.mark.parametrize("bad", [True, False, 1.0, None, -1, 2])
def test_pair_closed_directions_must_be_ints_in_range(bad):
    f = parse_poly("x0 + x1", 2)
    with pytest.raises(ValueError, match="case ii needs"):
        delta_pair_closed("ii", f, f, bad, None, 2, 2)
    for mu, nu in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match="case iii needs"):
            delta_pair_closed("iii", f, f, mu, nu, 2, 2)


def test_bool_direction_raises_after_the_caches_are_primed():
    # DerivSpec.on_x(True) == DerivSpec.on_x(1) and hashes like it, so the
    # kernel caches must not be consulted before the direction check.
    x = parse_poly("x0 + x1", 2)
    plain = DerivSpec.none()
    assert delta_pair_integral(x, x, DerivSpec.on_x(1), plain, SHIFT_PLAIN, 2, 2) == 0
    assert delta_pair_integral(x, x, plain, DerivSpec.on_y(1), PLAIN, 2, 2) == 0
    for d1, d2 in ((DerivSpec.on_x(True), plain), (plain, DerivSpec.on_y(True)),
                   (DerivSpec.on_x(1.0), plain), (plain, DerivSpec.on_x(2))):
        with pytest.raises(ValueError, match="derivative direction"):
            delta_pair_integral(x, x, d1, d2, PLAIN, 2, 2)


@pytest.mark.parametrize("case,at,witness", [
    ("i", (None, None), "case i at d=1, p=0"),
    ("ii", (0, None), "case ii at d=1, p=0, mu=0"),
    ("iii", (0, 1), "case iii at d=2, p=0, mu=0, nu=1"),
])
def test_suite_delta_names_the_first_failing_case(monkeypatch, case, at, witness):
    """A closed form made off by one in one case (at one mu, or one
    (mu, nu)) fails the delta suite, whose first witness names it; the
    suite still makes all 2,300 checks."""
    closed = deltacalc.delta_pair_closed

    def off_by_one(which, f, g, mu, nu, d, p):
        value = closed(which, f, g, mu, nu, d, p)
        return value + 1 if (which, mu, nu) == (case, *at) else value
    monkeypatch.setattr(deltacalc, "delta_pair_closed", off_by_one)
    res = verify.suite_delta(0, 3, 4, False)
    assert res.checks == 2300 and res.failures[0] == witness
