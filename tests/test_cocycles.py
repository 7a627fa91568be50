import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir import cocycles, exactpoly
from jetvir.cocycles import (
    Trajectory,
    _product_residue,
    affine_cocycle,
    compose,
    density_action,
    divergence,
    mixed_cocycle,
    reparam_current_cocycle,
    reparam_reparam_cocycle,
    reparam_vector_cocycle,
    residue,
    virasoro_cocycle,
)
from jetvir.exactpoly import Poly, parse_poly
from jetvir.jetreps import StructureConstants, vector_field_bracket
from jetvir.multiindex import enumerate_indices


def _z(text):
    return parse_poly(text, 1, "z")


def _rand_poly(d, deg, rng):
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < 0.6:
            terms[e] = Fraction(rng.randint(-4, 4))
    return Poly(d, terms)


def _rand_traj(d, rng):
    comps = []
    for _ in range(d):
        terms = {(k,): Fraction(rng.randint(-3, 3))
                 for k in range(-2, 3) if rng.random() < 0.7}
        comps.append(Poly(1, terms) if terms else Poly.monomial((1,)))
    return Trajectory(tuple(comps))


def test_brackets():
    x = parse_poly("x0", 1)
    x2 = parse_poly("x0^2", 1)
    assert vector_field_bracket([x2], [x]) == [parse_poly("0 - x0^2", 1)]
    sc = StructureConstants.epsilon()
    X = [x, Poly.zero(1), Poly.zero(1)]
    Y = [Poly.zero(1), x, Poly.zero(1)]
    assert sc.bracket_components(X, Y) == [Poly.zero(1), Poly.zero(1), x2]
    assert density_action([Poly.constant(1, 2)], [Poly.constant(1, 3)]) == \
        [Poly.zero(1)]
    assert density_action([x], [Poly.constant(1, 1)]) == [Poly.constant(1, 1)]


def test_density_action_rejects_a_vector_field_with_missing_components():
    x0 = parse_poly("x0", 2)
    with pytest.raises(ValueError, match="vector field"):
        density_action([x0], [x0])
    with pytest.raises(ValueError, match="vector field"):
        density_action([], [x0])
    assert density_action([x0, Poly.zero(2)], [x0]) == [parse_poly("2 x0", 2)]


def test_residue_and_compose():
    assert residue(_z("3 z^-1 + z + 5")) == 3
    q = Trajectory((_z("z + z^2"),))
    assert compose(parse_poly("x0^2", 1), q) == _z("z^2 + 2 z^3 + z^4")


def test_trivial_vanishing():
    x = parse_poly("x0", 1)
    x2 = parse_poly("x0^2", 1)
    still = Trajectory((Poly.constant(1, 5),))
    assert virasoro_cocycle([x2], [x], still, 1, 1) == 0
    assert affine_cocycle([x], [x], still, 1, 1) == 0
    assert mixed_cocycle([x2], [x], still, 1) == 0
    loop = Trajectory((_z("z^-1"),))
    assert virasoro_cocycle([Poly.constant(1, 1)], [x2], loop, 1, 1) == 0


def test_monomial_pattern():
    for m in range(-4, 5):
        f = Poly.monomial((m + 1,))
        g = Poly.monomial((-m + 1,))
        assert reparam_reparam_cocycle(f, g, 12) == m ** 3 - m


def test_reparam_cross_terms():
    # f = z^2: f'' = 2; divergence of xi = x d_x composed with q = z^-1 is 1
    f = _z("z^2")
    q = Trajectory((_z("z^-1"),))
    assert reparam_vector_cocycle(f, [parse_poly("x0", 1)], q, 6) == 0
    # pick q so that div xi (q) = z^-1: xi = x d_x has div 1... use quadratic
    xi = [parse_poly("1/2 * x0^2", 1)]
    assert reparam_vector_cocycle(f, xi, q, 6) == -6
    X = [parse_poly("x0", 1)]
    assert reparam_current_cocycle(f, X, q, 6) == -6


def test_affine_level_reduction():
    # along q(z) = z the residue computes the winding pairing of the modes:
    # X = x, Y = x^{-1} (Laurent mode) has X'(q) Y(q) = z^{-1}
    q = Trajectory((_z("z"),))
    X = [parse_poly("x0", 1)]
    Y = [Poly.monomial((-1,))]
    assert affine_cocycle(X, Y, q, Fraction(7), 0) == 7


def test_the_algebras_on_the_circle():
    """At d = 1 on the loop q = z the mode generators x^(m+1) d_x and x^m
    give the Virasoro cocycle (c1 + c2)(m^3 - m) and the affine levels
    c5 + c8 (direction 0) and c5 (any other direction), each at m + n = 0
    and 0 otherwise."""
    q = Trajectory((_z("z"),))
    c1, c2, c5, c8 = Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 5)
    zero = Poly.zero(1)

    def x(k):
        return Poly.monomial((k,))

    for m, n in itertools.product(range(-4, 5), repeat=2):
        on = m + n == 0
        assert virasoro_cocycle([x(m + 1)], [x(n + 1)], q, c1, c2) == \
            on * (c1 + c2) * (m ** 3 - m), (m, n)
        assert affine_cocycle([x(m)], [x(n)], q, c5, c8) == on * (c5 + c8) * m, (m, n)
        assert affine_cocycle([zero, x(m)], [zero, x(n)], q, c5, c8) == on * c5 * m, (m, n)


def test_antisymmetry_random():
    rng = random.Random(9)
    c1, c2, c5, c8 = Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 5)
    for _ in range(10):
        for d in (1, 2):
            q = _rand_traj(d, rng)
            xi = [_rand_poly(d, 2, rng) for _ in range(d)]
            eta = [_rand_poly(d, 2, rng) for _ in range(d)]
            assert virasoro_cocycle(xi, eta, q, c1, c2) \
                + virasoro_cocycle(eta, xi, q, c1, c2) == 0
            X = [_rand_poly(d, 2, rng) for _ in range(2)]
            Y = [_rand_poly(d, 2, rng) for _ in range(2)]
            assert affine_cocycle(X, Y, q, c5, c8) + affine_cocycle(Y, X, q, c5, c8) == 0


def test_bilinearity():
    rng = random.Random(10)
    d = 2
    q = _rand_traj(d, rng)
    xi1 = [_rand_poly(d, 2, rng) for _ in range(d)]
    xi2 = [_rand_poly(d, 2, rng) for _ in range(d)]
    eta = [_rand_poly(d, 2, rng) for _ in range(d)]
    combo = [xi1[mu].scale(3) + xi2[mu].scale(Fraction(-1, 2)) for mu in range(d)]
    assert virasoro_cocycle(combo, eta, q, 1, 2) == \
        3 * virasoro_cocycle(xi1, eta, q, 1, 2) \
        - Fraction(1, 2) * virasoro_cocycle(xi2, eta, q, 1, 2)


# -- bad input ---------------------------------------------------------------

def test_field_component_count_is_checked():
    x, z = parse_poly("x0", 1), _z("z")
    q = Trajectory((z,))
    q2 = Trajectory((_z("z^-1 + z"), _z("z^-1")))
    with pytest.raises(ValueError):
        affine_cocycle([], [], q, 1, 1)
    with pytest.raises(ValueError):
        affine_cocycle([x], [x, x], q, 1, 1)
    with pytest.raises(ValueError):
        mixed_cocycle([x], [], q, 1)
    with pytest.raises(ValueError):
        mixed_cocycle([parse_poly("x0^2*x1", 2)], [parse_poly("x0", 2)], q2, 3)
    with pytest.raises(ValueError):
        reparam_vector_cocycle(_z("z^2"), [parse_poly("x0^2", 2)],
                               Trajectory((_z("z^-1"), z)), 2)
    with pytest.raises(ValueError):
        reparam_current_cocycle(_z("z^2"), [], q, 2)
    with pytest.raises(ValueError):
        virasoro_cocycle([x], [x, x], q, 1, 1)


def test_field_variable_count_is_checked():
    x2 = parse_poly("x0", 2)
    q = Trajectory((_z("z"),))
    with pytest.raises(ValueError):
        virasoro_cocycle([x2], [x2], q, 1, 1)
    with pytest.raises(ValueError):
        affine_cocycle([x2], [x2], q, 1, 1)
    with pytest.raises(ValueError):
        mixed_cocycle([parse_poly("x0", 1)], [x2], q, 1)
    with pytest.raises(ValueError):
        reparam_current_cocycle(_z("z^2"), [x2], q, 1)
    with pytest.raises(ValueError):
        reparam_reparam_cocycle(_z("z^2"), x2, 1)


def test_float_charges_are_rejected():
    q = Trajectory((_z("z"),))
    x = parse_poly("x0", 1)
    with pytest.raises(ValueError, match="exact"):
        affine_cocycle([x], [Poly.monomial((-1,))], q, 0.1, 0)
    with pytest.raises(ValueError, match="exact"):
        reparam_reparam_cocycle(_z("z^3"), _z("z^-1"), 0.1)
    with pytest.raises(ValueError, match="exact"):
        virasoro_cocycle([x], [x], q, 1, 0.5)
    with pytest.raises(ValueError, match="exact"):
        mixed_cocycle([x], [x], q, 0.5)
    with pytest.raises(ValueError, match="exact"):
        reparam_vector_cocycle(_z("z^2"), [x], q, 0.5)
    with pytest.raises(ValueError, match="exact"):
        reparam_current_cocycle(_z("z^2"), [x], q, 0.5)


# -- differential test against per-function integration loops -----------------
# Each reference integrates its extension term with its own loop, without
# the shared 1-form integrator, so that both sides are computed independently.
# A reference builds omega_rho for every rho, composes it only where q'^rho is
# nonzero, and reads res q'^rho omega_rho(q) off the two factors, so that it
# builds no product the library does not test against the degree cap.

def _two_factor_residue(v, w):
    """res (v w) = sum_k v_k w_(-1-k), from the coefficients of v and w."""
    return sum((c * w.coeff((-1 - k,)) for (k,), c in v.terms.items()), Fraction(0))


def _pullback(omega, q):
    """sum_rho res q'^rho omega[rho](q), each omega[rho] built before any is
    composed."""
    return sum((_two_factor_residue(v, compose(w, q))
                for v, w in zip(q.velocity(), omega) if not v.is_zero()), Fraction(0))


def _reference_virasoro(xi, eta, q, c1, c2):
    d = q.d
    div_xi = divergence(xi)
    div_eta = divergence(eta)
    omega = []
    for rho in range(d):
        chain = Poly.zero(xi[0].dim)
        for mu in range(d):
            for nu in range(d):
                chain = chain + xi[mu].deriv(nu).deriv(rho) * eta[nu].deriv(mu)
        omega.append(chain.scale(Fraction(c1))
                     + (div_xi.deriv(rho) * div_eta).scale(Fraction(c2)))
    return -_pullback(omega, q)


def _reference_affine(X, Y, q, c5, c8):
    omega = []
    for rho in range(q.d):
        acc = Poly.zero(X[0].dim)
        for a in range(len(X)):
            acc = acc + (X[a].deriv(rho) * Y[a]).scale(Fraction(c5))
        omega.append(acc + (X[0].deriv(rho) * Y[0]).scale(Fraction(c8)))
    return _pullback(omega, q)


def _reference_mixed(xi, X, q, c7):
    div_xi = divergence(xi)
    return Fraction(c7) * _pullback([div_xi.deriv(rho) * X[0] for rho in range(q.d)], q)


_RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_NONZERO = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 3))


def _poly_in(d, exponents):
    return st.lists(st.tuples(st.sampled_from(exponents), _RATIONALS),
                    min_size=1, max_size=6).map(lambda terms: Poly(d, dict(terms)))


@st.composite
def _cocycle_cases(draw, laurent_fields):
    """Fields, trajectory and charges at d <= 3: degree <= 3 fields on Laurent
    trajectories (powers -2..2), or Laurent fields on monomial trajectories."""
    d = draw(st.integers(1, 3))
    if laurent_fields:
        exponents = list(itertools.product(range(-2, 3), repeat=d))
        comps = [Poly.monomial((draw(st.integers(-2, 2)),), draw(_NONZERO))
                 for _ in range(d)]
    else:
        exponents = enumerate_indices(d, 3)
        comps = [draw(_poly_in(1, [(k,) for k in range(-2, 3)])) for _ in range(d)]
    field = _poly_in(d, exponents)
    n = draw(st.integers(1, 2))
    xi, eta = ([draw(field) for _ in range(d)] for _ in range(2))
    X, Y = ([draw(field) for _ in range(n)] for _ in range(2))
    charges = [draw(_RATIONALS) for _ in range(5)]
    return Trajectory(tuple(comps)), xi, eta, X, Y, charges


def _assert_matches_reference(case):
    q, xi, eta, X, Y, (c1, c2, c5, c7, c8) = case
    assert virasoro_cocycle(xi, eta, q, c1, c2) == _reference_virasoro(xi, eta, q, c1, c2)
    assert affine_cocycle(X, Y, q, c5, c8) == _reference_affine(X, Y, q, c5, c8)
    assert mixed_cocycle(xi, X, q, c7) == _reference_mixed(xi, X, q, c7)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_cocycle_cases(laurent_fields=False))
def test_cocycles_match_reference_loops(case):
    _assert_matches_reference(case)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_cocycle_cases(laurent_fields=True))
def test_laurent_fields_match_reference_loops(case):
    _assert_matches_reference(case)


@st.composite
def _laurent_pairs(draw):
    one_var = _poly_in(1, [(k,) for k in range(-4, 5)])
    a, b = draw(one_var), draw(one_var)
    zero = draw(st.sampled_from((None, None, "a", "b")))
    return (Poly.zero(1) if zero == "a" else a), (Poly.zero(1) if zero == "b" else b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_laurent_pairs())
def test_product_residue_equals_the_residue_of_the_product(pair):
    a, b = pair
    assert _product_residue(a, b) == residue(a * b)
    assert _product_residue(b, a) == residue(a * b)


# -- errors: raised where composing the summed 1-form raises --------------------

def _outcome(call):
    """The value of ``call()``, or the type of the OverflowError or ValueError
    it raises."""
    try:
        return call()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _outcomes(case):
    """The three trajectory cocycles of ``case`` and their reference loops, as
    pairs of outcomes."""
    q, xi, eta, X, Y, (c1, c2, c5, c7, c8) = case
    return [(_outcome(lambda: virasoro_cocycle(xi, eta, q, c1, c2)),
             _outcome(lambda: _reference_virasoro(xi, eta, q, c1, c2))),
            (_outcome(lambda: affine_cocycle(X, Y, q, c5, c8)),
             _outcome(lambda: _reference_affine(X, Y, q, c5, c8))),
            (_outcome(lambda: mixed_cocycle(xi, X, q, c7)),
             _outcome(lambda: _reference_mixed(xi, X, q, c7)))]


@st.composite
def _capped_cases(draw):
    """Fields of degree <= 5 at d <= 2 and a degree cap of 2..9, on loops
    whose components are each a z + b with a != 0 or a Laurent polynomial
    with powers in -2..2, so that a velocity has a degree of its own or is
    zero."""
    d = draw(st.integers(1, 2))
    laurent = _poly_in(1, [(k,) for k in range(-2, 3)])
    comps = [draw(st.one_of(st.builds(lambda a, b: Poly(1, {(1,): a, (0,): b}),
                                      _NONZERO, _RATIONALS),
                            laurent))
             for _ in range(d)]
    field = _poly_in(d, enumerate_indices(d, 5))
    n = draw(st.integers(1, 2))
    xi, eta = ([draw(field) for _ in range(d)] for _ in range(2))
    X, Y = ([draw(field) for _ in range(n)] for _ in range(2))
    charges = [draw(_NONZERO) for _ in range(5)]
    return draw(st.integers(2, 9)), (Trajectory(tuple(comps)), xi, eta, X, Y, charges)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_capped_cases())
def test_a_low_degree_cap_raises_where_the_reference_loops_raise(capped):
    cap, case = capped
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactpoly, "MAX_DEGREE", cap)
        for got, want in _outcomes(case):
            assert got == want


def test_a_zero_velocity_still_tests_its_products_against_the_cap():
    # q^1 is constant, so rho = 1 adds nothing, but its products pass the cap
    zero = Poly.zero(2)
    x1 = [zero, Poly.monomial((0, 35))]
    q = Trajectory((_z("z"), Poly.constant(1, 1)))
    with pytest.raises(OverflowError):
        affine_cocycle([Poly.monomial((0, 40))], [Poly.monomial((0, 30))], q, 1, 0)
    with pytest.raises(OverflowError):
        virasoro_cocycle(x1, x1, q, 1, 0)
    with pytest.raises(OverflowError):
        mixed_cocycle(x1, [Poly.monomial((0, 35))], q, 1)
    assert affine_cocycle([Poly.monomial((0, 20))], [Poly.monomial((0, 30))], q, 1, 0) == 0


def test_an_image_is_capped_as_compose_builds_it():
    # omega_0 = 2 x0^2 x1: compose squares z^5 (degree 10) before it meets
    # z^-5, while the table may reach z^10 z^-5 through z^-5 and z^0
    q = Trajectory((_z("z^5"), _z("z^-5")))
    X, Y = [Poly.monomial((2, 0))], [Poly.monomial((1, 1))]
    value = affine_cocycle(X, Y, q, 1, 0)
    assert value == _reference_affine(X, Y, q, 1, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactpoly, "MAX_DEGREE", 9)
        with pytest.raises(OverflowError):
            affine_cocycle(X, Y, q, 1, 0)
        patch.setattr(exactpoly, "MAX_DEGREE", 10)
        assert affine_cocycle(X, Y, q, 1, 0) == value
    assert affine_cocycle(X, Y, q, 1, 0) == value


@st.composite
def _mixed_loop_cases(draw):
    """Laurent fields (powers -2..2) at d <= 3 on loops whose components are
    each a monomial, a constant or a general Laurent polynomial, with nonzero
    charges, so that a field meets a non-monomial component in some cases
    and not in others."""
    d = draw(st.integers(1, 3))
    laurent = _poly_in(1, [(k,) for k in range(-2, 3)])
    comps = [draw(st.one_of(st.builds(lambda k, c: Poly.monomial((k,), c),
                                      st.integers(-2, 2), _NONZERO),
                            st.builds(lambda c: Poly.constant(1, c), _NONZERO),
                            laurent))
             for _ in range(d)]
    field = _poly_in(d, list(itertools.product(range(-2, 3), repeat=d)))
    n = draw(st.integers(1, 2))
    xi, eta = ([draw(field) for _ in range(d)] for _ in range(2))
    X, Y = ([draw(field) for _ in range(n)] for _ in range(2))
    charges = [draw(_NONZERO) for _ in range(5)]
    return Trajectory(tuple(comps)), xi, eta, X, Y, charges


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_mixed_loop_cases())
def test_laurent_fields_on_any_loop_raise_where_the_reference_loops_raise(case):
    for got, want in _outcomes(case):
        assert got == want


def test_a_term_that_cancels_in_omega_is_not_composed():
    # omega = (c5 + c8) X0' Y0 + c5 X1' Y1 = x^-1 - x^-1 = 0: nothing meets
    # the non-monomial loop
    x, inverse = parse_poly("x0", 1), Poly.monomial((-1,))
    q = Trajectory((_z("z + z^2"),))
    assert affine_cocycle([inverse, inverse], [x, x], q, 1, -2) == 0
    assert _reference_affine([inverse, inverse], [x, x], q, 1, -2) == 0
    with pytest.raises(ValueError, match="monomial substitution"):
        affine_cocycle([inverse, inverse], [x, x], q, 1, -1)


# -- the residue table of a loop ------------------------------------------------

def _assert_table_matches_compose(q):
    """Every residue the loop's table holds equals res q'^rho compose(x^e, q),
    every image q^e equals compose(x^e, q), and every power q_i^k equals the
    product of k factors q_i, or for k < 0 times -k of them gives 1."""
    velocity = q.velocity()
    _, (images, powers), rows = cocycles._loop_table(q, exactpoly.MAX_DEGREE)
    for rho, row in enumerate(rows):
        for e, r in row.items():
            assert r == residue(velocity[rho] * compose(Poly.monomial(e), q))
            assert type(r) is int or r.denominator > 1
    for e, image in images.items():
        assert image == compose(Poly.monomial(e), q)
    one = Poly.constant(1, 1)
    for (i, k), power in powers.items():
        product = one if k > 0 else power
        for _ in range(abs(k)):
            product = product * q.components[i]
        assert product == (power if k > 0 else one)


def _field_pairs(d, count, rng):
    return [([_rand_poly(d, 3, rng) for _ in range(d)], [_rand_poly(d, 3, rng) for _ in range(d)])
            for _ in range(count)]


@pytest.mark.parametrize("comps", [
    ("z^-2 + 3 z - z^2", "2 z^-1 + z"),
    ("z^-1 - 2 z^2", "3"),                         # a constant component
    ("1/2 z^-1 + 2/3 z^2", "-3/5 z + 7/4"),        # non-integer coefficients
], ids=["laurent", "constant-component", "fractions"])
def test_one_table_serves_many_field_pairs_in_any_order(comps):
    rng = random.Random(12)
    q = Trajectory(tuple(_z(c) for c in comps))
    pairs = _field_pairs(2, 12, rng)
    calls = [(kind, i) for kind in ("vir", "aff", "mix") for i in range(len(pairs))]
    rng.shuffle(calls)
    c1, c2, c5, c7, c8 = Fraction(3, 2), Fraction(-1, 3), 2, Fraction(7, 4), Fraction(1, 5)
    for kind, i in calls + calls[::-1]:
        a, b = pairs[i]
        if kind == "vir":
            assert virasoro_cocycle(a, b, q, c1, c2) == _reference_virasoro(a, b, q, c1, c2)
        elif kind == "aff":
            assert affine_cocycle(a, b, q, c5, c8) == _reference_affine(a, b, q, c5, c8)
        else:
            assert mixed_cocycle(a, b, q, c7) == _reference_mixed(a, b, q, c7)
    _assert_table_matches_compose(q)


def test_equal_loops_share_one_table():
    rng = random.Random(13)
    q = Trajectory((_z("z^-1 + 2 z"), _z("z^2 - z")))
    twin = Trajectory((_z("2 z + z^-1"), _z("-z + z^2")))
    assert twin == q and twin is not q
    xi, eta = _field_pairs(2, 1, rng)[0]
    value = virasoro_cocycle(xi, eta, q, 1, 2)
    assert cocycles._loop_table(twin, exactpoly.MAX_DEGREE) is \
        cocycles._loop_table(q, exactpoly.MAX_DEGREE)
    assert virasoro_cocycle(xi, eta, twin, 1, 2) == value == _reference_virasoro(xi, eta, q, 1, 2)
    _assert_table_matches_compose(twin)


def test_a_call_that_raised_leaves_no_entry_a_later_call_reads():
    q = Trajectory((_z("z + z^2"), _z("z^-1")))
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    # x0^-1 needs the inverse of z + z^2; x1^-2 is read before it
    bad = [Poly(2, {(0, -2): 1, (-1, 0): 1})]
    with pytest.raises(ValueError, match="monomial substitution"):
        affine_cocycle([x0 * x1], bad, q, 1, 0)
    _assert_table_matches_compose(q)
    good = [Poly(2, {(0, -2): 1, (1, 0): 1})]
    assert affine_cocycle([x0 * x1], good, q, 1, 0) == _reference_affine([x0 * x1], good, q, 1, 0)
    with pytest.raises(ValueError, match="monomial substitution"):
        affine_cocycle([x0 * x1], bad, q, 1, 0)
    big = [Poly.monomial((3, 3))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactpoly, "MAX_DEGREE", 6)
        with pytest.raises(OverflowError):
            affine_cocycle(big, big, q, 1, 0)
    assert affine_cocycle(big, big, q, 1, 0) == _reference_affine(big, big, q, 1, 0)
    _assert_table_matches_compose(q)


def test_a_warm_call_multiplies_and_composes_nothing(monkeypatch):
    rng = random.Random(14)
    q = Trajectory((_z("z^-2 + 3 z - z^2"), _z("2 z^-1 + z")))
    (xi, eta), (X, Y) = _field_pairs(2, 2, rng)
    first = (virasoro_cocycle(xi, eta, q, 3, -1), affine_cocycle(X, Y, q, 2, 5))

    def refuse(*args):
        raise AssertionError("a warm call built a product or a composition")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(Poly, "compose_univariate", refuse)
    monkeypatch.setattr(cocycles, "compose", refuse)
    assert (virasoro_cocycle(xi, eta, q, 3, -1), affine_cocycle(X, Y, q, 2, 5)) == first
