import random
from fractions import Fraction

import pytest

from jetvir.cocycles import (
    Trajectory,
    affine_cocycle,
    antisymmetry_check,
    bracket_rep,
    compose,
    density_action,
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
    assert bracket_rep(_z("z"), _z("z^2")) == _z("z^2")
    sc = StructureConstants.epsilon()
    X = [x, Poly.zero(1), Poly.zero(1)]
    Y = [Poly.zero(1), x, Poly.zero(1)]
    assert sc.bracket_components(X, Y) == [Poly.zero(1), Poly.zero(1), x2]
    assert density_action([Poly.constant(1, 2)], [Poly.constant(1, 3)]) == \
        [Poly.zero(1)]
    assert density_action([x], [Poly.constant(1, 1)]) == [Poly.constant(1, 1)]


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


def test_antisymmetry_random():
    rng = random.Random(9)
    for _ in range(10):
        for d in (1, 2):
            q = _rand_traj(d, rng)
            xi = [_rand_poly(d, 2, rng) for _ in range(d)]
            eta = [_rand_poly(d, 2, rng) for _ in range(d)]
            assert antisymmetry_check("virasoro", xi, eta, q,
                                      Fraction(3, 2), Fraction(-1, 3)).ok
            X = [_rand_poly(d, 2, rng) for _ in range(2)]
            Y = [_rand_poly(d, 2, rng) for _ in range(2)]
            assert antisymmetry_check("affine", X, Y, q, 2, Fraction(1, 5)).ok


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


def test_unknown_kind():
    with pytest.raises(ValueError):
        antisymmetry_check("nope", [], [], Trajectory((Poly.monomial((1,)),)))
