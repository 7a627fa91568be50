from fractions import Fraction

import pytest

from jetvir.charges import GRepTraces, Statistics, closed_form, from_sl_gl1
from jetvir.exactpoly import Poly, parse_poly
from jetvir.multiindex import unit
from jetvir.wickcocycle import (
    NormalBilinear,
    Term,
    build_current,
    build_reparam,
    build_vector_field,
    double_contraction,
    extract_charges,
    trace_pair,
)

GL1 = from_sl_gl1(0, 0, 1, 1)
GR1 = GRepTraces(1, 1, 0, 0, Statistics.BOSE)


# (A's (pi dots, phi dots), B's (pi dots, phi dots)) -> (pole order, bose
# coefficient) of the double contraction of two one-term bilinears
# :pi phi: at d = 1, p = 0 with unit traces, where the delta-pair integral
# is 1.  It is the product of A's pi with B's phi, -eps (-1)^r (r+s)! at
# pole 1+r+s, and A's phi with B's pi, (-1)^r (r+s)! at pole 1+r+s, with
# r the dots at z and s the dots at w.  Fermi statistics flips every sign.
CONTRACTION_TABLE = {
    ((0, 0), (0, 0)): (2, -1),
    ((0, 0), (1, 0)): (3, -1),
    ((0, 0), (0, 1)): (3, -1),
    ((1, 0), (0, 0)): (3, 1),
    ((1, 0), (1, 0)): (4, 1),
    ((1, 0), (0, 1)): (4, 2),
    ((0, 1), (0, 0)): (3, 1),
    ((0, 1), (1, 0)): (4, 2),
    ((0, 1), (0, 1)): (4, 1),
}


def _one_term(dots):
    term = Term(Fraction(1), Poly.constant(1, 1), (None, None),
                pi_dots=dots[0], phi_dots=dots[1])
    return NormalBilinear(1, 0, (term,))


@pytest.mark.parametrize("stats", Statistics)
@pytest.mark.parametrize("dots_a,dots_b", CONTRACTION_TABLE)
def test_contraction_table(dots_a, dots_b, stats):
    order, bose = CONTRACTION_TABLE[dots_a, dots_b]
    gr = GRepTraces(1, 1, 0, 0, stats)
    pe = double_contraction(_one_term(dots_a), _one_term(dots_b), GL1, gr)
    assert pe.coefficients == {order: bose * stats.sign}


def test_term_has_at_most_one_dot():
    with pytest.raises(ValueError):
        Term(Fraction(1), Poly.constant(1, 1), (None, None), pi_dots=1, phi_dots=1)
    with pytest.raises(ValueError):
        Term(Fraction(1), Poly.constant(1, 1), (None, None), phi_dots=2)


def test_trace_pair():
    gl = from_sl_gl1(Fraction(1, 2), 3, 2, 2)
    gr = GRepTraces(3, 5, 7, 11)
    assert trace_pair((None, None), (None, None), gl, gr) == 6
    assert trace_pair(((0, 0), None), (None, None), gl, gr) == gl.k0 * 3
    assert trace_pair(((0, 1), None), (None, None), gl, gr) == 0
    assert trace_pair(((0, 1), None), ((1, 0), None), gl, gr) == gl.k1 * 3
    assert trace_pair(((0, 0), None), ((1, 1), None), gl, gr) == gl.k2 * 3
    assert trace_pair(((0, 0), None), ((0, 0), None), gl, gr) == (gl.k1 + gl.k2) * 3
    assert trace_pair((None, 0), (None, None), gl, gr) == 7 * 2
    assert trace_pair((None, 1), (None, None), gl, gr) == 0
    assert trace_pair((None, 1), (None, 1), gl, gr) == 5 * 2
    assert trace_pair((None, 0), (None, 0), gl, gr) == (5 + 11) * 2
    assert trace_pair((None, 0), (None, 1), gl, gr) == 0
    assert trace_pair(((0, 0), None), (None, 0), gl, gr) == gl.k0 * 7


def test_current_pair_pole():
    j = build_current([Poly.zero(1), Poly.constant(1, 1)], 1, 2)
    pe = double_contraction(j, j, GL1, GR1)
    assert pe.coefficients == {2: Fraction(-3)}


def test_reparam_pair_pole():
    t = build_reparam(0, 1, 0)
    pe = double_contraction(t, t, GL1, GR1)
    # field sector +1 at pole 4, base-point sector +d = +1
    assert pe.at(4) == 2


def test_reparam_weight_one_is_single_term():
    t = build_reparam(1, 1, 0)
    assert len(t.terms) == 1
    assert t.terms[0].pi_dots == 1
    assert t.terms[0].phi_dots == 0


def test_vector_field_constant_has_only_base_point_sector():
    l = build_vector_field([Poly.constant(1, 3)], 1, 2)
    assert l.terms == ()
    assert l.q_sector is not None and l.q_sector[0] == "L"


def test_base_point_sector_vector_pair():
    # xi = x1 d_0, eta = x0 d_1 at d=2: the base-point rule alone contributes
    # -d_nu xi^mu d_mu eta^nu = -1 at pole 2.
    zero = Poly.zero(2)
    xi = [parse_poly("x1", 2), zero]
    eta = [zero, parse_poly("x0", 2)]
    gl = from_sl_gl1(0, 0, 1, 2)
    gr = GRepTraces(1, 0, 0, 0)
    la = build_vector_field(xi, 2, 0)
    lb = build_vector_field(eta, 2, 0)
    pe = double_contraction(la, lb, gl, gr)
    # at d=2, p=0 with weight-zero traces the field sector vanishes
    # (all quadratic lattice sums are zero), leaving the pure base-point value
    assert pe.at(2) == -1
    closed = closed_form(2, 0, 0, gl, gr)
    meas = extract_charges(2, 0, 0, gl, gr)
    assert meas.c1 == closed.c1 == 1


def _coeff_jacobian(xi):
    """d_nu xi^mu(0) as [mu][nu], read as Fraction coefficients."""
    d = len(xi)
    return [[c.coeff(unit(d, nu)) for nu in range(d)] for c in xi]


@pytest.mark.parametrize("xi,eta", [
    (["1/3 * x0", "2/5 * x1"], ["3/2 * x0 + 1/7 * x1", "-1/4 * x0 + 1/6 * x0^2"]),
    (["1/3 * x0 + 1/2 * x2", "2/5 * x1 - x0", "1/7 * x2 + x0 * x1"],
     ["1/9 * x1", "5/4 * x1", "-1/6 * x0 + 2/3 * x2 + 1/5"]),
])
def test_base_point_sector_reads_each_component_over_its_own_denominator(xi, eta):
    """The L-L pole 2 and the T-L and L-T pole 3 are the field sector plus
    the base-point rule, with d_nu xi^mu(0) read as Fraction coefficients;
    the components have different denominators and Laurent terms."""
    d = len(xi)
    xi = [parse_poly(c, d) for c in xi]
    # a Laurent term x_{d-1}^-1 in the last component of eta
    eta = [parse_poly(c, d) for c in eta[:-1]] + [
        parse_poly(eta[-1], d) + Poly.monomial((0,) * (d - 1) + (-1,), Fraction(3, 8))]
    jx, je = _coeff_jacobian(xi), _coeff_jacobian(eta)
    pair = -sum(jx[mu][nu] * je[nu][mu] for mu in range(d) for nu in range(d))
    div_xi, div_eta = sum(jx[mu][mu] for mu in range(d)), sum(je[mu][mu] for mu in range(d))
    assert pair and div_xi and div_eta
    gl = from_sl_gl1(Fraction(1, 2), 1, 2, d)
    gr = GRepTraces(2, 1, 1, 1)
    for p in (0, 2):
        la, lb = build_vector_field(xi, d, p), build_vector_field(eta, d, p)
        t = build_reparam(Fraction(3, 2), d, p)

        def field_only(a, b):
            return double_contraction(NormalBilinear(a.d, a.p, a.terms),
                                      NormalBilinear(b.d, b.p, b.terms), gl, gr).coefficients

        for a, b, rule in ((la, lb, {2: pair}), (t, lb, {3: div_eta}), (la, t, {3: -div_xi})):
            expected = field_only(a, b)
            for order, value in rule.items():
                expected[order] = expected.get(order, 0) + value
            got = double_contraction(a, b, gl, gr).coefficients
            assert got == {k: v for k, v in expected.items() if v}, (p, rule)


def test_extraction_spec_point():
    meas = extract_charges(1, 0, 0, GL1, GR1)
    assert meas.c1 is None and meas.c2 is None
    assert meas.c1_plus_c2 == 1
    assert (meas.c3, meas.c4, meas.c5) == (1, 4, -1)
    assert (meas.c6, meas.c7, meas.c8) == (0, 0, 0)


def test_extraction_lambda_half():
    gr = GRepTraces(2, 1, 3, 0, Statistics.BOSE)
    gl = from_sl_gl1(1, 0, 1, 2)
    meas = extract_charges(2, 1, Fraction(1, 2), gl, gr)
    assert meas.c3 == 1
    assert meas.c6 == 0


def test_statistics_flip_negates_field_parts():
    gl = from_sl_gl1(1, 2, 2, 2)
    for stats, other in ((Statistics.BOSE, Statistics.FERMI),):
        gr_b = GRepTraces(2, 3, 1, 5, stats)
        gr_f = GRepTraces(2, 3, 1, 5, other)
        cb = closed_form(2, 2, 2, gl, gr_b)
        cf = closed_form(2, 2, 2, gl, gr_f)
        # field parts flip; base-point constants (1, 1, 2d) stay
        assert cb.c1 - 1 == -(cf.c1 - 1)
        assert cb.c2 == -cf.c2
        assert cb.c3 - 1 == -(cf.c3 - 1)
        assert cb.c4 - 4 == -(cf.c4 - 4)
        for name in ("c5", "c6", "c7", "c8"):
            assert getattr(cb, name) == -getattr(cf, name)


def test_builders_need_a_valid_grid():
    x = parse_poly("x0", 1)
    bad = {
        "dimension": (lambda: build_reparam(0, 0, 0),
                      lambda: build_current([Poly.constant(1, 1)], True, 0),
                      lambda: build_vector_field([x], True, 0)),
        "jet order": (lambda: build_reparam(0, 1, -1),
                      lambda: build_current([x], 1, True),
                      lambda: build_vector_field([x], 1, -1)),
    }
    for what, calls in bad.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"{what} must be"):
                call()


def test_pole_orders_bounded():
    t = build_reparam(2, 2, 1)
    pe = double_contraction(t, t, from_sl_gl1(0, 0, 1, 2), GR1)
    assert max(pe.coefficients) <= 4
    j = build_current([Poly.constant(2, 1)], 2, 1)
    pe = double_contraction(j, j, from_sl_gl1(0, 0, 1, 2), GR1)
    assert set(pe.coefficients) <= {2}
