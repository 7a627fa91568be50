import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir import wickcocycle
from jetvir.charges import (
    ChargeSet,
    GlRepTraces,
    GRepTraces,
    Statistics,
    closed_form,
    from_sl_gl1,
)
from jetvir.deltacalc import DerivSpec, delta_pair_integral
from jetvir.exactpoly import Poly, parse_poly
from jetvir.multiindex import enumerate_indices, unit
from jetvir.wickcocycle import (
    NormalBilinear,
    Term,
    build_current,
    build_reparam,
    build_vector_field,
    double_contraction,
    extract_charges,
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
    assert pe == {order: bose * stats.sign}


def test_term_has_at_most_one_dot():
    with pytest.raises(ValueError):
        Term(Fraction(1), Poly.constant(1, 1), (None, None), pi_dots=1, phi_dots=1)
    with pytest.raises(ValueError):
        Term(Fraction(1), Poly.constant(1, 1), (None, None), phi_dots=2)


def trace_pair(ins_a, ins_b, glrep, grep):
    """The trace of two insertions: ``_trace_forms`` evaluated at the
    numerators of ``_parameters``, over their denominator t^2."""
    rho, m = wickcocycle._trace_forms(ins_a, ins_b)
    (t2, _, _), rho_values, m_values, _ = wickcocycle._parameters(0, glrep, grep)
    return Fraction(sum(rho_values[i] * m_values[j] for i in rho for j in m), t2)


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
    insertions = [(t, g) for t in [None] + [(nu, mu) for nu in range(3) for mu in range(3)]
                  for g in (None, 0, 1, 2)]
    for a in insertions:
        for b in insertions:
            assert trace_pair(a, b, gl, gr) == _reference_trace(a, b, gl, gr), (a, b)


def test_current_pair_pole():
    j = build_current([Poly.zero(1), Poly.constant(1, 1)], 1, 2)
    pe = double_contraction(j, j, GL1, GR1)
    assert pe == {2: Fraction(-3)}


def test_reparam_pair_pole():
    t = build_reparam(0, 1, 0)
    pe = double_contraction(t, t, GL1, GR1)
    # field sector +1 at pole 4, base-point sector +d = +1
    assert pe[4] == 2


def test_reparam_weight_one_is_single_term():
    t = build_reparam(1, 1, 0)
    assert len(t.terms) == 1
    assert t.terms[0].pi_dots == 1
    assert t.terms[0].phi_dots == 0


def test_vector_field_constant_has_only_base_point_sector():
    """xi(q) p has no field-sector term, and its base point, L's own terms,
    is empty too: -d_nu xi^mu(0) d_mu eta^nu(0) and div xi(0) vanish, so it
    contracts to nothing with L or T."""
    l = build_vector_field([Poly.constant(1, 3)], 1, 2)
    assert l.terms == () and l.q_sector == ()
    eta = build_vector_field([parse_poly("x0 + x0^2", 1)], 1, 2)
    assert eta.q_sector == eta.terms != ()
    for other in (eta, build_reparam(Fraction(3, 2), 1, 2)):
        assert double_contraction(l, other, GL1, GR1) == {}
        assert double_contraction(other, l, GL1, GR1) == {}


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
    assert pe == {2: -1}
    closed = closed_form(2, 0, 0, gl, gr)
    meas = extract_charges(2, 0, 0, gl, gr)
    assert meas.c1 == closed.c1 == 1


def _coeff_jacobian(xi):
    """d_nu xi^mu(0) as [mu][nu], read as Fraction coefficients."""
    d = len(xi)
    return [[c.coeff(unit(d, nu)) for nu in range(d)] for c in xi]


def _typed_rule(kind_a, kind_b, d):
    """The base-point sector as a rule on the kinds None, ("L", xi) and
    ("T",) of A and B, as the engine once typed it: -d_nu xi^mu(0)
    d_mu eta^nu(0) at pole 2 for L L, +div eta(0) for T L and -div xi(0) for
    L T at pole 3, and d at pole 4 for T T."""
    if kind_a is None or kind_b is None:
        return {}
    if kind_a[0] == kind_b[0] == "T":
        return {4: Fraction(d)}
    if kind_a[0] == kind_b[0] == "L":
        jx, je = _coeff_jacobian(kind_a[1]), _coeff_jacobian(kind_b[1])
        order, value = 2, -sum(jx[mu][nu] * je[nu][mu] for mu in range(d) for nu in range(d))
    else:
        jac = _coeff_jacobian(kind_b[1] if kind_a[0] == "T" else kind_a[1])
        order, value = 3, (1 if kind_a[0] == "T" else -1) * sum(jac[mu][mu] for mu in range(d))
    return {order: value} if value else {}


def _random_field(rng, d):
    """A vector field of degree <= 3, each monomial present with probability
    1/2 and a small rational coefficient."""
    monomials = [m for m in enumerate_indices(d, 3) if rng.random() < 0.5]
    return [Poly(d, {m: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for m in monomials})
            for _ in range(d)]


@functools.cache
def _base_point_pairs(t_weight=None):
    """800 pairs (A, A's kind, B, B's kind) at p = 0: L L, T L, L T and T T
    for 200 random xi, eta of degree <= 3 at d = 1, 2, 3 in turn.  T is T(3/2)
    as built, or with ``t_weight`` a T whose base point is T's terms at that
    weight instead of at 1."""
    rng = random.Random(14)
    pairs = []
    for n in range(200):
        d = 1 + n % 3
        xi, eta = _random_field(rng, d), _random_field(rng, d)
        la, lb = build_vector_field(xi, d, 0), build_vector_field(eta, d, 0)
        t = build_reparam(Fraction(3, 2), d, 0)
        if t_weight is not None:
            t = NormalBilinear(d, 0, t.terms, build_reparam(t_weight, d, 0).terms)
        kx, ke, kt = ("L", xi), ("L", eta), ("T",)
        pairs += [(la, kx, lb, ke), (t, kt, lb, ke), (la, kx, t, kt), (t, kt, t, kt)]
    return pairs


def _engine_base_point(a, b):
    """The engine's base-point sector of A B: the double contraction of
    their base points alone."""
    return double_contraction(NormalBilinear(a.d, 0, (), a.q_sector),
                              NormalBilinear(b.d, 0, (), b.q_sector), GL1, GR1)


def _base_point_read_at(k2=0, eps=1):
    """The base-point sector of A B as the p = 0 field table of their
    base-point terms read at the sign ``eps``, the traces (Delta_rho, k0, k1,
    k2) = (d, 1, 1, ``k2``) and trivial M; the defaults are the engine's."""
    def read(a, b):
        coefficients = {}
        rho = (a.d, 1, 1, k2)
        for (order, i, j), c in wickcocycle._field_table(a.q_sector, b.q_sector, a.d, 0).items():
            if j == 0:
                coefficients[order] = coefficients.get(order, 0) + eps * c * rho[i]
        return {order: c for order, c in coefficients.items() if c}
    return read


def _mismatches(pairs, read):
    """How many pairs ``read`` gives another base-point sector than the
    typed rule."""
    return sum(read(a, b) != _typed_rule(ka, kb, a.d) for a, ka, b, kb in pairs)


@pytest.mark.parametrize("xi,eta", [
    (["1/3 * x0", "2/5 * x1"], ["3/2 * x0 + 1/7 * x1", "-1/4 * x0 + 1/6 * x0^2"]),
    (["1/3 * x0 + 1/2 * x2", "2/5 * x1 - x0", "1/7 * x2 + x0 * x1"],
     ["1/9 * x1", "5/4 * x1", "-1/6 * x0 + 2/3 * x2 + 1/5"]),
    pytest.param(None, None, id="random"),
])
def test_base_point_sector_reads_each_component_over_its_own_denominator(xi, eta):
    """The L-L, T-L, L-T and T-T poles are the field sector plus the typed
    base-point rule, with d_nu xi^mu(0) read as Fraction coefficients; the
    fixed components have different denominators, and the builder refuses
    eta with a Laurent term 3/8 x_{d-1}^-1 added.  The random case compares
    the base-point sector alone, as the engine contracts it and as the field
    table read at the engine's traces, with the rule on 800 random pairs."""
    if xi is None:
        pairs = _base_point_pairs()
        assert _mismatches(pairs, _engine_base_point) == 0
        assert _mismatches(pairs, _base_point_read_at()) == 0
        # more than half of the pairs have a nonzero base-point sector
        assert sum(bool(_typed_rule(ka, kb, a.d)) for a, ka, _, kb in pairs) > 400
        return
    d = len(xi)
    xi = [parse_poly(c, d) for c in xi]
    eta = [parse_poly(c, d) for c in eta]
    # the engine reads no Laurent term: a term x_{d-1}^-1 in eta is refused
    laurent = eta[:-1] + [eta[-1] + Poly.monomial((0,) * (d - 1) + (-1,), Fraction(3, 8))]
    for p in (0, 2):
        with pytest.raises(ValueError, match="negative exponent"):
            build_vector_field(laurent, d, p)
    kx, ke, kt = ("L", xi), ("L", eta), ("T",)
    assert _typed_rule(kx, ke, d) and _typed_rule(kt, ke, d) and _typed_rule(kx, kt, d)
    gl = from_sl_gl1(Fraction(1, 2), 1, 2, d)
    gr = GRepTraces(2, 1, 1, 1)
    for p in (0, 2):
        la, lb = build_vector_field(xi, d, p), build_vector_field(eta, d, p)
        t = build_reparam(Fraction(3, 2), d, p)

        def field_only(a, b):
            return double_contraction(NormalBilinear(a.d, a.p, a.terms),
                                      NormalBilinear(b.d, b.p, b.terms), gl, gr)

        for a, ka, b, kb in ((la, kx, lb, ke), (t, kt, lb, ke), (la, kx, t, kt), (t, kt, t, kt)):
            expected = field_only(a, b)
            for order, value in _typed_rule(ka, kb, d).items():
                expected[order] = expected.get(order, 0) + value
            got = double_contraction(a, b, gl, gr)
            assert got == {k: v for k, v in expected.items() if v}, (p, ka[0], kb[0])


@pytest.mark.parametrize("t_weight, read", [
    (None, _base_point_read_at(k2=Fraction(1, 7))),
    (0, _engine_base_point),
    (Fraction(1, 2), _engine_base_point),
    (None, _base_point_read_at(eps=-1)),
], ids=["k2 = 1-7", "T base point at weight 0", "T base point at weight 1-2", "fermi sign"])
def test_a_wrong_base_point_multiplet_disagrees_with_the_typed_rule(t_weight, read):
    """Negative controls of the random case above: a k2 trace of 1/7, T's
    base point at weight 0 or 1/2 instead of 1, or the fermi sign each make
    some of the 800 pairs disagree with the rule."""
    assert _mismatches(_base_point_pairs(t_weight), read) > 0


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


def test_builders_refuse_a_laurent_field():
    """The engine reads Taylor coefficients at q = 0, where a Laurent field
    has none, so the builders refuse one with a one-line ValueError.  They
    once accepted it and the engine read only its Taylor terms, at d = 1,
    p = 1 and the traces GL1, GR1: J_{x^-1} J_x gave {}, J_{x^-1 + 2} J_3
    gave {2: -12}, the value of J_2 J_3, and L_{x^-1 d} L_{x^2 d} gave {}."""
    x, inverse = parse_poly("x", 1), Poly.monomial((-1,))
    cases = [(build_current, [inverse], [x]),
             (build_current, [inverse + Poly.constant(1, 2)], [Poly.constant(1, 3)]),
             (build_vector_field, [inverse], [x * x])]
    for build, laurent, taylor in cases:
        build(taylor, 1, 1)
        with pytest.raises(ValueError) as err:
            build(laurent, 1, 1)
        assert "negative exponent" in str(err.value) and "\n" not in str(err.value)
    # one Laurent component among others is enough
    with pytest.raises(ValueError, match="negative exponent"):
        build_current([Poly.zero(1), inverse], 1, 1)


def test_contraction_refuses_a_laurent_term():
    """A bilinear assembled from Terms skips the builders' check, so
    ``double_contraction`` refuses a Laurent coefficient itself, in the field
    terms or the base point of either operand, with the builders' one-line
    ValueError.  It once read only the Taylor terms: a term x^-1 + 2 gave the
    value of the term 2."""
    taylor = build_current([Poly.constant(1, 3)], 1, 1)
    laurent = Term(Fraction(1), Poly.monomial((-1,)) + Poly.constant(1, 2), (None, 0))
    bad = [NormalBilinear(1, 1, (laurent,)), NormalBilinear(1, 1, (), (laurent,))]
    for a, b in [(x, taylor) for x in bad] + [(taylor, x) for x in bad]:
        with pytest.raises(ValueError) as err:
            double_contraction(a, b, GL1, GR1)
        assert "negative exponent" in str(err.value) and "\n" not in str(err.value)


def test_pole_orders_bounded():
    t = build_reparam(2, 2, 1)
    pe = double_contraction(t, t, from_sl_gl1(0, 0, 1, 2), GR1)
    assert max(pe) <= 4
    j = build_current([Poly.constant(2, 1)], 2, 1)
    pe = double_contraction(j, j, from_sl_gl1(0, 0, 1, 2), GR1)
    assert set(pe) <= {2}


# -- the contraction table against the Fraction chain ---------------------------------

def _reference_trace(ins_a, ins_b, glrep, grep):
    """tr over rho (x) M of the product of two insertions, case by case."""
    (ta, ma), (tb, mb) = ins_a, ins_b
    if ta is None and tb is None:
        tr_rho = Fraction(glrep.delta_rho)
    elif ta is None or tb is None:
        nu, mu = tb if ta is None else ta
        tr_rho = glrep.k0 if nu == mu else Fraction(0)
    else:
        (a_up, b_lo), (c_up, d_lo) = ta, tb
        tr_rho = (glrep.k1 if a_up == d_lo and c_up == b_lo else 0) + (
            glrep.k2 if a_up == b_lo and c_up == d_lo else 0)
    if ma is None and mb is None:
        tr_m = Fraction(grep.delta_m)
    elif ma is None or mb is None:
        tr_m = grep.z_m if (mb if ma is None else ma) == 0 else Fraction(0)
    else:
        tr_m = (grep.y_m if ma == mb else 0) + (grep.w_m if ma == mb == 0 else 0)
    return tr_rho * tr_m


def _reference_contraction(a, b, glrep, grep, kinds=(None, None)):
    """The double contraction as one Fraction chain per term pair,
    -eps s1 s2 prefactors integral trace, plus the typed base-point rule at
    the ``kinds`` of A and B."""
    eps = grep.statistics.sign
    coefficients = {}
    for ta in a.terms:
        deco_a = DerivSpec.none() if ta.phi_deriv is None else DerivSpec.on_x(ta.phi_deriv)
        for tb in b.terms:
            deco_b = DerivSpec.none() if tb.phi_deriv is None else DerivSpec.on_y(tb.phi_deriv)
            r1, r2 = ta.pi_dots, ta.phi_dots
            w1, w2 = tb.phi_dots, tb.pi_dots
            s1 = (-1) ** r1 * math.factorial(r1 + w1)
            s2 = (-1) ** r2 * math.factorial(r2 + w2)
            integral = delta_pair_integral(ta.coeff, tb.coeff, deco_a, deco_b,
                                           (ta.mode, tb.mode), a.d, a.p)
            tr = _reference_trace(ta.insertion, tb.insertion, glrep, grep)
            order = 2 + r1 + w1 + r2 + w2
            coefficients[order] = coefficients.get(order, 0) + (
                -eps * s1 * s2 * ta.prefactor * tb.prefactor * integral * tr)
    for order, value in _typed_rule(*kinds, a.d).items():
        coefficients[order] = coefficients.get(order, 0) + value
    return {order: c for order, c in coefficients.items() if c}


def _reference_charges(d, p, lam, glrep, grep):
    """Every charge from one full contraction of the basis generators."""
    x0, zero, one = Poly.variable(d, 0), Poly.zero(d), Poly.constant(d, 1)

    def vec(mu, comp):
        xi = [comp if i == mu else zero for i in range(d)]
        return build_vector_field(xi, d, p), ("L", xi)

    def pole(a, b, order):
        """The pole of two (generator, kind) pairs."""
        pe = _reference_contraction(a[0], b[0], glrep, grep, (a[1], b[1]))
        return pe.get(order, 0)

    l_diag = vec(0, x0)
    c1_plus_c2 = -pole(l_diag, l_diag, 2)
    c1 = c2 = None
    if d >= 2:
        c1 = -pole(vec(0, Poly.variable(d, 1)), vec(1, x0), 2)
        c2 = c1_plus_c2 - c1
    j_generic = build_current([zero, one], d, p), None
    j_priv = build_current([one, zero], d, p), None
    c5 = pole(j_generic, j_generic, 2)
    t = build_reparam(lam, d, p), ("T",)
    return ChargeSet(d, p, lam, glrep, grep, c1, c2, c1_plus_c2, pole(t, l_diag, 3),
                     2 * pole(t, t, 4), c5, pole(t, j_priv, 3),
                     pole(l_diag, j_priv, 2), pole(j_priv, j_priv, 2) - c5)


_SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_LAMBDAS = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 2)]) | _SMALL


@st.composite
def _traces(draw, d):
    gl = GlRepTraces(draw(st.integers(1, 3)), draw(_SMALL), draw(_SMALL), draw(_SMALL))
    gr = GRepTraces(draw(st.integers(1, 3)), draw(_SMALL), draw(_SMALL), draw(_SMALL),
                    draw(st.sampled_from(Statistics)))
    return gl, gr


@st.composite
def _poly(draw, d):
    """Each Taylor term the oracle reads (the constant and the units) drawn
    with a coefficient that may be zero, plus a few terms of exponents 0 to
    2: the engine refuses a Laurent term."""
    terms = {e: draw(_SMALL) for e in [(0,) * d] + [unit(d, mu) for mu in range(d)]}
    terms.update(draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), _SMALL,
                                      max_size=3)))
    return Poly(d, terms)


@st.composite
def _bilinear(draw, d, p):
    directions = st.integers(0, d - 1)
    term = st.builds(
        lambda pre, coeff, rho, m, dots, deriv: Term(pre, coeff, (rho, m), *dots, deriv),
        _SMALL, _poly(d), st.none() | st.tuples(directions, directions),
        st.none() | st.integers(0, 2), st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        st.none() | directions)
    kind = draw(st.sampled_from([None, "L", "T"]))
    base_point = ()
    if kind == "L":
        kind = ("L", [draw(_poly(d)) for _ in range(d)])
        base_point = build_vector_field(kind[1], d, 0).q_sector
    elif kind == "T":
        kind = ("T",)
        base_point = build_reparam(0, d, 0).q_sector
    terms = tuple(draw(st.lists(term, min_size=1, max_size=3)))
    return NormalBilinear(d, p, terms, base_point), kind


@st.composite
def _contraction_cases(draw):
    d, p = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    (a, kind_a), (b, kind_b) = draw(_bilinear(d, p)), draw(_bilinear(d, p))
    return a, b, *draw(_traces(d)), (kind_a, kind_b)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_contraction_cases())
def test_contraction_table_equals_the_fraction_chain(case):
    """Random bilinears with every kind of insertion, dot, spatial
    derivative and base point, at random traces under both statistics,
    against the Fraction chain plus the typed base-point rule."""
    got = double_contraction(*case[:4])
    assert got == _reference_contraction(*case)
    assert all(v != 0 for v in got.values())


@st.composite
def _charge_cases(draw):
    d, p = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return (d, p, draw(_LAMBDAS), *draw(_traces(d)))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_charge_cases())
def test_charges_from_the_cached_tables_equal_the_fraction_chain(case):
    """Random lambda (0, 1, 1/2, -3/2 or a small rational) and traces, at
    grid points whose tables are often already cached."""
    meas = extract_charges(*case)
    assert meas == _reference_charges(*case)
    assert meas.glrep is case[3] and meas.grep is case[4]
    charges = [getattr(meas, n) for n in ("c1_plus_c2", "c3", "c4", "c5", "c6", "c7", "c8")]
    if case[0] >= 2:
        charges += [meas.c1, meas.c2]
    else:
        assert meas.c1 is None and meas.c2 is None
    assert all(type(c) is Fraction for c in charges)


@pytest.mark.parametrize("d, p, lam, stats", [
    (2, 0, 0, Statistics.BOSE),
    (2, 3, Fraction(1, 2), Statistics.FERMI),
    (3, 1, 2, Statistics.BOSE),
    (3, 2, Fraction(-3, 2), Statistics.FERMI),
])
def test_the_measured_record_is_the_closed_form_record(d, p, lam, stats):
    """At d >= 2 the engine returns the record that the closed forms return,
    with the trace records it was given; at d = 1 the same record with c1
    and c2 None."""
    gr = GRepTraces(2, 1, 3, Fraction(1, 2), stats)
    for dim in (d, 1):
        gl = from_sl_gl1(Fraction(1, 3), 2, 2, dim)
        closed = closed_form(dim, p, lam, gl, gr)
        meas = extract_charges(dim, p, lam, gl, gr)
        assert meas.glrep is gl and meas.grep is gr
        assert closed.c1_plus_c2 == closed.c1 + closed.c2
        if dim >= 2:
            assert meas == closed
        else:
            assert meas.c1 is None and meas.c2 is None
            assert meas == ChargeSet(*(None if name in ("c1", "c2") else getattr(closed, name)
                                       for name in ChargeSet.__slots__))


def test_a_cached_grid_point_calls_no_oracle(monkeypatch):
    """The second extract_charges at a (d, p), with other lambda, traces and
    statistics, makes no delta_pair_integral call; after cache_clear the
    first call makes them again."""
    calls = []
    oracle = wickcocycle.delta_pair_integral

    def counting(*args):
        calls.append(args)
        return oracle(*args)
    monkeypatch.setattr(wickcocycle, "delta_pair_integral", counting)
    wickcocycle._basis_channels.cache_clear()
    extract_charges(2, 3, Fraction(1, 2), GlRepTraces(2, 1, 0, 3), GRepTraces(1, 1, 0, 0))
    first = len(calls)
    assert first
    extract_charges(2, 3, Fraction(-3, 2), GlRepTraces(1, Fraction(2, 3), 5, -1),
                    GRepTraces(3, 2, 1, Fraction(1, 4), Statistics.FERMI))
    assert len(calls) == first
    wickcocycle._basis_channels.cache_clear()
    extract_charges(2, 3, 0, GlRepTraces(2, 1, 0, 3), GRepTraces(1, 1, 0, 0))
    assert len(calls) == 2 * first
