import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir.exactpoly import Poly, parse_poly
from jetvir.jetreps import (
    MatrixRep,
    StructureConstants,
    _bracket,
    _insert_identity,
    bracket_diff,
    bracket_gauge,
    bracket_mixed,
    diff_operator,
    divergence,
    embed_gauge_operator,
    gauge_operator,
    mat_is_zero,
    vector_field_bracket,
)
from jetvir.multiindex import binomial, enumerate_indices, norm, sub as mi_sub, unit


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _rand_poly(d, deg, rng):
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < 0.5:
            terms[e] = Fraction(rng.randint(-3, 3))
    return Poly(d, terms)


def test_structure_constants_validation():
    sc = StructureConstants.epsilon()
    assert sc.dim == 3
    bad = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][1][0] = Fraction(1)  # not antisymmetric in the last pair swap
    bad[1][0][0] = Fraction(-1)
    with pytest.raises(ValueError):
        StructureConstants(2, tuple(tuple(tuple(r) for r in m) for m in bad))


def test_rep_relations():
    assert MatrixRep.g_rotation_adjoint().check_g_relations(
        StructureConstants.epsilon())
    assert MatrixRep.g_abelian(2).check_g_relations(StructureConstants.abelian(2))
    for d in (1, 2, 3):
        assert MatrixRep.gl_vector(d).check_gl_relations(d)
        assert MatrixRep.gl_scalar_weight(d, Fraction(-1, 2)).check_gl_relations(d)


def test_gauge_operator_constant_function():
    # A constant function produces a block-diagonal operator: every diagonal
    # jet block is the same constant multiple of the rep matrix.
    rep = MatrixRep.g_abelian(1, [Fraction(1)])
    op = gauge_operator([Poly.constant(1, 5)], rep, 1, 2)
    for i in range(3):
        for j in range(3):
            expected = Fraction(5) if i == j else Fraction(0)
            assert op.matrix[i][j] == Poly.constant(1, expected)


def test_gauge_operator_linear_function():
    # d=1, p=1, X = x: diagonal entries X(q) = q, lower block d X = 1.
    rep = MatrixRep.g_abelian(1)
    op = gauge_operator([parse_poly("x0", 1)], rep, 1, 1)
    q = parse_poly("x0", 1)
    assert op.matrix[0][0] == q
    assert op.matrix[1][1] == q
    assert op.matrix[1][0] == Poly.constant(1, 1)
    assert op.matrix[0][1].is_zero()


def test_diff_operator_constant_field():
    rep = MatrixRep.gl_scalar_weight(1, Fraction(3))
    op = diff_operator([Poly.constant(1, 2)], rep, 1, 2)
    assert op.vector == (Poly.constant(1, 2),)
    assert mat_is_zero(op.matrix)


def test_gauge_closure_random():
    rng = random.Random(5)
    cases = [
        (StructureConstants.abelian(1), MatrixRep.g_abelian(1)),
        (StructureConstants.epsilon(), MatrixRep.g_rotation_adjoint()),
    ]
    for d in (1, 2):
        for p in (0, 2):
            for sc, rep in cases:
                X = [_rand_poly(d, p + 1, rng) for _ in range(sc.dim)]
                Y = [_rand_poly(d, p + 1, rng) for _ in range(sc.dim)]
                lhs = bracket_gauge(gauge_operator(X, rep, d, p),
                                    gauge_operator(Y, rep, d, p))
                rhs = gauge_operator(sc.bracket_components(X, Y), rep, d, p)
                assert lhs == rhs


def test_diff_closure_random():
    rng = random.Random(6)
    for d in (1, 2):
        for p in (0, 2):
            for rep in (MatrixRep.gl_scalar_weight(d, Fraction(2, 3)),
                        MatrixRep.gl_vector(d)):
                xi = [_rand_poly(d, 4, rng) for _ in range(d)]
                eta = [_rand_poly(d, 4, rng) for _ in range(d)]
                lhs = bracket_diff(diff_operator(xi, rep, d, p),
                                   diff_operator(eta, rep, d, p))
                rhs = diff_operator(vector_field_bracket(xi, eta), rep, d, p)
                assert lhs == rhs


def test_diff_closure_example():
    rep = MatrixRep.gl_scalar_weight(1, 1)
    x = parse_poly("x0", 1)
    x2 = parse_poly("x0^2", 1)
    lhs = bracket_diff(diff_operator([x2], rep, 1, 2),
                       diff_operator([x], rep, 1, 2))
    assert lhs == diff_operator([parse_poly("0 - x0^2", 1)], rep, 1, 2)


def test_jacobi_identity_direct():
    rng = random.Random(7)
    rep = MatrixRep.gl_vector(1)
    ops = [diff_operator([_rand_poly(1, 3, rng)], rep, 1, 2) for _ in range(3)]
    a = bracket_diff(bracket_diff(ops[0], ops[1]), ops[2])
    b = bracket_diff(bracket_diff(ops[1], ops[2]), ops[0])
    c = bracket_diff(bracket_diff(ops[2], ops[0]), ops[1])
    assert all((a.vector[i] + b.vector[i] + c.vector[i]).is_zero()
               for i in range(1))
    assert mat_is_zero(_mat_add(_mat_add(a.matrix, b.matrix), c.matrix))


def test_mixed_bracket_is_transport():
    rng = random.Random(8)
    grep = MatrixRep.g_abelian(1)
    for d in (1, 2):
        for p in (0, 1, 2):
            for glrep in (MatrixRep.gl_scalar_weight(d, Fraction(1, 2)),
                          MatrixRep.gl_vector(d)):
                xi = [_rand_poly(d, 3, rng) for _ in range(d)]
                X = [_rand_poly(d, p + 1, rng)]
                lhs = bracket_mixed(diff_operator(xi, glrep, d, p),
                                    gauge_operator(X, grep, d, p))
                transported = [sum((xi[mu] * X[0].deriv(mu) for mu in range(d)),
                                   Poly.zero(d))]
                rhs = embed_gauge_operator(
                    gauge_operator(transported, grep, d, p), glrep.size)
                assert lhs == rhs


def test_mixed_bracket_constant_function_is_central():
    # The operator of a constant function is a multiple of the identity and
    # commutes with everything: the mixed bracket must vanish even when the
    # vector field has nonzero divergence.
    grep = MatrixRep.g_abelian(1)
    glrep = MatrixRep.gl_scalar_weight(1, 0)
    L = diff_operator([parse_poly("x0", 1)], glrep, 1, 1)
    J = gauge_operator([Poly.constant(1, 1)], grep, 1, 1)
    assert bracket_mixed(L, J).is_zero()


def test_shape_mismatch_rejected():
    rep = MatrixRep.g_abelian(1)
    j1 = gauge_operator([Poly.constant(1, 1)], rep, 1, 1)
    j2 = gauge_operator([Poly.constant(1, 1)], rep, 1, 2)
    with pytest.raises(ValueError):
        bracket_gauge(j1, j2)


def test_vector_field_bracket_rejects_mismatched_lengths():
    x = parse_poly("x0", 1)
    with pytest.raises(ValueError):
        vector_field_bracket([x, x], [x])
    with pytest.raises(ValueError):
        vector_field_bracket([x], [x, x])


def test_divergence_rejects_a_malformed_vector_field():
    x = parse_poly("x0", 2)
    for xi in ([], [x], [x, x, x], [parse_poly("x0", 1), parse_poly("x0", 1)]):
        with pytest.raises(ValueError, match="vector field"):
            divergence(xi)
    assert divergence([x, parse_poly("x0 x1", 2)]) == parse_poly("1 + x0", 2)


def test_gauge_operator_rejects_a_rep_not_labelled_by_generator_index():
    x = parse_poly("x0", 2)
    with pytest.raises(ValueError, match="labelled"):
        gauge_operator([x] * 4, MatrixRep.gl_vector(2), 2, 1)


def test_diff_operator_rejects_a_gl_rep_built_for_another_d():
    xi = [parse_poly("x0", 2), parse_poly("x1", 2)]
    for rep in (MatrixRep.gl_scalar_weight(1, 1), MatrixRep.gl_scalar_weight(3, 1),
                MatrixRep.gl_vector(3), MatrixRep.g_abelian(4)):
        with pytest.raises(ValueError, match="labelled"):
            diff_operator(xi, rep, 2, 1)
    assert diff_operator(xi, MatrixRep.gl_vector(2), 2, 1).rep_size == 2


def test_bracket_components_needs_dim_components_on_each_side():
    sc = StructureConstants.epsilon()
    x = parse_poly("x0", 1)
    for n, m in ((2, 2), (4, 4), (3, 2), (2, 3), (3, 4)):
        with pytest.raises(ValueError, match="components"):
            sc.bracket_components([x] * n, [x] * m)
    y = parse_poly("x0^2", 1)
    z = Poly.zero(1)
    assert sc.bracket_components([x, z, z], [z, y, z]) == [z, z, x * y]


def test_g_relations_false_when_a_generator_is_missing():
    assert MatrixRep.g_abelian(2).check_g_relations(StructureConstants.epsilon()) is False


# -- differential test: diff_operator against a separate transport matrix ------

def _reference_transport(xi, d, p):
    """Jet matrix of phi -> (xi_0^mu d_mu phi)|_p with
    xi_0^mu(x; q) = xi^mu(x+q) - xi^mu(q), written out on its own: the
    (m, n) entry is sum_mu binom(m, n-e_mu) d_{m-n+e_mu} xi^mu(q) over the
    directions with n_mu > 0 and |m - n + e_mu| >= 1."""
    lattice = enumerate_indices(d, p)
    rows = []
    for m in lattice:
        row = []
        for n in lattice:
            entry = Poly.zero(d)
            for mu in range(d):
                if n[mu] == 0:
                    continue
                nprime = mi_sub(n, unit(d, mu))
                b = binomial(m, nprime)
                if b == 0:
                    continue
                k = tuple(mi - ni for mi, ni in zip(m, nprime))
                if any(c < 0 for c in k) or norm(k) == 0:
                    continue
                entry = entry + xi[mu].deriv_multi(k).scale(b)
            row.append(entry)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def _diff_cases(draw):
    d = draw(st.integers(1, 3))
    p = draw(st.integers(0, 3))
    rng = draw(st.randoms(use_true_random=False))
    xi = [_rand_poly(d, draw(st.integers(0, 4)), rng) for _ in range(d)]
    rep = draw(st.sampled_from([MatrixRep.gl_scalar_weight(d, Fraction(-3, 2)),
                                MatrixRep.gl_vector(d)]))
    return xi, rep, d, p


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_diff_cases())
def test_diff_operator_is_transport_plus_frame(case):
    # The jet matrix of L_xi is the transport by xi(x+q) - xi(q), tensored
    # with the identity on the rep, plus the current of the components
    # d_nu xi^mu over the generators T^nu_mu.
    xi, rep, d, p = case
    labels = [(nu, mu) for nu in range(d) for mu in range(d)]
    frame_rep = MatrixRep(rep.size, tuple(
        (k, rep.matrix(lab)) for k, lab in enumerate(labels)))
    frame = gauge_operator([xi[mu].deriv(nu) for nu, mu in labels],
                           frame_rep, d, p).matrix
    transport = _insert_identity(_reference_transport(xi, d, p), rep.size)
    assert diff_operator(xi, rep, d, p).matrix == _mat_add(transport, frame)


# -- differential test: one bracket kernel against the composed matrix ops -----

def _ref_mat_mul(a, b):
    bt = list(zip(*b))
    out = []
    for row in a:
        nz = [(j, x) for j, x in enumerate(row) if not x.is_zero()]
        orow = []
        for col in bt:
            acc = Poly.zero(a[0][0].dim)
            for j, x in nz:
                if not col[j].is_zero():
                    acc = acc + x * col[j]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def _ref_mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _ref_along(a, f):
    acc = Poly.zero(f.dim)
    for nu, c in enumerate(a):
        if not c.is_zero():
            df = f.deriv(nu)
            if not df.is_zero():
                acc = acc + c * df
    return acc


def _ref_directional_derivative(a, target):
    return tuple(tuple(_ref_along(a, entry) for entry in row) for row in target)


def _reference_bracket(a1, b1, a2, b2):
    """a1.dB2 - a2.dB1 + B1B2 - B2B1 as sums and differences of whole
    matrices, one fold of * and + per matrix-product entry."""
    dd = _ref_directional_derivative
    return _mat_add(_ref_mat_sub(dd(a1, b2), dd(a2, b1)),
                    _ref_mat_sub(_ref_mat_mul(b1, b2), _ref_mat_mul(b2, b1)))


@st.composite
def _bracket_cases(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(-2, 3)] * d), coeffs,
                            min_size=1, max_size=3)
    polys = st.one_of(terms.map(lambda t: Poly(d, t)), st.just(Poly.zero(d)))
    matrix = st.lists(polys, min_size=n * n, max_size=n * n).map(
        lambda xs: tuple(tuple(xs[i * n:(i + 1) * n]) for i in range(n)))
    vector = st.one_of(st.tuples(*[polys] * d), st.just(()))
    return (draw(vector), draw(matrix), draw(vector), draw(matrix)), draw(st.integers(4, 12))


def _counting_products(log):
    original = Poly.__mul__

    def mul(x, y):
        log.append(len(x.numerators) * len(y.numerators))
        return original(x, y)
    return mock.patch.object(Poly, "__mul__", mul)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_bracket_cases())
def test_bracket_matches_the_composed_matrix_operations(case):
    """The one-kernel bracket against the composition it replaces, on Laurent
    entries with zeros: the same matrix, the same products (count and term
    pairs), and OverflowError exactly when the composition raises under a
    small degree cap."""
    args, cap = case
    ref_log, log = [], []
    with mock.patch.dict(os.environ, {"JETVIR_MAX_DEGREE": str(cap)}):
        try:
            with _counting_products(ref_log):
                expected = _reference_bracket(*args)
        except OverflowError:
            with pytest.raises(OverflowError):
                _bracket(*args)
            return
        with _counting_products(log):
            got = _bracket(*args)
    assert got == expected
    assert sorted(log) == sorted(ref_log)
