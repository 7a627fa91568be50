import contextlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetvir import exactpoly, jetreps
from jetvir.cocycles import divergence
from jetvir.exactpoly import Poly, lincomb, parse_poly
from jetvir.jetreps import (
    JetOperator,
    MatrixRep,
    StructureConstants,
    _bracket,
    _Prims,
    _insert_identity,
    _jet_matrix,
    _levi_civita,
    bracket,
    bracket_diff,
    bracket_gauge,
    bracket_mixed,
    diff_operator,
    embed_gauge_operator,
    gauge_operator,
    mat_is_zero,
    mat_mul,
    vector_field_bracket,
)
from jetvir.multiindex import binomial, enumerate_indices, sub as mi_sub, unit


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _rand_poly(d, deg, rng):
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < 0.5:
            terms[e] = Fraction(rng.randint(-3, 3))
    return Poly(d, terms)


def _deriv(f, order):
    """The partial derivative d^order of f, as repeated ``deriv``."""
    for mu, k in enumerate(order):
        for _ in range(k):
            f = f.deriv(mu)
    return f


def test_structure_constants_validation():
    sc = StructureConstants.epsilon()
    assert sc.dim == 3
    bad = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][1][0] = Fraction(1)  # not antisymmetric in the last pair swap
    bad[1][0][0] = Fraction(-1)
    with pytest.raises(ValueError, match="not totally antisymmetric"):
        StructureConstants(2, tuple(tuple(tuple(r) for r in m) for m in bad))
    # The checks run on int numerators over a common denominator: a scaled
    # epsilon is a Lie algebra, and f^{012} = 1/2, f^{234} = 2/3 in five
    # dimensions is totally antisymmetric but fails the Jacobi identity.
    half = tuple(tuple(tuple(c / 2 for c in r) for r in m) for m in sc.f)
    assert StructureConstants(3, half).f == half
    f = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for (a, b, c), v in (((0, 1, 2), Fraction(1, 2)), ((2, 3, 4), Fraction(2, 3))):
        for i, j, k in itertools.permutations((a, b, c)):
            f[i][j][k] = v * _levi_civita(*((a, b, c).index(x) for x in (i, j, k)))
    with pytest.raises(ValueError, match="violate the Jacobi identity"):
        StructureConstants(5, tuple(tuple(map(tuple, m)) for m in f))


def _numeric_matrix(rows):
    """A matrix of rationals as constant Polys in no variables."""
    return tuple(tuple(Poly.constant(0, v) for v in row) for row in rows)


def _commutator_equals(a, b, rhs):
    """[a, b] == rhs for square matrices of rationals."""
    return _bracket((), _numeric_matrix(a), (), _numeric_matrix(b)) == _numeric_matrix(rhs)


def _check_g_relations(rep, sc):
    """[M^a, M^b] = f^{abc} M^c, exactly."""
    mats = [rep.matrix(a) for a in range(sc.dim)]
    for a, b in itertools.product(range(sc.dim), repeat=2):
        rhs = [[sum(sc.f[a][b][c] * mats[c][i][j] for c in range(sc.dim))
                for j in range(rep.size)] for i in range(rep.size)]
        if not _commutator_equals(mats[a], mats[b], rhs):
            return False
    return True


def _check_gl_relations(rep, d):
    """[T^mu_rho, T^nu_sigma] = delta^nu_rho T^mu_sigma - delta^mu_sigma T^nu_rho,
    exactly."""
    t = {(a, b): rep.matrix((a, b)) for a in range(d) for b in range(d)}
    for mu, rho, nu, sigma in itertools.product(range(d), repeat=4):
        rhs = [[(nu == rho) * t[(mu, sigma)][i][j] - (mu == sigma) * t[(nu, rho)][i][j]
                for j in range(rep.size)] for i in range(rep.size)]
        if not _commutator_equals(t[(mu, rho)], t[(nu, sigma)], rhs):
            return False
    return True


def test_rep_relations():
    assert _check_g_relations(MatrixRep.g_rotation_adjoint(), StructureConstants.epsilon())
    assert _check_g_relations(MatrixRep.g_abelian(2), StructureConstants.abelian(2))
    for d in (1, 2, 3):
        assert _check_gl_relations(MatrixRep.gl_vector(d), d)
        assert _check_gl_relations(MatrixRep.gl_scalar_weight(d, Fraction(-1, 2)), d)


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
                lhs = bracket(gauge_operator(X, rep, d, p),
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
                lhs = bracket(diff_operator(xi, rep, d, p),
                              diff_operator(eta, rep, d, p))
                rhs = diff_operator(vector_field_bracket(xi, eta), rep, d, p)
                assert lhs == rhs


def test_diff_closure_example():
    rep = MatrixRep.gl_scalar_weight(1, 1)
    x = parse_poly("x0", 1)
    x2 = parse_poly("x0^2", 1)
    lhs = bracket(diff_operator([x2], rep, 1, 2),
                  diff_operator([x], rep, 1, 2))
    assert lhs == diff_operator([parse_poly("0 - x0^2", 1)], rep, 1, 2)


def test_jacobi_identity_direct():
    rng = random.Random(7)
    rep = MatrixRep.gl_vector(1)
    ops = [diff_operator([_rand_poly(1, 3, rng)], rep, 1, 2) for _ in range(3)]
    a = bracket(bracket(ops[0], ops[1]), ops[2])
    b = bracket(bracket(ops[1], ops[2]), ops[0])
    c = bracket(bracket(ops[2], ops[0]), ops[1])
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
        bracket(j1, j2)


def test_every_bracket_name_is_the_vector_field_bracket():
    rng = random.Random(9)
    rep = MatrixRep.gl_vector(2)
    xi = [_rand_poly(2, 3, rng) for _ in range(2)]
    eta = [_rand_poly(2, 3, rng) for _ in range(2)]
    l1, l2 = diff_operator(xi, rep, 2, 1), diff_operator(eta, rep, 2, 1)
    expected = diff_operator(vector_field_bracket(xi, eta), rep, 2, 1)
    for name in (bracket, bracket_gauge, bracket_diff):
        assert name(l1, l2) == expected


def test_bracket_of_a_current_and_a_vector_field_is_antisymmetric():
    # A one-generator g-rep of size 2 that does not commute with the frame
    # matrices of gl_vector(2), so that both orders have a nonzero matrix.
    grep = MatrixRep(2, ((0, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))),))
    xi = [parse_poly("x0 x1 + 2", 2), parse_poly("x0^2 - x1", 2)]
    L = diff_operator(xi, MatrixRep.gl_vector(2), 2, 1)
    J = gauge_operator([parse_poly("x0 - 3 x1^2", 2)], grep, 2, 1)
    lj, jl = bracket(L, J), bracket(J, L)
    assert lj.vector == jl.vector == ()
    assert not mat_is_zero(lj.matrix)
    assert jl.matrix == tuple(tuple(-x for x in row) for row in lj.matrix)
    # On one-dimensional reps the mixed bracket embeds nothing.
    L1 = diff_operator(xi, MatrixRep.gl_scalar_weight(2, Fraction(1, 2)), 2, 1)
    J1 = gauge_operator([parse_poly("x0 - 3 x1^2", 2)], MatrixRep.g_abelian(1), 2, 1)
    assert bracket(L1, J1) == bracket_mixed(L1, J1)


def test_embed_gauge_operator_needs_a_positive_rho_size():
    J = gauge_operator([parse_poly("x0", 1)], MatrixRep.g_abelian(1), 1, 1)
    for rho_size in (-1, 0):
        with pytest.raises(ValueError, match="size"):
            embed_gauge_operator(J, rho_size)
    assert embed_gauge_operator(J, 1) == J


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


def test_g_abelian_needs_one_value_per_generator():
    for n, values in ((2, [1]), (1, [1, 2]), (0, [1])):
        with pytest.raises(ValueError, match="values"):
            MatrixRep.g_abelian(n, values)
    assert MatrixRep.g_abelian(2, [3, 4]).matrix(1) == ((Fraction(4),),)


def test_empty_matrices():
    assert _bracket((), (), (), ()) == ()
    assert mat_mul((), ()) == ()


def test_mat_mul_rejects_a_shape_mismatch():
    # The first raised a bare IndexError; the second returned ((x^2,),).
    x = parse_poly("x0", 1)
    with pytest.raises(ValueError, match="2 columns but b has 1 rows"):
        mat_mul(((x, x),), ((x,),))
    with pytest.raises(ValueError, match="1 columns but b has 2 rows"):
        mat_mul(((x,),), ((x,), (x,)))
    assert mat_mul(((x, x),), ((x,), (x,))) == ((parse_poly("2 * x0^2", 1),),)


def test_factor_splits_entries_into_content_and_shared_prims():
    # Laurent entries, zeros, and entries equal up to a rational scalar of
    # either sign, within one operator and across two, vector parts included.
    f = parse_poly("2/3 * z^-2 - 4/3 * z^3", 1, "z")
    g = parse_poly("6 z - 9", 1, "z")
    z = Poly.zero(1)
    a = ((f, z, g.scale(Fraction(-1, 2))), (f.scale(-3), g, z))
    b = ((z, f.scale(Fraction(5, 7))), (g.scale(4), z))
    va, vb = (g.scale(Fraction(1, 5)), z), (z, f.scale(-1))
    prims = _Prims()
    factored = [(va, a, prims.operator(va, a)), (vb, b, prims.operator(vb, b))]
    assert [den for _, _, (den, _, _) in factored] == [30, 21]
    for v, m, (den, fv, rows) in factored:
        assert len(rows) == len(m)
        for row, fr in zip((v, *m), (fv, *rows)):
            assert set(fr) == {j for j, x in enumerate(row) if not x.is_zero()}
            for j, (c, k) in fr.items():
                prim = prims.prims[k]
                assert row[j] == Poly(1, prim).scale(Fraction(c, den))
                assert math.gcd(*prim.values()) == 1 and prim[max(prim)] > 0
    (_, fa, rows_a), (_, fb, rows_b) = (f for _, _, f in factored)
    prims_f = {rows_a[0][0][1], rows_a[1][0][1], rows_b[0][1][1], fb[1][1]}
    prims_g = {rows_a[0][2][1], rows_a[1][1][1], rows_b[1][0][1], fa[0][1]}
    assert len(prims_f) == len(prims_g) == 1 and prims_f != prims_g
    assert len(prims.prims) == 2
    # An entry object is factored once per operator, however often it occurs.
    calls = []
    factor = _Prims.factor

    def logged(self, num):
        calls.append(num)
        return factor(self, num)
    with mock.patch.object(_Prims, "factor", logged):
        _Prims().operator((f, f), ((f, g), (g, f)))
    assert len(calls) == 2


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
                if any(c < 0 for c in k) or sum(k) == 0:
                    continue
                entry = entry + _deriv(xi[mu], k).scale(b)
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


def test_bool_grid_raises_after_the_stencil_cache_is_primed():
    # True == 1 hashes like 1, so the stencil cache keyed by (d, p, s) must
    # not be consulted before the grid check.
    x = Poly.variable(1, 0)
    rep_g, rep_gl = MatrixRep.g_abelian(1), MatrixRep.gl_scalar_weight(1, 2)
    for p in (1, 2):
        gauge_operator([x], rep_g, 1, p)
        diff_operator([x], rep_gl, 1, p)
    for build, rep in ((gauge_operator, rep_g), (diff_operator, rep_gl)):
        with pytest.raises(ValueError, match="dimension must be"):
            build([x], rep, True, 2)
        with pytest.raises(ValueError, match="jet order must be"):
            build([x], rep, 1, True)


# -- differential test: the stencil builder against the dense one --------------

def _reference_jet_matrix(factors, size, d, p):
    """The dense builder: every block (m, n) of every factor is probed, and
    every entry, zero or not, is its own lincomb.  Also returns the term
    list of each entry with at least one term (whose sum may still cancel),
    keyed by position, each term as (coefficient, factor index, order)."""
    lattice = enumerate_indices(d, p)
    derivs = [{} for _ in factors]
    rows = []
    term_lists = {}
    for m in lattice:
        blocks = []
        for n in lattice:
            block = []
            for k, ((f, r, s), known) in enumerate(zip(factors, derivs)):
                ns = tuple(x - y for x, y in zip(n, s))
                b = binomial(m, ns)
                if b and (m != ns or not any(s)):
                    order = mi_sub(m, ns)
                    g = known.get(order)
                    if g is None:
                        g = known[order] = _deriv(f, order)
                    if not g.is_zero():
                        block.append((b, g, r, k, order))
            blocks.append(block)
        for i in range(size):
            terms = [[(b * r[i][j], g, k, order) for b, g, r, k, order in block if r[i][j]]
                     for block in blocks for j in range(size)]
            term_lists.update(((len(rows), j), tuple((c, k, o) for c, _, k, o in t))
                              for j, t in enumerate(terms) if t)
            rows.append(tuple(lincomb(d, [(c, g) for c, g, _, _ in t]) for t in terms))
    return tuple(rows), term_lists


def _dense_poly(d, deg, rng):
    """Every monomial of degree <= deg, each with a nonzero coefficient."""
    return Poly(d, {e: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
                    for e in enumerate_indices(d, deg)})


def _jet_factor_cases(d, p, rng):
    """The factor lists of ``gauge_operator`` and ``diff_operator`` on dense
    random fields, for abelian and rotation-adjoint currents and for scalar
    weight and vector gl-reps, and one list of an all-zero R_k beside
    fractional R_k, one of them shifted."""
    zero = (0,) * d
    for rep in (MatrixRep.g_abelian(2, [Fraction(1, 2), 3]), MatrixRep.g_rotation_adjoint()):
        mats = [m for _, m in rep.generators]
        X = [_dense_poly(d, p + 1, rng) for _ in mats]
        yield [(x, m, zero) for x, m in zip(X, mats)], rep.size
    for rep in (MatrixRep.gl_scalar_weight(d, Fraction(1, 2)), MatrixRep.gl_vector(d)):
        xi = [_dense_poly(d, 3, rng) for _ in range(d)]
        eye = tuple(tuple(Fraction(int(i == j)) for j in range(rep.size))
                    for i in range(rep.size))
        yield ([(xi[mu], eye, unit(d, mu)) for mu in range(d)]
               + [(xi[mu].deriv(nu), rep.matrix((nu, mu)), zero)
                  for nu in range(d) for mu in range(d)]), rep.size
    nil = ((Fraction(0),) * 2,) * 2
    r = ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(0), Fraction(5, 4)))
    yield [(_dense_poly(d, p + 1, rng), nil, zero), (_dense_poly(d, p + 1, rng), r, zero),
           (_dense_poly(d, 3, rng), r, unit(d, d - 1))], 2


def test_jet_matrix_matches_the_dense_builder_and_builds_each_distinct_entry_once():
    """Every d <= 3, p <= 3, walked forward and then in reverse against the
    same reference matrices, so a stencil cached under a wrong key shows up
    in one order or the other.  Entries with equal term lists are one Poly
    object; the builder calls lincomb only for entries of two or more
    terms, once per distinct term list; the entries without a term are one
    shared zero Poly.  A factor whose R_k has no nonzero cell is never
    differentiated, and no factor takes more than one derivative per
    nonzero order of its stencil.  An entry of one term with coefficient 1
    is the derivative object itself, not a copy."""
    rng = random.Random(15)
    cases = [(d, p, factors, size, *_reference_jet_matrix(factors, size, d, p))
             for d in (1, 2, 3) for p in range(4)
             for factors, size in _jet_factor_cases(d, p, rng)]
    calls, differentiated, derivatives = [], [], []
    ones = 0  # entries of one term with coefficient 1
    deriv = Poly.deriv

    def counting(dim, pairs):
        calls.append(len(pairs))
        return lincomb(dim, pairs)

    def logged_deriv(f, mu):
        differentiated.append(id(f))
        derivatives.append(deriv(f, mu))
        return derivatives[-1]
    for d, p, factors, size, expected, term_lists in cases + cases[::-1]:
        calls.clear()
        differentiated.clear()
        derivatives.clear()
        with (mock.patch.object(jetreps, "lincomb", counting),
              mock.patch.object(Poly, "deriv", logged_deriv)):
            got = _jet_matrix(factors, size, d, p)
        assert got == expected
        by_terms = {}
        for (i, j), terms in term_lists.items():
            by_terms.setdefault(terms, set()).add(id(got[i][j]))
        assert all(len(ids) == 1 for ids in by_terms.values())
        assert all(n >= 2 for n in calls)
        assert len(calls) == sum(len(terms) >= 2 for terms in by_terms)
        zeros = {id(x) for i, row in enumerate(got) for j, x in enumerate(row)
                 if (i, j) not in term_lists}
        assert len(zeros) <= 1
        orders = [{o for _, _, _, o in jetreps._stencil(d, p, s) if any(o)}
                  for f, r, s in factors if any(map(any, r)) and not f.is_zero()]
        assert len(differentiated) <= sum(map(len, orders))
        assert not {id(f) for f, r, _ in factors if not any(map(any, r))} & set(differentiated)
        # The builder's coefficient of a term is the reference's times the
        # lcm of the denominators of its R_k; a coefficient 1 of order 0
        # over R_k of denominator 1 is the factor f_k itself.
        dens = [math.lcm(*(v.denominator for row in r for v in row)) for _, r, _ in factors]
        made = {id(g) for g in derivatives}
        for (i, j), terms in term_lists.items():
            if len(terms) == 1 and terms[0][0] * dens[terms[0][1]] == 1:
                _, k, order = terms[0]
                x = got[i][j]
                ones += 1
                if any(order):
                    assert id(x) in made
                elif dens[k] == 1:
                    assert x is factors[k][0]
    assert ones


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
        log.append((x.numerators, y.numerators))
        return original(x, y)
    return mock.patch.object(Poly, "__mul__", mul)


def _up_to_scalars(num):
    """The numerators ``num`` divided by the one at their largest exponent."""
    lead = num[max(num)]
    return frozenset((e, Fraction(n, lead)) for e, n in num.items())


def _term_pairs(log):
    return Counter(len(x) * len(y) for x, y in log)


@contextlib.contextmanager
def _counting_kernel_products(log, planned):
    """Log the operand prims of each product of ``prim_products`` on its
    per-pair path in ``log``, and the prims and plans the bracket hands it
    in ``planned`` as (prim, prim, coefficient)."""
    num_mul, kernel = exactpoly._num_mul, jetreps.prim_products

    def logged_mul(a, b, one_var):
        log.append((a, b))
        return num_mul(a, b, one_var)

    def logged_kernel(dim, prims, den, ncols, rows):
        rows = list(rows)
        planned.extend((prims[a], prims[b], c) for row in rows for (_, a, b), c in row.items())
        return kernel(dim, prims, den, ncols, rows)
    with (mock.patch.object(exactpoly, "_num_mul", logged_mul),
          mock.patch.object(jetreps, "prim_products", logged_kernel),
          mock.patch.object(exactpoly, "_BITS_PER_PAIR", 0)):
        yield


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_bracket_cases())
def test_bracket_matches_the_composed_matrix_operations(case):
    """The one-kernel bracket against the composition it replaces, on Laurent
    entries with zeros, on the packed path and on the per-pair path: the
    same matrix; the products of the per-pair path, counted at its one
    multiply, are a sub-multiset of the composition's (by term-pair count);
    each distinct pair of prims with a nonzero planned coefficient is
    multiplied exactly once and a pair whose coefficients all cancelled
    never; no two of its products have operands equal up to rational
    scalars, in either order; and OverflowError exactly when the
    composition raises under a small degree cap."""
    args, cap = case
    ref_log, log, planned = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactpoly, "MAX_DEGREE", cap)
        try:
            with _counting_products(ref_log):
                expected = _reference_bracket(*args)
        except OverflowError:
            for bits in (1 << 60, 0):
                mp.setattr(exactpoly, "_BITS_PER_PAIR", bits)
                with pytest.raises(OverflowError):
                    _bracket(*args)
            return
        mp.setattr(exactpoly, "_BITS_PER_PAIR", 1 << 60)
        packed = _bracket(*args)
        with _counting_kernel_products(log, planned):
            got = _bracket(*args)
    assert got == packed == expected
    assert _term_pairs(log) <= _term_pairs(ref_log)
    made = [frozenset((id(x), id(y))) for x, y in log]
    assert len(set(made)) == len(made)
    assert set(made) == {frozenset((id(x), id(y))) for x, y, c in planned if c}
    operands = [frozenset((_up_to_scalars(x), _up_to_scalars(y))) for x, y in log]
    assert len(set(operands)) == len(operands)


def _built_operator_pairs(rng):
    """Pairs of operators from ``gauge_operator``, ``diff_operator`` and the
    two sides of ``bracket_mixed``, at d <= 2, p <= 2."""
    for d, p in ((1, 1), (1, 3), (2, 1), (2, 2)):
        sc_reps = (MatrixRep.g_abelian(2, [Fraction(1, 2), 3]), MatrixRep.g_rotation_adjoint())
        gl_reps = (MatrixRep.gl_scalar_weight(d, Fraction(-3, 2)), MatrixRep.gl_vector(d))
        for g_rep, gl_rep in zip(sc_reps, gl_reps):
            n = len(g_rep.generators)
            J1, J2 = (gauge_operator([_rand_poly(d, 2, rng) for _ in range(n)], g_rep, d, p)
                      for _ in range(2))
            L1, L2 = (diff_operator([_rand_poly(d, 3, rng) for _ in range(d)], gl_rep, d, p)
                      for _ in range(2))
            yield J1, J2
            yield L1, L2
            yield L1, L1
            yield (JetOperator(d, p, L1.rep_size * J1.rep_size, L1.vector,
                               _insert_identity(L1.matrix, J1.rep_size)),
                   embed_gauge_operator(J1, L1.rep_size))


def test_bracket_of_built_operators_matches_the_composed_matrix_operations():
    """The bracket of jet matrices from the builders, whose entries are
    shared objects that the bracket factors once each by id, against the
    composition of matrix operations.  The bracket takes its derivatives
    and products on int numerators: it calls neither ``Poly.deriv`` nor
    ``Poly.__mul__``."""
    rng = random.Random(19)
    for a, b in _built_operator_pairs(rng):
        with (mock.patch.object(Poly, "deriv", side_effect=AssertionError("deriv")),
              mock.patch.object(Poly, "__mul__", side_effect=AssertionError("mul"))):
            got = _bracket(a.vector, a.matrix, b.vector, b.matrix)
        assert got == _reference_bracket(a.vector, a.matrix, b.vector, b.matrix)
