"""Finite jet-space realizations of current and vector-field algebras.

A field truncated at jet order p is a finite vector of Taylor coefficients
phi_m (|m| <= p) around a base point q, tensored with a finite matrix
representation space.  Two families of operators act on it:

* ``GaugeJetOperator`` — the current generator for a g-valued function X:
  multiplication by X(x+q) followed by truncation, tensored with the rep
  matrices M^a.  Its blocks are binom(m,n) d_{m-n}X^a(q) M^a.
* ``DiffJetOperator`` — the vector-field generator for xi = xi^mu d_mu:
  a first-order differential operator in the base point q,
  xi^mu(q) d/dq^mu, plus a jet matrix combining Taylor transport by
  xi^mu(x+q) - xi^mu(q) with the frame rotation d_nu xi^mu(x+q) T^nu_mu.

Both jet matrices come from one builder of shifted factors, "apply
sum_k f_k(x+q) R_k d_{s_k}, truncate at p": s_k = 0 multiplies, and
s_k = e_mu with f_k = xi^mu, R_k = 1 is the transport term, which is also
the jet part of the momentum-like translation operator (no standalone value).

Matrix entries are polynomials in q, so operator equality is polynomial
equality and subsumes every numeric base point.  Bracket closure
([J_X, J_Y] = J_{[X,Y]}, [L_xi, L_eta] = L_{[xi,eta]}) holds exactly at
every truncation order because both transport (by functions with no
constant x-term) and multiplication preserve the ideal of monomials of
degree > p: the jet action is an exact quotient of the untruncated action.

Convention note: complex structure constants i f^{abc} of a compact algebra
are replaced by the real totally antisymmetric constants of the equivalent
real form, so that all arithmetic stays in exact rationals.  Concretely,
[M^a, M^b] = f^{abc} M^c with real f; for the three-dimensional rotation
algebra f^{abc} is the Levi-Civita symbol and (M^a)_{bc} = -eps_{abc}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .exactpoly import Poly, lincomb
from .multiindex import (
    binomial,
    enumerate_indices,
    sub as mi_sub,
    unit,
)

# -- exact matrices over Poly -------------------------------------------------

Matrix = Tuple[Tuple[Poly, ...], ...]


def _nonzero(vectors) -> List[dict]:
    """Per row (or column) of a matrix: its nonzero entries keyed by index."""
    return [{k: x for k, x in enumerate(v) if not x.is_zero()} for v in vectors]


def _products(row: dict, col: dict, sign: int) -> list:
    """The terms (sign, row[k] * col[k]) of sign * (row . col), one product
    through Poly.__mul__ for each k where both factors are nonzero."""
    return [(sign, x * col[k]) for k, x in row.items() if k in col]


def _along(a: Sequence[Poly], f: Poly, sign: int) -> list:
    """The terms (sign, a^nu * d_nu f) of sign * a^nu d_nu f, skipping those
    where a^nu or d_nu f is zero."""
    if f.is_zero():
        return []
    out = []
    for nu, c in enumerate(a):
        if not c.is_zero():
            df = f.deriv(nu)
            if not df.is_zero():
                out.append((sign, c * df))
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    dim = a[0][0].dim if a else 0
    cols = _nonzero(zip(*b))
    return tuple(tuple(lincomb(dim, _products(row, col, 1)) for col in cols)
                 for row in _nonzero(a))


def _bracket(a1: Sequence[Poly], b1: Matrix, a2: Sequence[Poly], b2: Matrix) -> Matrix:
    """Matrix part of the commutator of first-order operators a.d/dq + B(q):

    [a1.d + B1, a2.d + B2] = (a1.d a2 - a2.d a1).d
                             + (a1.d B2 - a2.d B1 + B1 B2 - B2 B1).

    a1, a2 are vector parts (Polys in q, empty for none) and b1, b2 square
    matrices of Polys in q.  Each entry of the result is one ``lincomb`` of
    its products and directional-derivative terms.
    """
    dim = b1[0][0].dim
    rows1, rows2 = _nonzero(b1), _nonzero(b2)
    cols1, cols2 = _nonzero(zip(*b1)), _nonzero(zip(*b2))
    return tuple(
        tuple(lincomb(dim, _products(r1, c2, 1) + _products(r2, c1, -1)
                      + _along(a1, x2, 1) + _along(a2, x1, -1))
              for x1, x2, c1, c2 in zip(e1, e2, cols1, cols2))
        for e1, e2, r1, r2 in zip(b1, b2, rows1, rows2))


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return _bracket((), a, (), b)


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def numeric_matrix(rows: Sequence[Sequence], dim: int) -> Matrix:
    """Lift a matrix of rationals to a matrix of constant Polys in dim vars."""
    return tuple(
        tuple(Poly.constant(dim, Fraction(v)) for v in row) for row in rows
    )


def _commutator_equals(a, b, rhs) -> bool:
    """[a, b] == rhs for square matrices of rationals."""
    return mat_commutator(numeric_matrix(a, 0),
                          numeric_matrix(b, 0)) == numeric_matrix(rhs, 0)


# -- structure constants and matrix representations ---------------------------

def _levi_civita(a: int, b: int, c: int) -> int:
    """The Levi-Civita symbol eps_{abc} on the indices 0, 1, 2."""
    return (a - b) * (b - c) * (c - a) // 2 if {a, b, c} == {0, 1, 2} else 0


@dataclass(frozen=True)
class StructureConstants:
    """Totally antisymmetric real structure constants f^{abc} of a Lie
    algebra g, with [X, Y]^c = f^{abc} X^a Y^b."""
    dim: int
    f: Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

    def __post_init__(self):
        n = self.dim
        f = self.f
        if len(f) != n or any(len(r) != n or any(len(c) != n for c in r) for r in f):
            raise ValueError("structure constant tensor has wrong shape")
        for a, b, c in itertools.product(range(n), repeat=3):
            if f[a][b][c] != -f[b][a][c] or f[a][b][c] != -f[a][c][b]:
                raise ValueError("structure constants are not totally antisymmetric")
        for a, b, c, d in itertools.product(range(n), repeat=4):
            s = sum(
                f[a][b][e] * f[e][c][d]
                + f[b][c][e] * f[e][a][d]
                + f[c][a][e] * f[e][b][d]
                for e in range(n)
            )
            if s != 0:
                raise ValueError("structure constants violate the Jacobi identity")

    @classmethod
    def abelian(cls, dim: int) -> "StructureConstants":
        z = Fraction(0)
        f = tuple(tuple(tuple(z for _ in range(dim)) for _ in range(dim))
                  for _ in range(dim))
        return cls(dim, f)

    @classmethod
    def epsilon(cls) -> "StructureConstants":
        """f^{abc} = Levi-Civita symbol (three-dimensional rotation algebra)."""
        f = tuple(
            tuple(tuple(Fraction(_levi_civita(a, b, c)) for c in range(3))
                  for b in range(3))
            for a in range(3)
        )
        return cls(3, f)

    def bracket_components(self, x: Sequence[Poly], y: Sequence[Poly]) -> List[Poly]:
        """Pointwise Lie bracket of g-valued functions:
        [x, y]^c = f^{abc} x^a y^b, for x and y of ``dim`` components each."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"the bracket needs {n} components on each side, "
                             f"got {len(x)} and {len(y)}")
        if not n:
            return []
        pairs = [(a, b) for a in range(n) if not x[a].is_zero()
                 for b in range(n) if not y[b].is_zero()]
        return [lincomb(x[0].dim, [(self.f[a][b][c], x[a] * y[b])
                                   for a, b in pairs if self.f[a][b][c]])
                for c in range(n)]


@dataclass(frozen=True)
class MatrixRep:
    """A labelled family of exact square matrices.

    For a g-rep the labels are generator indices a = 0..n-1; for a gl(d)
    rep the labels are pairs (mu, nu) for T^mu_nu.  Entries are rationals.
    """
    size: int
    generators: Tuple[Tuple[object, Tuple[Tuple[Fraction, ...], ...]], ...]

    def matrix(self, label) -> Tuple[Tuple[Fraction, ...], ...]:
        for lab, m in self.generators:
            if lab == label:
                return m
        raise KeyError(f"no generator labelled {label!r}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def g_abelian(cls, n: int, values: Sequence = None) -> "MatrixRep":
        """One-dimensional rep of an abelian algebra: M^a = (value_a)."""
        vals = [Fraction(1)] * n if values is None else [Fraction(v) for v in values]
        gens = tuple((a, ((vals[a],),)) for a in range(n))
        return cls(1, gens)

    @classmethod
    def g_rotation_adjoint(cls) -> "MatrixRep":
        """Adjoint of the rotation algebra: (M^a)_{bc} = -eps_{abc}, which
        satisfies [M^a, M^b] = eps^{abc} M^c."""
        gens = tuple(
            (a, tuple(tuple(Fraction(-_levi_civita(a, b, c)) for c in range(3))
                      for b in range(3)))
            for a in range(3)
        )
        return cls(3, gens)

    @classmethod
    def gl_scalar_weight(cls, d: int, kappa) -> "MatrixRep":
        """One-dimensional weight rep: T^mu_nu = kappa * delta^mu_nu."""
        k = Fraction(kappa)
        gens = tuple(
            ((mu, nu), ((k if mu == nu else Fraction(0),),))
            for mu in range(d) for nu in range(d)
        )
        return cls(1, gens)

    @classmethod
    def gl_vector(cls, d: int) -> "MatrixRep":
        """Defining rep: (T^mu_rho)_{ij} = delta_{i,mu} delta_{j,rho}."""
        gens = tuple(
            ((mu, rho),
             tuple(tuple(Fraction(1 if (i == mu and j == rho) else 0)
                         for j in range(d)) for i in range(d)))
            for mu in range(d) for rho in range(d)
        )
        return cls(d, gens)

    # -- relation checks -----------------------------------------------------

    def check_g_relations(self, sc: StructureConstants) -> bool:
        """[M^a, M^b] = f^{abc} M^c, exactly; False if some M^a is missing."""
        try:
            mats = [self.matrix(a) for a in range(sc.dim)]
        except KeyError:
            return False
        for a, b in itertools.product(range(sc.dim), repeat=2):
            rhs = [[sum(sc.f[a][b][c] * mats[c][i][j] for c in range(sc.dim))
                    for j in range(self.size)] for i in range(self.size)]
            if not _commutator_equals(mats[a], mats[b], rhs):
                return False
        return True

    def check_gl_relations(self, d: int) -> bool:
        """[T^mu_rho, T^nu_sigma] = delta^nu_rho T^mu_sigma
        - delta^mu_sigma T^nu_rho, exactly."""
        t = {(a, b): self.matrix((a, b)) for a in range(d) for b in range(d)}
        for mu, rho, nu, sigma in itertools.product(range(d), repeat=4):
            rhs = [[(nu == rho) * t[(mu, sigma)][i][j] - (mu == sigma) * t[(nu, rho)][i][j]
                    for j in range(self.size)] for i in range(self.size)]
            if not _commutator_equals(t[(mu, rho)], t[(nu, sigma)], rhs):
                return False
        return True


# -- jet block builders --------------------------------------------------------

def _jet_matrix(factors: Sequence[Tuple[Poly, Sequence[Sequence], Tuple[int, ...]]],
                size: int, d: int, p: int) -> Matrix:
    """Matrix on (jet) (x) (rep of the given size), entries Poly in q, of
    "apply sum_k f_k(x+q) R_k d_{s_k}, truncate at p" in the Taylor basis
    x^n/n!: block (m, n) = sum_k binom(m, n - s_k) d_{m-n+s_k}f_k(q) R_k.

    ``factors`` holds the triples (f_k, R_k, s_k) of a Poly in d variables,
    a size x size matrix of rationals and a shift s_k that is zero (a
    multiplication) or a unit e_mu (d_mu, then a multiplication).  For
    s_k != 0 the term m = n - s_k, f_k(q) d_{s_k}, is left out: it is the
    base-point part xi(q).d/dq that ``DiffJetOperator.vector`` carries, so
    the factor transports by f_k(x+q) - f_k(q).
    """
    lattice = enumerate_indices(d, p)
    derivs = [{} for _ in factors]  # per factor: order -> d_order f_k
    rows = []
    for m in lattice:
        blocks = []  # per column index n: the (binom, nonzero d_{m-n+s}f_k, R_k)
        for n in lattice:
            block = []
            for (f, r, s), known in zip(factors, derivs):
                ns = tuple(x - y for x, y in zip(n, s))
                b = binomial(m, ns)
                if b and (m != ns or not any(s)):
                    order = mi_sub(m, ns)
                    g = known.get(order)
                    if g is None:
                        g = known[order] = f.deriv_multi(order)
                    if not g.is_zero():
                        block.append((b, g, r))
            blocks.append(block)
        for i in range(size):
            rows.append(tuple(lincomb(d, [(b * r[i][j], g) for b, g, r in block if r[i][j]])
                              for block in blocks for j in range(size)))
    return tuple(rows)


# -- operators -----------------------------------------------------------------

@dataclass(frozen=True)
class GaugeJetOperator:
    d: int
    p: int
    rep_size: int
    matrix: Matrix  # size lattice * rep_size, entries Poly in q

    def is_zero(self) -> bool:
        return mat_is_zero(self.matrix)


@dataclass(frozen=True)
class DiffJetOperator:
    d: int
    p: int
    rep_size: int
    vector: Tuple[Poly, ...]  # a^mu(q) = xi^mu(q)
    matrix: Matrix            # jet (x) gl-rep block, entries Poly in q

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.vector) and mat_is_zero(self.matrix)


def _check_components(comps: Sequence[Poly], d: int, count: int, what: str) -> None:
    if len(comps) != count:
        raise ValueError(f"{what} needs {count} components, got {len(comps)}")
    for c in comps:
        if c.dim != d:
            raise ValueError(f"{what} components must be polynomials in {d} variables")
        if c.is_laurent():
            raise ValueError(f"{what} components must have non-negative exponents")


def gauge_operator(X: Sequence[Poly], rep: MatrixRep, d: int, p: int) -> GaugeJetOperator:
    """The jet current generator: blocks binom(m, n) d_{m-n}X^a(q) M^a."""
    n_gen = len(rep.generators)
    _check_components(X, d, n_gen, "g-valued function")
    try:
        mats = [rep.matrix(a) for a in range(n_gen)]
    except KeyError as exc:
        raise ValueError(f"a g-rep needs generators labelled 0..{n_gen - 1}") from exc
    matrix = _jet_matrix([(X[a], mats[a], (0,) * d) for a in range(n_gen)], rep.size, d, p)
    return GaugeJetOperator(d, p, rep.size, matrix)


def diff_operator(xi: Sequence[Poly], rep: MatrixRep, d: int, p: int) -> DiffJetOperator:
    """The jet vector-field generator for xi = xi^mu d_mu.

    Vector part: xi^mu(q) acting as a first-order operator in q.
    Matrix part: transport by xi^mu(x+q) - xi^mu(q) plus the frame term
    d_nu xi^mu(x+q) T^nu_mu, both truncated at jet order p.
    """
    _check_components(xi, d, d, "vector field")
    labels = [lab for lab, _ in rep.generators]
    frame = [(nu, mu) for nu in range(d) for mu in range(d)]
    if len(labels) != len(frame) or set(labels) != set(frame):
        raise ValueError(f"a gl-rep for d = {d} needs exactly the generators "
                         f"labelled (nu, mu) with nu, mu < {d}")
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(rep.size))
                for i in range(rep.size))
    matrix = _jet_matrix(
        [(xi[mu], eye, unit(d, mu)) for mu in range(d)]
        + [(xi[mu].deriv(nu), rep.matrix((nu, mu)), (0,) * d)
           for nu in range(d) for mu in range(d)],
        rep.size, d, p)
    return DiffJetOperator(d, p, rep.size, tuple(xi), matrix)


def vector_field_bracket(xi: Sequence[Poly], eta: Sequence[Poly]) -> List[Poly]:
    """[xi, eta]^mu = xi^nu d_nu eta^mu - eta^nu d_nu xi^mu."""
    d = len(xi)
    if len(eta) != d or any(c.dim != d for c in (*xi, *eta)):
        raise ValueError(f"vector fields need {d} components in {d} variables each")
    return [lincomb(d, _along(xi, e, 1) + _along(eta, x, -1)) for x, e in zip(xi, eta)]


def divergence(xi: Sequence[Poly]) -> Poly:
    """div xi = d_mu xi^mu of a vector field: d components in d variables."""
    if not xi or any(c.dim != len(xi) for c in xi):
        raise ValueError("divergence needs a vector field of d components "
                         "in d variables each")
    acc = Poly.zero(len(xi))
    for mu, c in enumerate(xi):
        acc = acc + c.deriv(mu)
    return acc


def bracket_gauge(j1: GaugeJetOperator, j2: GaugeJetOperator) -> GaugeJetOperator:
    if (j1.d, j1.p, j1.rep_size) != (j2.d, j2.p, j2.rep_size):
        raise ValueError("operator shape mismatch")
    return GaugeJetOperator(j1.d, j1.p, j1.rep_size,
                            _bracket((), j1.matrix, (), j2.matrix))


def bracket_diff(l1: DiffJetOperator, l2: DiffJetOperator) -> DiffJetOperator:
    """Commutator of first-order operators a.d/dq + B(q):

    [a1.d + B1, a2.d + B2]
      = (a1.d a2 - a2.d a1).d + (a1.d B2 - a2.d B1 + [B1, B2]).
    """
    if (l1.d, l1.p, l1.rep_size) != (l2.d, l2.p, l2.rep_size):
        raise ValueError("operator shape mismatch")
    vector = vector_field_bracket(l1.vector, l2.vector)
    matrix = _bracket(l1.vector, l1.matrix, l2.vector, l2.matrix)
    return DiffJetOperator(l1.d, l1.p, l1.rep_size, tuple(vector), matrix)


def bracket_mixed(l: DiffJetOperator, j: GaugeJetOperator) -> GaugeJetOperator:
    """Commutator of a vector-field generator with a current generator,
    acting on the combined space (jet) (x) (gl-rep) (x) (g-rep):

    [a.d/dq + B (x) I_M,  J (x nothing on gl slot)]
      = a.d J  +  [B (x) I_M, I_rho (x) J-blocks].

    The result is a pure multiplication-type operator and is returned as a
    GaugeJetOperator on the combined rep space of size rep_size(l) *
    rep_size(j).  The frame term of B drops out exactly (jet multiplication
    matrices commute), leaving transport only, so the bracket equals the
    current generator of the transported function xi^mu d_mu X — not of the
    weight-one combination xi^mu d_mu X + d_mu xi^mu X, which a constant X
    in an abelian algebra immediately rules out (its generator is central
    in the jet matrix algebra, yet the weight-one formula would be nonzero).
    """
    if (l.d, l.p) != (j.d, j.p):
        raise ValueError("operator shape mismatch")
    # L acts on (jet x rho) as l.matrix, J on (jet x M) as j.matrix; both
    # are extended to (jet x rho x M).
    l_full = _insert_identity(l.matrix, j.rep_size)
    j_full = _insert_identity(j.matrix, l.rep_size, j.rep_size)
    matrix = _bracket(l.vector, l_full, (), j_full)
    return GaugeJetOperator(l.d, l.p, l.rep_size * j.rep_size, matrix)


def _insert_identity(a: Matrix, k: int, w: int = 1) -> Matrix:
    """Re-index a matrix on U (x) W, with dim W = w, onto U (x) C^k (x) W,
    acting as the identity on the inserted C^k."""
    n = len(a) // w
    z = Poly.zero(a[0][0].dim)
    return tuple(
        tuple(a[u * w + i][v * w + j] if kappa == lam else z
              for v in range(n) for lam in range(k) for j in range(w))
        for u in range(n) for kappa in range(k) for i in range(w))


def embed_gauge_operator(j: GaugeJetOperator, rho_size: int) -> GaugeJetOperator:
    """The gauge operator acting trivially on an extra gl-rep factor of the
    given size (for comparison against mixed brackets)."""
    return GaugeJetOperator(j.d, j.p, rho_size * j.rep_size,
                            _insert_identity(j.matrix, rho_size, j.rep_size))
