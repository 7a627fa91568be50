"""Finite jet-space realizations of current and vector-field algebras.

A field truncated at jet order p is a finite vector of Taylor coefficients
phi_m (|m| <= p) around a base point q, tensored with a finite matrix
representation space.  Every generator is one ``JetOperator``, a
first-order operator a^mu(q) d/dq^mu + B(q) with a vector part a and a jet
matrix B; one ``bracket`` commutes any two of them.

* The current generator for a g-valued function X has no vector part
  (``vector == ()``): multiplication by X(x+q) followed by truncation,
  tensored with the rep matrices M^a.  Its blocks are binom(m,n)
  d_{m-n}X^a(q) M^a.
* The vector-field generator for xi = xi^mu d_mu has the vector part
  xi^mu(q) and a jet matrix combining Taylor transport by
  xi^mu(x+q) - xi^mu(q) with the frame rotation d_nu xi^mu(x+q) T^nu_mu.

Both jet matrices come from one builder of shifted factors, "apply
sum_k f_k(x+q) R_k d_{s_k}, truncate at p": s_k = 0 multiplies, and
s_k = e_mu with f_k = xi^mu, R_k = 1 is the transport term, which is also
the jet part of the momentum-like translation operator (no standalone value).

Matrix entries are polynomials in q, so operator equality is polynomial
equality and subsumes every numeric base point.  For Laurent fields, the
Fourier modes of the torus, the entries are Laurent polynomials in q, and
equality holds at every base point where they are defined.  Bracket closure
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

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exactpoly import (Poly, _num_deriv, _ratio, _Record, _set, _wrap, check_field, exact,
                        lincomb, prim_products)
from .multiindex import (
    MultiIndex,
    binomial,
    check_direction,
    check_int,
    enumerate_indices,
    sub as mi_sub,
    unit,
)

# -- exact matrices over Poly -------------------------------------------------

Matrix = tuple[tuple[Poly, ...], ...]

# A bracket factors each nonzero entry x of an operator a.d + B once, as
# x = (g/L) * prims[k]: L is the lcm of the denominators of the operator's
# entries, g an int, and prims[k] an int numerator dict with gcd 1 and a
# positive numerator at its largest exponent, one index for all entries
# equal up to a scalar.  A jet matrix holds the same prim in many entries,
# scaled only by binomials and rep-matrix entries, and ``_jet_matrix`` makes
# entries with equal term lists one object.  Each row of the result is then
# planned as one dict (column, a, b) -> int with a <= b, over L1 * L2, so
# the terms of B1 B2 and B2 B1 merge, and cancel, before any product is
# made; the terms a.dB, and the vector part, are planned the same way on
# d_nu prims[k], each factored once into a prim of its own.  One
# ``exactpoly.prim_products`` call then makes each distinct product of prims
# once per bracket, on int numerators alone: a bracket calls neither
# ``Poly.deriv`` nor ``Poly.__mul__``.
class _Prims:
    """The prims of one bracket, each held once, and their derivatives."""

    __slots__ = ("prims", "_index", "_derivs")

    def __init__(self):
        self.prims: list[dict[MultiIndex, int]] = []
        self._index: dict[frozenset, int] = {}  # prim items -> index
        self._derivs: dict[tuple[int, int], tuple[int, int] | None] = {}

    def factor(self, num: dict[MultiIndex, int]) -> tuple[int, int]:
        """(g, k) with num = g * prims[k], for nonzero int numerators."""
        g = gcd(*num.values())
        if num[max(num)] < 0:
            g = -g
        prim = num if g == 1 else {e: n // g for e, n in num.items()}
        key = frozenset(prim.items())
        k = self._index.get(key)
        if k is None:
            k = self._index[key] = len(self.prims)
            self.prims.append(prim)
        return g, k

    def operator(self, vector: Sequence[Poly], matrix: Matrix):
        """(L, a, rows) for the operator a.d + B: L the lcm of the
        denominators of its entries, and a and each row of B as a dict
        index -> (g, k) of their nonzero entries x = (g/L) * prims[k].  Each
        entry object, which a jet matrix shares among many positions, is
        factored once."""
        den = lcm(*{x._den for x in vector}, *{x._den for row in matrix for x in row})
        seen: dict[int, tuple[int, int]] = {}  # id(x) -> (g, k); ``matrix`` keeps x alive

        def factored(row):
            out = {}
            for j, x in enumerate(row):
                if x._num:
                    f = seen.get(id(x))
                    if f is None:
                        g, k = self.factor(x._num)
                        f = seen[id(x)] = (g * (den // x._den), k)
                    out[j] = f
            return out
        return den, factored(vector), [factored(row) for row in matrix]

    def along(self, plan: dict, j: int, v: dict, f: tuple[int, int], sign: int) -> None:
        """Plan sign * v^nu d_nu f at column j, for a factored vector v and
        a factored entry f = (g, k).  Each d_nu prims[k] is factored once
        per bracket; a zero one plans nothing."""
        g, k = f
        derivs = self._derivs
        for nu, (gv, a) in v.items():
            if (k, nu) not in derivs:
                prim = self.prims[k]
                check_direction(nu, len(next(iter(prim))), "direction")
                num = _num_deriv(prim, nu)
                derivs[k, nu] = self.factor(num) if num else None
            df = derivs[k, nu]
            if df is not None:
                gd, b = df
                key = (j, a, b) if a <= b else (j, b, a)
                plan[key] = plan.get(key, 0) + sign * gv * g * gd


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product, each entry one ``lincomb`` of the products x * y
    of nonzero entries."""
    if not a:
        return ()
    if len(a[0]) != len(b):
        raise ValueError(f"a has {len(a[0])} columns but b has {len(b)} rows")
    dim = a[0][0].dim
    return tuple(tuple(lincomb(dim, [(1, x * y) for x, y in zip(row, col)
                                     if not x.is_zero() and not y.is_zero()])
                       for col in zip(*b))
                 for row in a)


def _bracket(d: int, a1: Sequence[Poly], b1: Matrix, a2: Sequence[Poly],
             b2: Matrix) -> tuple[tuple[Poly, ...], Matrix]:
    """(vector, matrix) of [a1.d + B1, a2.d + B2] for vector parts a1, a2
    (empty for none) and square matrices B1, B2 of Polys in d variables:

        (a1.d a2 - a2.d a1).d + (a1.d B2 - a2.d B1 + B1 B2 - B2 B1).

    Row i of the matrix is planned as sum_k B1[i,k] B2[k,.] - B2[i,k] B1[k,.]
    plus a1.d B2[i,.] - a2.d B1[i,.] over the nonzero entries; the vector
    part, empty unless a1 and a2 both are not, is one more row, last, whose
    a.d terms are planned the same way with a2 and a1 as the rows.  One
    ``prim_products`` call takes each plan as it is made; any other entry
    is the shared zero.
    """
    prims = _Prims()
    den1, v1, rows1 = prims.operator(a1, b1)
    den2, v2, rows2 = prims.operator(a2, b2)
    both = bool(a1 and a2)
    n = len(b1)
    pairs = list(zip(rows1, rows2)) + ([(v1, v2)] if both else [])

    def plans():
        for i, (r1, r2) in enumerate(pairs):
            plan: dict[tuple[int, int, int], int] = {}
            get = plan.get
            for row, rows, sign in ((r1, rows2, 1), (r2, rows1, -1)) if i < n else ():
                for k, (g1, a) in row.items():
                    g1 *= sign
                    for j, (g2, b) in rows[k].items():
                        key = (j, a, b) if a <= b else (j, b, a)
                        plan[key] = get(key, 0) + g1 * g2
            for v, row, sign in ((v1, r2, 1), (v2, r1, -1)):
                if v:
                    for j, f in row.items():
                        prims.along(plan, j, v, f, sign)
            yield plan
    out = prim_products(d, prims.prims, den1 * den2, max(n, d) if both else n, plans())
    vector = out.pop()[:d] if both else ()
    return vector, tuple(row[:n] for row in out)


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


# -- structure constants and matrix representations ---------------------------

def _levi_civita(a: int, b: int, c: int) -> int:
    """The Levi-Civita symbol eps_{abc} on the indices 0, 1, 2."""
    return (a - b) * (b - c) * (c - a) // 2 if {a, b, c} == {0, 1, 2} else 0


class StructureConstants(_Record):
    """Totally antisymmetric real structure constants f^{abc} of a Lie
    algebra g, with [X, Y]^c = f^{abc} X^a Y^b."""

    __slots__ = ("dim", "f")

    def __init__(self, dim: int, f: tuple[tuple[tuple[Fraction, ...], ...], ...]):
        _set(self, "dim", dim)
        _set(self, "f", f)
        n = dim
        check_int("algebra dimension", n, 0)
        if len(f) != n or any(len(r) != n or any(len(c) != n for c in r) for r in f):
            raise ValueError("structure constant tensor has wrong shape")
        for v in (v for r in f for c in r for v in c):
            _ratio(v, "structure constant entries")
        # The checks are homogeneous, so they run on int numerators over one
        # common denominator.
        den = lcm(*(v.denominator for r in f for c in r for v in c))
        f = [[[v.numerator * (den // v.denominator) for v in c] for c in r] for r in f]
        for a, b, c in itertools.product(range(n), repeat=3):
            if f[a][b][c] != -f[b][a][c] or f[a][b][c] != -f[a][c][b]:
                raise ValueError("structure constants are not totally antisymmetric")
        for a, b, c, d in itertools.product(range(n), repeat=4):
            if sum(f[a][b][e] * f[e][c][d] + f[b][c][e] * f[e][a][d]
                   + f[c][a][e] * f[e][b][d] for e in range(n)):
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

    def bracket_components(self, x: Sequence[Poly], y: Sequence[Poly]) -> list[Poly]:
        """Pointwise Lie bracket of g-valued functions:
        [x, y]^c = f^{abc} x^a y^b, for x and y of ``dim`` components each."""
        n = self.dim
        check_field("x", x, x[0].dim if x and isinstance(x[0], Poly) else 0, n)
        check_field("y", y, x[0].dim, n)
        pairs = [(a, b) for a in range(n) if not x[a].is_zero()
                 for b in range(n) if not y[b].is_zero()]
        return [lincomb(x[0].dim, [(self.f[a][b][c], x[a] * y[b])
                                   for a, b in pairs if self.f[a][b][c]])
                for c in range(n)]


class MatrixRep(_Record):
    """A labelled family of exact square matrices.

    For a g-rep the labels are generator indices a = 0..n-1; for a gl(d)
    rep the labels are pairs (mu, nu) for T^mu_nu.  Entries are rationals.
    """

    __slots__ = ("size", "generators")

    def __init__(self, size: int,
                 generators: tuple[tuple[object, tuple[tuple[Fraction, ...], ...]], ...]):
        _set(self, "size", size)
        _set(self, "generators", generators)
        n = size
        check_int("rep size", n, 1)
        for label, m in generators:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"generator {label!r} is not a {n} x {n} matrix")
            for v in (v for row in m for v in row):
                _ratio(v, f"generator {label!r} entries")

    def matrix(self, label) -> tuple[tuple[Fraction, ...], ...]:
        for lab, m in self.generators:
            if lab == label:
                return m
        raise KeyError(f"no generator labelled {label!r}")

    # -- factories ---------------------------------------------------------

    @classmethod
    def g_abelian(cls, n: int, values: Sequence = None) -> "MatrixRep":
        """One-dimensional rep of an abelian algebra: M^a = (value_a), with
        n values (all 1 when none are given)."""
        if values is not None and len(values) != n:
            raise ValueError(f"an abelian rep of {n} generators needs {n} values, "
                             f"got {len(values)}")
        vals = [Fraction(1)] * n if values is None else [exact(v) for v in values]
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
        check_int("dimension", d, 1)
        k = exact(kappa)
        gens = tuple(
            ((mu, nu), ((k if mu == nu else Fraction(0),),))
            for mu in range(d) for nu in range(d)
        )
        return cls(1, gens)

    @classmethod
    def gl_vector(cls, d: int) -> "MatrixRep":
        """Defining rep: (T^mu_rho)_{ij} = delta_{i,mu} delta_{j,rho}."""
        check_int("dimension", d, 1)
        gens = tuple(
            ((mu, rho),
             tuple(tuple(Fraction(1 if (i == mu and j == rho) else 0)
                         for j in range(d)) for i in range(d)))
            for mu in range(d) for rho in range(d)
        )
        return cls(d, gens)


# -- jet block builders --------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _stencil(d: int, p: int, s: MultiIndex) -> tuple[tuple[int, int, int, MultiIndex], ...]:
    """The field-independent blocks of one shifted factor of ``_jet_matrix``:
    (index of m, index of n, binom(m, n - s), order m - n + s) over the
    lattice pairs with a nonzero binomial, without the base-point term
    m = n - s of a nonzero shift.  Built once per checked (d, p) and s."""
    lattice = enumerate_indices(d, p)
    out = []
    for mi, m in enumerate(lattice):
        for ni, n in enumerate(lattice):
            ns = tuple(x - y for x, y in zip(n, s))
            b = binomial(m, ns)
            if b and (m != ns or not any(s)):
                out.append((mi, ni, b, mi_sub(m, ns)))
    return tuple(out)


def _jet_matrix(factors: Sequence[tuple[Poly, Sequence[Sequence], tuple[int, ...]]],
                size: int, d: int, p: int) -> Matrix:
    """Matrix on (jet) (x) (rep of the given size), entries Poly in q, of
    "apply sum_k f_k(x+q) R_k d_{s_k}, truncate at p" in the Taylor basis
    x^n/n!: block (m, n) = sum_k binom(m, n - s_k) d_{m-n+s_k}f_k(q) R_k.

    ``factors`` holds the triples (f_k, R_k, s_k) of a Poly in d variables,
    a size x size matrix of rationals and a shift s_k that is zero (a
    multiplication) or a unit e_mu (d_mu, then a multiplication).  For
    s_k != 0 the term m = n - s_k, f_k(q) d_{s_k}, is left out: it is the
    base-point part xi(q).d/dq that ``JetOperator.vector`` carries, so
    the factor transports by f_k(x+q) - f_k(q).

    Each R_k becomes its nonzero cells (i, j, int numerator) over one
    denominator, which divides f_k once; a factor without a cell is
    skipped.  Only the blocks of each factor's cached ``_stencil`` are
    visited, and each derivative order is one ``deriv`` of a known lower
    order, starting from f_k.  An entry is the sum of its terms (c, d^o f_k)
    with int c; entries with equal term lists are one Poly object, a
    one-term entry c * g is written directly and only an entry of two or
    more terms is a ``lincomb``.  Every other entry is one shared zero Poly.
    """
    width = len(enumerate_indices(d, p)) * size  # checks (d, p) before the cache
    blocks: dict[tuple[int, int], list] = {}  # (m, n) -> [(binom, d_order f_k, cells)]
    for f, r, s in factors:
        if f.is_zero():
            continue
        den = lcm(*(v.denominator for row in r for v in row))
        cells = [(i, j, v.numerator * (den // v.denominator))
                 for i, row in enumerate(r) for j, v in enumerate(row) if v]
        if not cells:
            continue
        if den != 1:
            f = f.scale(Fraction(1, den))
        known = {(0,) * d: f}  # order -> d_order f_k
        for mi, ni, b, order in _stencil(d, p, s):
            g = _derivative(known, order)
            if not g.is_zero():
                blocks.setdefault((mi, ni), []).append((b, g, cells))
    zero = Poly.zero(d)
    rows = [[zero] * width for _ in range(width)]
    # term list ((c, id(g)), ...) -> entry; ``blocks`` keeps every g alive
    built: dict[tuple, Poly] = {}
    for (mi, ni), block in blocks.items():
        entries: dict[tuple[int, int], list] = {}  # (i, j) -> [(c, g)]
        for b, g, cells in block:
            for i, j, n in cells:
                entries.setdefault((i, j), []).append((b * n, g))
        for (i, j), terms in entries.items():
            key = tuple((c, id(g)) for c, g in terms)
            x = built.get(key)
            if x is None:
                x = built[key] = _entry(d, terms)
            rows[mi * size + i][ni * size + j] = x
    return tuple(map(tuple, rows))


def _derivative(known: dict[MultiIndex, Poly], order: MultiIndex) -> Poly:
    """d^order f from the cache ``known``, which holds f at order zero: one
    ``deriv`` of the order one lower in its first nonzero direction."""
    g = known.get(order)
    if g is None:
        mu = next(k for k, o in enumerate(order) if o)
        lower = order[:mu] + (order[mu] - 1,) + order[mu + 1:]
        g = known[order] = _derivative(known, lower).deriv(mu)
    return g


def _entry(d: int, terms: list[tuple[int, Poly]]) -> Poly:
    """sum_t c_t g_t for nonzero ints c_t and nonzero Polys g_t.  One term
    1 * g is g itself, and c * g is (c/h) * num(g) over den(g)/h with
    h = gcd(c, den(g)), already canonical since gcd(den(g), num(g)) = 1."""
    if len(terms) > 1:
        return lincomb(d, terms)
    (c, g), = terms
    if c == 1:
        return g
    h = gcd(c, g.denominator)
    c //= h
    return _wrap(d, {e: n * c for e, n in g.numerators.items()}, g.denominator // h)


# -- operators -----------------------------------------------------------------

@dataclass(frozen=True)  # perfbench calls dataclasses.replace on it (ROADMAP item 10)
class JetOperator:
    """The first-order operator a^mu(q) d/dq^mu + B(q) on (jet) (x) (rep):
    ``vector`` holds a^mu(q), empty for a current generator, and ``matrix``
    the jet matrix B, entries Poly in q."""
    d: int
    p: int
    rep_size: int
    vector: tuple[Poly, ...]
    matrix: Matrix

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.vector) and mat_is_zero(self.matrix)


def gauge_operator(X: Sequence[Poly], rep: MatrixRep, d: int, p: int) -> JetOperator:
    """The jet current generator: blocks binom(m, n) d_{m-n}X^a(q) M^a."""
    n_gen = len(rep.generators)
    check_field("g-valued function", X, d, n_gen)
    try:
        mats = [rep.matrix(a) for a in range(n_gen)]
    except KeyError as exc:
        raise ValueError(f"a g-rep needs generators labelled 0..{n_gen - 1}") from exc
    matrix = _jet_matrix([(X[a], mats[a], (0,) * d) for a in range(n_gen)], rep.size, d, p)
    return JetOperator(d, p, rep.size, (), matrix)


def diff_operator(xi: Sequence[Poly], rep: MatrixRep, d: int, p: int) -> JetOperator:
    """The jet vector-field generator for xi = xi^mu d_mu.

    Vector part: xi^mu(q) acting as a first-order operator in q.
    Matrix part: transport by xi^mu(x+q) - xi^mu(q) plus the frame term
    d_nu xi^mu(x+q) T^nu_mu, both truncated at jet order p.
    """
    check_field("vector field", xi, d, d)
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
    return JetOperator(d, p, rep.size, tuple(xi), matrix)


def vector_field_bracket(xi: Sequence[Poly], eta: Sequence[Poly]) -> list[Poly]:
    """[xi, eta]^mu = xi^nu d_nu eta^mu - eta^nu d_nu xi^mu, the vector part
    of ``_bracket`` on two operators without a matrix."""
    d = len(xi)
    check_field("xi", xi, d, d)
    check_field("eta", eta, d, d)
    return list(_bracket(d, xi, (), eta, ())[0])


def bracket(a: JetOperator, b: JetOperator) -> JetOperator:
    """Commutator of first-order operators a.d/dq + B(q):

    [a1.d + B1, a2.d + B2]
      = (a1.d a2 - a2.d a1).d + (a1.d B2 - a2.d B1 + [B1, B2]).

    The vector part is empty unless both operators have one.
    """
    if (a.d, a.p, a.rep_size) != (b.d, b.p, b.rep_size):
        raise ValueError("operator shape mismatch")
    return JetOperator(a.d, a.p, a.rep_size, *_bracket(a.d, a.vector, a.matrix, b.vector, b.matrix))


GaugeJetOperator = JetOperator  # ROADMAP item 4 step 1 deletes this
bracket_gauge = bracket_diff = bracket  # ROADMAP item 4 step 1 deletes this


def bracket_mixed(l: JetOperator, j: JetOperator) -> JetOperator:
    """Commutator of a vector-field generator with a current generator,
    acting on the combined space (jet) (x) (gl-rep) (x) (g-rep):

    [a.d/dq + B (x) I_M,  J (x nothing on gl slot)]
      = a.d J  +  [B (x) I_M, I_rho (x) J-blocks].

    The result is a pure multiplication-type operator on the combined rep
    space of size rep_size(l) * rep_size(j).  The frame term of B drops out
    exactly (jet multiplication matrices commute), leaving transport only,
    so the bracket equals the current generator of the transported function
    xi^mu d_mu X — not of the weight-one combination xi^mu d_mu X +
    d_mu xi^mu X, which a constant X in an abelian algebra immediately rules
    out (its generator is central in the jet matrix algebra, yet the
    weight-one formula would be nonzero).
    """
    l_full = JetOperator(l.d, l.p, l.rep_size * j.rep_size, l.vector,
                         _insert_identity(l.matrix, j.rep_size))
    return bracket(l_full, embed_gauge_operator(j, l.rep_size))


def _insert_identity(a: Matrix, k: int, w: int = 1) -> Matrix:
    """Re-index a matrix on U (x) W, with dim W = w, onto U (x) C^k (x) W,
    acting as the identity on the inserted C^k."""
    n = len(a) // w
    z = Poly.zero(a[0][0].dim)
    return tuple(
        tuple(a[u * w + i][v * w + j] if kappa == lam else z
              for v in range(n) for lam in range(k) for j in range(w))
        for u in range(n) for kappa in range(k) for i in range(w))


def embed_gauge_operator(j: JetOperator, rho_size: int) -> JetOperator:
    """The current generator acting trivially on an extra gl-rep factor of
    the given size (for comparison against mixed brackets)."""
    check_int("gl-rep size", rho_size, 1)
    return JetOperator(j.d, j.p, rho_size * j.rep_size, j.vector,
                       _insert_identity(j.matrix, rho_size, j.rep_size))
