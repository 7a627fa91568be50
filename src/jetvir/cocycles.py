"""Residue-form evaluation of the extension terms along Laurent trajectories.

The extended brackets append to each classical bracket a functional of a
closed trajectory q(z) (a d-vector of Laurent polynomials in z).  With the
overall 1/(2 pi i) absorbed into the residue operation, each trajectory term
integrates a 1-form omega (d polynomials in x) over the loop,
res sum_rho q'^rho omega_rho(q), with the one integrator ``_pullback_residue``.
Each omega_rho reaches it as its product terms (c_t, a_t, b_t), with
omega_rho = sum_t c_t a_t b_t (a Poly omega_rho is the one term
(1, omega_rho, 1)), summed as int numerators over one denominator without
building the products.  The residue is then read off one table per loop,
which holds the images q^e and the residues r_rho(e) = res q'^rho q^e, each
built once and shared by every call on an equal loop.  Each image comes from
``exactpoly._image``, the builder that ``compose`` runs on each term, so a
summed omega_rho is never composed as a whole.  Every residue, here and in
the three reparametrization terms, is read off its two factors by
``_product_residue``.  The six terms are:

    vector/vector:   omega_rho = - (c1 d_rho d_nu xi^mu d_mu eta^nu
                                    + c2 d_rho div xi div eta)
    current/current: omega_rho = c5 d_rho X^a Y^a + c8 d_rho X^0 Y^0
    vector/current:  omega_rho = c7 d_rho div xi X^0
    reparam/reparam: - (c4/12) res f'' g'
    reparam/vector:  - (c3/2)  res f'' div xi (q)
    reparam/current: - (c6/2)  res f'' X^0 (q)

Antisymmetry of the first two holds identically: the symmetric part of the
integrand is q'^rho d_rho F(q) = d/dz F(q(z)), a total derivative whose
residue vanishes.  The orientation of the reparametrization extension is
fixed by the monomial basis f = z^(m+1), g = z^(-m+1), for which the
reparam/reparam value is +(c4/12)(m^3 - m); the m = 2 case was computed by
hand to lock the global sign.

Gauge and vector-field components may be Laurent polynomials in x (Fourier
modes of a periodic function space); composing a negative power with the
trajectory then requires the corresponding trajectory component to be a
single monomial.  The integrator raises where composing the summed 1-form
would.  A product term past the degree cap raises OverflowError.  An image is
built only at an exponent that survives the sum on a rho with nonzero
velocity, and raises there what its builder raises in ``compose``:
OverflowError past the cap, or ValueError for a non-monomial inverse.  Every
field argument is checked by ``exactpoly.check_field`` (component count, d
variables each), and every charge is an ``exact`` value or an int or
Fraction coefficient, so a float raises.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import add

from . import exactpoly
from .exactpoly import (Poly, _degree_overflow, _over_cap, _ratio, _Record, _set, check_field,
                        exact, lincomb)
from .multiindex import MultiIndex


class Trajectory(_Record):
    """A closed loop q: components are Laurent polynomials in one variable z."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Poly]):
        comps = tuple(components)
        check_field("trajectory", comps, 1)
        _set(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    def velocity(self) -> list[Poly]:
        return [c.deriv(0) for c in self.components]


def residue(p: Poly) -> Fraction:
    """Coefficient of z^(-1)."""
    if p.dim != 1:
        raise ValueError("residue is defined for one-variable Laurent polynomials")
    return p.coeff((-1,))


def compose(f: Poly, q: Trajectory) -> Poly:
    """f(q(z)) as a Laurent polynomial in z."""
    if f.dim != q.d:
        raise ValueError("function and trajectory dimensions differ")
    return f.compose_univariate(list(q.components))


# -- classical brackets --------------------------------------------------------

def divergence(xi: Sequence[Poly]) -> Poly:
    """div xi = d_mu xi^mu of a vector field: d components in d variables."""
    check_field("vector field", xi, len(xi))
    return lincomb(len(xi), [(1, c.deriv(mu)) for mu, c in enumerate(xi)])


def density_action(xi: Sequence[Poly], X: Sequence[Poly]) -> list[Poly]:
    """The weight-one density action xi . X = xi^mu d_mu X + d_mu xi^mu X,
    the formal bracket formula of the extended algebra's mixed sector."""
    d = len(xi)
    div = divergence(xi)
    out = []
    for comp in X:
        acc = div * comp
        for mu in range(d):
            acc = acc + xi[mu] * comp.deriv(mu)
        out.append(acc)
    return out


# -- extension terms -------------------------------------------------------------

def _product_residue(a: Poly, b: Poly) -> int | Fraction:
    """res (a b) = sum_k a_k b_(-1-k), read off the numerators of a and b;
    an int where its denominator is 1."""
    b_num = b._num
    total = sum(n * b_num.get((-1 - k,), 0) for (k,), n in a._num.items())
    den = a._den * b._den
    return total // den if total % den == 0 else Fraction(total, den)


# A loop's residue table: per rho the velocity q'^rho, or None where it is
# zero; the images q^e and the powers q_i^k that ``exactpoly._image`` has
# built so far; and per rho the residues r_rho(e) = res q'^rho q^e read so far.
_Table = tuple[list, tuple[dict, dict], list]


@functools.lru_cache(maxsize=256)
def _loop_table(q: Trajectory, cap: int) -> _Table:
    """The residue table of the loop q, empty but for its velocities; only
    ``_residue`` fills it.  It is keyed by the degree cap as well, since
    whether an image overflows depends on the cap."""
    return ([None if v.is_zero() else v for v in q.velocity()], ({}, {}),
            [{} for _ in range(q.d)])


def _residue(q: Trajectory, table: _Table, rho: int, e: MultiIndex) -> int | Fraction:
    """r_rho(e) = res q'^rho q^e, with q^e built once, as compose builds it."""
    velocities, (images, powers), _ = table
    img = images.get(e)
    if img is None:
        img = images[e] = exactpoly._image(q.components, e, powers)
    return _product_residue(velocities[rho], img)


# A 1-form component as its product terms (c_t, a_t, b_t): omega_rho is the
# sum of c_t a_t b_t.  A Poly component omega_rho is the one term
# (1, omega_rho, 1).
_Terms = Sequence[tuple[object, Poly, Poly]]


def _pullback_residue(omega: Sequence[_Terms], q: Trajectory) -> Fraction:
    """res sum_rho q'^rho omega_rho(q(z)), the 1-form omega over the loop q.

    Each omega_rho = sum_e (n_e / den) x^e is summed from its product terms
    as int numerators over one denominator, as ``lincomb`` would sum the
    products, and then read off the loop's table as
    sum_e n_e r_rho(e) / den.  It raises where composing the summed 1-form
    would: every product term is tested against the degree cap for every
    rho, and only an exponent that survives the sum on a rho with nonzero
    velocity is composed, so a zero velocity adds nothing."""
    cap = exactpoly.MAX_DEGREE
    table = _loop_table(q, cap)
    velocities, _, rows = table
    forms = []
    for rho, (terms, velocity) in enumerate(zip(omega, velocities)):
        # a rho's products meet the cap before its coefficients are read, as
        # they would if built for ``lincomb``
        for _, a, b in terms:
            if a._degree() + b._degree() > cap and _over_cap(a._num, b._num, cap):
                raise _degree_overflow()
        scaled = []
        den = 1
        for c, a, b in terms:
            cn, cd = _ratio(c)
            if cn and a._num and b._num:
                pd = cd * a._den * b._den
                if den % pd:
                    den = lcm(den, pd)
                scaled.append((cn, pd, a._num, b._num))
        if velocity is None:
            continue
        out: dict[MultiIndex, int] = {}
        get = out.get
        for cn, pd, a_num, b_num in scaled:
            f = cn * (den // pd)
            for e1, n1 in a_num.items():
                n1 *= f
                for e2, n2 in b_num.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = get(e, 0) + n1 * n2
        forms.append((rows[rho], rho, out, den))
    total = Fraction(0)
    for row, rho, out, den in forms:
        acc = 0
        for e, n in out.items():
            if n:
                r = row.get(e)
                if r is None:
                    r = row[e] = _residue(q, table, rho, e)
                acc += n * r
        total += Fraction(acc, den)
    return total


def virasoro_cocycle(xi: Sequence[Poly], eta: Sequence[Poly], q: Trajectory,
                     c1, c2) -> Fraction:
    d = q.d
    check_field("xi", xi, d, d)
    check_field("eta", eta, d, d)
    d_xi = [[xi[mu].deriv(nu) for nu in range(d)] for mu in range(d)]  # d_nu xi^mu
    d_eta = [[eta[nu].deriv(mu) for mu in range(d)] for nu in range(d)]  # d_mu eta^nu
    div_xi = lincomb(d, [(1, d_xi[mu][mu]) for mu in range(d)])
    div_eta = lincomb(d, [(1, d_eta[nu][nu]) for nu in range(d)])
    m1, m2 = -c1, -c2
    return _pullback_residue(
        [[(m1, d_xi[mu][nu].deriv(rho), d_eta[nu][mu]) for mu in range(d) for nu in range(d)]
         + [(m2, div_xi.deriv(rho), div_eta)] for rho in range(d)], q)


def affine_cocycle(X: Sequence[Poly], Y: Sequence[Poly], q: Trajectory,
                   c5, c8) -> Fraction:
    check_field("X", X, q.d)
    check_field("Y", Y, q.d, len(X))
    omega = []
    for rho in range(q.d):
        first = X[0].deriv(rho)
        omega.append([(c5, first, Y[0]), (c8, first, Y[0])]
                     + [(c5, X[a].deriv(rho), Y[a]) for a in range(1, len(X))])
    return _pullback_residue(omega, q)


def mixed_cocycle(xi: Sequence[Poly], X: Sequence[Poly], q: Trajectory,
                  c7) -> Fraction:
    check_field("xi", xi, q.d, q.d)
    check_field("X", X, q.d)
    div_xi = divergence(xi)
    return _pullback_residue([[(c7, div_xi.deriv(rho), X[0])] for rho in range(q.d)], q)


def reparam_reparam_cocycle(f: Poly, g: Poly, c4) -> Fraction:
    """- (c4/12) res f'' g'; on monomials f = z^(m+1), g = z^(-m+1) this is
    +(c4/12)(m^3 - m)."""
    check_field("f", [f], 1)
    check_field("g", [g], 1)
    return -exact(c4) * _product_residue(f.deriv(0).deriv(0), g.deriv(0)) / 12


def reparam_vector_cocycle(f: Poly, xi: Sequence[Poly], q: Trajectory,
                           c3) -> Fraction:
    check_field("f", [f], 1)
    check_field("xi", xi, q.d, q.d)
    return -exact(c3) * _product_residue(f.deriv(0).deriv(0),
                                         compose(divergence(xi), q)) / 2


def reparam_current_cocycle(f: Poly, X: Sequence[Poly], q: Trajectory,
                            c6) -> Fraction:
    check_field("f", [f], 1)
    check_field("X", X, q.d)
    return -exact(c6) * _product_residue(f.deriv(0).deriv(0), compose(X[0], q)) / 2
