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
built once and shared by every call on an equal loop, so no Laurent
polynomial is composed.  The three reparametrization terms read each
residue off its two factors by ``_product_residue``.  The six terms are:

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
would: OverflowError when a product term or an image passes the degree cap,
and ValueError for a non-monomial inverse only at an exponent that survives
the sum on a rho with nonzero velocity.  Every field argument is checked by
``exactpoly.check_field`` (component count, d variables each), and every
charge is an ``exact`` value or an int or Fraction coefficient, so a float
raises.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import add

from . import exactpoly
from .exactpoly import (Poly, _degree_overflow, _monomial_inverse_power, _over_cap, _Record,
                        _set, check_field, exact, lincomb)
from .jetreps import divergence
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

def _product_residue(a: Poly, b: Poly) -> Fraction:
    """res (a b) = sum_k a_k b_(-1-k), read off the numerators of a and b."""
    b_num = b.numerators
    total = sum(n * b_num.get((-1 - k,), 0) for (k,), n in a.numerators.items())
    return Fraction(total, a.denominator * b.denominator)


# A loop's residue table: per rho the velocity q'^rho as (numerators by power
# of z, denominator), or None where it is zero; the images q^e built so far,
# as (numerators by power of z, denominator); and per rho the residues
# r_rho(e) = res q'^rho q^e read so far.
_Table = tuple[list, dict, list]


@functools.lru_cache(maxsize=256)
def _loop_table(q: Trajectory, cap: int) -> _Table:
    """The residue table of the loop q, empty but for its velocities and
    q^0 = 1; only ``_residue`` fills it.  It is keyed by the degree cap as
    well, since whether an image overflows depends on the cap."""
    velocities = [({k: n for (k,), n in v.numerators.items()}, v.denominator)
                  if not v.is_zero() else None for v in q.velocity()]
    return velocities, {(0,) * q.d: ({0: 1}, 1)}, [{} for _ in range(q.d)]


def _check_image(q: Trajectory, e: MultiIndex, cap: int) -> None:
    """Raise where ``compose`` raises on the term x^e: it takes the powers
    q_i^(e_i) in order of i, by squaring or as a monomial inverse, and
    multiplies each into the running term.  A product of Laurent
    polynomials in z spans exactly the sums of its factors' extreme
    exponents, so every cap test is read off those extremes."""
    span = None  # the extreme exponents of the running term; () if it is 0
    for i, k in enumerate(e):
        if not k:
            continue
        s = q.components[i]
        if k < 0:
            (t,), = _monomial_inverse_power(s, -k).numerators
            part = (t, t)
        elif s.is_zero():
            part = ()
        else:
            if k > 1 and k * s._degree() > cap:
                raise _degree_overflow()
            powers = [t for (t,) in s.numerators]
            part = (k * min(powers), k * max(powers))
        if span is None:
            span = part
        elif span and part:
            lo, hi = span[0] + part[0], span[1] + part[1]
            if max(-lo, hi) > cap:
                raise _degree_overflow()
            span = (lo, hi)
        else:
            span = ()


def _image(q: Trajectory, images: dict, e: MultiIndex) -> tuple[dict[int, int], int]:
    """q^e as (numerators, denominator), built once from the image of
    e - e_i times q_i (or times q_i^-1 for e_i < 0) at e's first nonzero i.
    Only a caller that has checked e with ``_check_image`` may ask for it."""
    img = images.get(e)
    if img is None:
        i = next(i for i, k in enumerate(e) if k)
        s = q.components[i]
        if e[i] < 0:
            s = _monomial_inverse_power(s, 1)
        num, den = _image(q, images, e[:i] + (e[i] - (1 if e[i] > 0 else -1),) + e[i + 1:])
        out: dict[int, int] = {}
        get = out.get
        for (k2,), n2 in s.numerators.items():
            for k1, n1 in num.items():
                out[k1 + k2] = get(k1 + k2, 0) + n1 * n2
        img = images[e] = ({k: n for k, n in out.items() if n}, den * s.denominator)
    return img


def _residue(q: Trajectory, table: _Table, rho: int, e: MultiIndex, cap: int) -> int | Fraction:
    """r_rho(e) = res q'^rho q^e, an int where its denominator is 1."""
    velocities, images, _ = table
    _check_image(q, e, cap)
    num, den = _image(q, images, e)
    v_num, v_den = velocities[rho]
    total = sum(n * num.get(-1 - k, 0) for k, n in v_num.items())
    den *= v_den
    return total // den if total % den == 0 else Fraction(total, den)


def _ratio(c) -> tuple[int, int]:
    """An int or Fraction coefficient as (numerator, denominator)."""
    if type(c) is int:
        return c, 1
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise ValueError(f"coefficients must be exact (int or Fraction), got {c!r}")


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
            if a._degree() + b._degree() > cap and _over_cap(a, b, cap):
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
                    r = row[e] = _residue(q, table, rho, e, cap)
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
