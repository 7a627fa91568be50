"""Residue-form evaluation of the extension terms along Laurent trajectories.

The extended brackets append to each classical bracket a functional of a
closed trajectory q(z) (a d-vector of Laurent polynomials in z).  With the
overall 1/(2 pi i) absorbed into the residue operation, each trajectory term
integrates a 1-form omega (d polynomials in x) over the loop,
res sum_rho q'^rho omega_rho(q), with the one integrator ``_pullback_residue``.
Every residue, the three reparametrization terms included, is read off its
two factors by ``_product_residue``, without building their product:

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
single monomial.  Every field argument is checked by
``exactpoly.check_field`` (component count, d variables each), and every
charge is an ``exact`` value or a ``lincomb`` coefficient, so a float raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .exactpoly import Poly, check_field, exact, lincomb
from .jetreps import divergence


@dataclass(frozen=True)
class Trajectory:
    """A closed loop q: components are Laurent polynomials in one variable z."""
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        check_field("trajectory", comps, 1)
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    def velocity(self) -> List[Poly]:
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

def bracket_rep(f: Poly, g: Poly) -> Poly:
    """[f, g] = f g' - g f' (one-variable vector fields on the circle)."""
    check_field("the pair (f, g)", (f, g), 1)
    return f * g.deriv(0) - g * f.deriv(0)


def density_action(xi: Sequence[Poly], X: Sequence[Poly]) -> List[Poly]:
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


def _pullback_residue(omega: Sequence[Poly], q: Trajectory) -> Fraction:
    """res sum_rho q'^rho omega_rho(q(z)), the 1-form omega over the loop q,
    each term read off its two factors; a zero velocity adds nothing."""
    total = Fraction(0)
    for v, w in zip(q.velocity(), omega):
        if not v.is_zero():
            total += _product_residue(v, compose(w, q))
    return total


def virasoro_cocycle(xi: Sequence[Poly], eta: Sequence[Poly], q: Trajectory,
                     c1, c2) -> Fraction:
    d = q.d
    check_field("xi", xi, d, d)
    check_field("eta", eta, d, d)
    div_xi, div_eta = divergence(xi), divergence(eta)
    omega = [lincomb(d, [(-c1, xi[mu].deriv(nu).deriv(rho) * eta[nu].deriv(mu))
                         for mu in range(d) for nu in range(d)]
                     + [(-c2, div_xi.deriv(rho) * div_eta)])
             for rho in range(d)]
    return _pullback_residue(omega, q)


def affine_cocycle(X: Sequence[Poly], Y: Sequence[Poly], q: Trajectory,
                   c5, c8) -> Fraction:
    check_field("X", X, q.d)
    check_field("Y", Y, q.d, len(X))
    omega = []
    for rho in range(q.d):
        first = X[0].deriv(rho) * Y[0]
        omega.append(lincomb(q.d, [(c5, first), (c8, first)]
                             + [(c5, X[a].deriv(rho) * Y[a]) for a in range(1, len(X))]))
    return _pullback_residue(omega, q)


def mixed_cocycle(xi: Sequence[Poly], X: Sequence[Poly], q: Trajectory,
                  c7) -> Fraction:
    check_field("xi", xi, q.d, q.d)
    check_field("X", X, q.d)
    div_xi = divergence(xi)
    return _pullback_residue(
        [(div_xi.deriv(rho) * X[0]).scale(c7) for rho in range(q.d)], q)


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
