"""Residue-form evaluation of the extension terms along Laurent trajectories.

The extended brackets append to each classical bracket a functional of a
closed trajectory q(z) (a d-vector of Laurent polynomials in z).  With the
overall 1/(2 pi i) absorbed into the residue operation, the extension terms
are

    vector/vector:   - res sum_rho q'^rho [ c1 d_rho d_nu xi^mu (q) d_mu eta^nu (q)
                                          + c2 d_rho div xi (q) div eta (q) ]
    current/current: + res sum_rho q'^rho [ c5 d_rho X^a (q) Y^a (q)
                                          + c8 d_rho X^0 (q) Y^0 (q) ]
    vector/current:  + c7 res sum_rho q'^rho d_rho div xi (q) X^0 (q)
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
single monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from .exactpoly import Poly
from .jetreps import divergence


@dataclass(frozen=True)
class Trajectory:
    """A closed loop q: components are Laurent polynomials in one variable z."""
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("trajectory needs at least one component")
        for c in comps:
            if not isinstance(c, Poly) or c.dim != 1:
                raise ValueError("trajectory components are Laurent polynomials in z")
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
    if f.dim != 1 or g.dim != 1:
        raise ValueError("reparametrization functions live in one variable")
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

def virasoro_cocycle(xi: Sequence[Poly], eta: Sequence[Poly], q: Trajectory,
                     c1, c2) -> Fraction:
    d = q.d
    if len(xi) != d or len(eta) != d:
        raise ValueError("vector fields must have d components")
    qdot = q.velocity()
    total = Poly.zero(1)
    div_xi = divergence(xi)
    div_eta = divergence(eta)
    for rho in range(d):
        if qdot[rho].is_zero():
            continue
        chain = Poly.zero(xi[0].dim)
        for mu in range(d):
            for nu in range(d):
                chain = chain + xi[mu].deriv(nu).deriv(rho) * eta[nu].deriv(mu)
        integrand_x = chain.scale(Fraction(c1)) + (
            div_xi.deriv(rho) * div_eta
        ).scale(Fraction(c2))
        total = total + qdot[rho] * compose(integrand_x, q)
    return -residue(total)


def affine_cocycle(X: Sequence[Poly], Y: Sequence[Poly], q: Trajectory,
                   c5, c8) -> Fraction:
    if len(X) != len(Y):
        raise ValueError("gauge functions must have equal numbers of components")
    qdot = q.velocity()
    total = Poly.zero(1)
    for rho in range(q.d):
        if qdot[rho].is_zero():
            continue
        acc = Poly.zero(X[0].dim)
        for a in range(len(X)):
            acc = acc + (X[a].deriv(rho) * Y[a]).scale(Fraction(c5))
        acc = acc + (X[0].deriv(rho) * Y[0]).scale(Fraction(c8))
        total = total + qdot[rho] * compose(acc, q)
    return residue(total)


def mixed_cocycle(xi: Sequence[Poly], X: Sequence[Poly], q: Trajectory,
                  c7) -> Fraction:
    qdot = q.velocity()
    div_xi = divergence(xi)
    total = Poly.zero(1)
    for rho in range(q.d):
        if qdot[rho].is_zero():
            continue
        total = total + qdot[rho] * compose(div_xi.deriv(rho) * X[0], q)
    return Fraction(c7) * residue(total)


def reparam_reparam_cocycle(f: Poly, g: Poly, c4) -> Fraction:
    """- (c4/12) res f'' g'; on monomials f = z^(m+1), g = z^(-m+1) this is
    +(c4/12)(m^3 - m)."""
    return -Fraction(c4) / 12 * residue(f.deriv(0).deriv(0) * g.deriv(0))


def reparam_vector_cocycle(f: Poly, xi: Sequence[Poly], q: Trajectory,
                           c3) -> Fraction:
    return -Fraction(c3) / 2 * residue(
        f.deriv(0).deriv(0) * compose(divergence(xi), q)
    )


def reparam_current_cocycle(f: Poly, X: Sequence[Poly], q: Trajectory,
                            c6) -> Fraction:
    return -Fraction(c6) / 2 * residue(f.deriv(0).deriv(0) * compose(X[0], q))


# -- antisymmetry check ------------------------------------------------------------

@dataclass
class AntisymmetryReport:
    kind: str
    value: Fraction  # cocycle(a, b) + cocycle(b, a); zero means antisymmetric

    @property
    def ok(self) -> bool:
        return self.value == 0


def antisymmetry_check(kind: str, a, b, q: Trajectory,
                       coeff1=1, coeff2=0) -> AntisymmetryReport:
    """Evaluate cocycle(a, b) + cocycle(b, a) for the vector-field
    ("virasoro") or current ("affine") extension; exact zero is expected
    because the symmetric part of the integrand is a total z-derivative."""
    if kind == "virasoro":
        v = virasoro_cocycle(a, b, q, coeff1, coeff2) \
            + virasoro_cocycle(b, a, q, coeff1, coeff2)
    elif kind == "affine":
        v = affine_cocycle(a, b, q, coeff1, coeff2) \
            + affine_cocycle(b, a, q, coeff1, coeff2)
    else:
        raise ValueError(f"unknown cocycle kind {kind!r}")
    return AntisymmetryReport(kind, v)
