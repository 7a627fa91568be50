"""Double Wick contractions of normal-ordered jet bilinears.

All generators of interest are normal-ordered bilinears in a momentum-type
field pi(x, z) and a position-type field phi(x, z) over the jet lattice:

    current:            J_X(z) = int :pi X^a(x + q(z)) M^a phi:
    vector field:       L_xi(z) = xi(q) p-sector
                                 + int :pi xi_0^mu d_mu phi:
                                 + int :pi d_nu xi^mu T^nu_mu phi:
    reparametrization:  T(z) = q-sector + (l-1) int :pi phi-dot:
                                        + l int :pi-dot phi:

The engine contracts two such bilinears pairwise through one OPE,

    phi(x, z) pi(y, w) ~ K_p(x, y) / (z - w),

and its z- and w-derivatives: each contraction is a power of 1/(z-w) times
a jet delta kernel, decorated by the phi factor's spatial derivative, if
any.  Exchanging the factors costs the statistics sign.  The engine
evaluates the resulting bilinear delta-pair integrals with the exact
symbolic oracle of ``deltacalc``, multiplies by the trace of the matrix
insertions (expressed through the trace parameters of ``charges``), and
accumulates an exact pole expansion in (z - w).

The base-point (q, p) sector cannot be contracted field-wise; its two
closed-form contributions — the pole-2 term -d_nu xi^mu(0) d_mu eta^nu(0)
for a pair of vector-field generators and the pole-4 term d for a pair of
reparametrization generators, with the mixed pole-3 divergence term between
them — are added by rule.

Extensions are extracted at base point q = 0: the closed forms are local
polynomial expressions in derivatives of the input functions at q, so
equality at the origin for all polynomial inputs implies equality at all q.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .charges import GlRepTraces, GRepTraces
from .deltacalc import DerivSpec, SmearMode, delta_pair_integral
from .exactpoly import Poly, _Record, _set, check_field, exact
from .multiindex import check_grid, unit


# A matrix insertion is a pair (t, a) acting on rho (x) M: t = (nu, mu) for
# the gl generator T^nu_mu on the rho factor, a for the internal generator M^a
# on the M factor, and None for the identity on that factor.
Insertion = tuple[tuple[int, int] | None, int | None]


class Term(_Record):
    """One field-sector term: prefactor * int :(d_z^pi_dots pi) coeff
    insertion (d_z^phi_dots d_{phi_deriv} phi):, where ``phi_deriv`` is the
    direction of a spatial derivative on phi or None."""

    __slots__ = ("prefactor", "coeff", "insertion", "pi_dots", "phi_dots", "phi_deriv")

    def __init__(self, prefactor: Fraction, coeff: Poly, insertion: Insertion,
                 pi_dots: int = 0, phi_dots: int = 0, phi_deriv: int | None = None):
        _set(self, "prefactor", prefactor)
        _set(self, "coeff", coeff)
        _set(self, "insertion", insertion)
        _set(self, "pi_dots", pi_dots)
        _set(self, "phi_dots", phi_dots)
        _set(self, "phi_deriv", phi_deriv)
        # with one dot per term, no pair of terms reaches a pole above 4
        if (pi_dots, phi_dots) not in ((0, 0), (1, 0), (0, 1)):
            raise ValueError("at most one z-derivative per term")

    @property
    def mode(self) -> SmearMode:
        """Shifted exactly for the transport term pi xi_0^mu d_mu phi."""
        return SmearMode.PLAIN if self.phi_deriv is None else SmearMode.SHIFTED


class NormalBilinear(_Record):
    """A normal-ordered bilinear generator at (d, p): its field-sector terms
    and its base-point sector tag ``q_sector``, None, ("L", xi components)
    or ("T",)."""

    __slots__ = ("d", "p", "terms", "q_sector")

    def __init__(self, d: int, p: int, terms: tuple[Term, ...], q_sector: tuple | None = None):
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "terms", terms)
        _set(self, "q_sector", q_sector)


class PoleExpansion(_Record, frozen=False):
    """Map pole order -> exact rational coefficient of (z - w)^(-order)."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: dict[int, Fraction] | None = None):
        self.coefficients = {} if coefficients is None else coefficients

    def add(self, order: int, value: Fraction) -> None:
        if value == 0:
            return
        cur = self.coefficients.get(order, Fraction(0)) + value
        if cur == 0:
            self.coefficients.pop(order, None)
        else:
            self.coefficients[order] = cur

    def at(self, order: int) -> Fraction:
        return self.coefficients.get(order, Fraction(0))


# -- the contraction rule --------------------------------------------------------

def _pole(r: int, s: int) -> tuple[int, int]:
    """d_z^r d_w^s (z-w)^(-1) = (-1)^r (r+s)! (z-w)^(-(1+r+s)), as
    (coefficient, pole order)."""
    return (-1) ** r * math.factorial(r + s), 1 + r + s


# -- traces --------------------------------------------------------------------

def trace_pair(ins_a: Insertion, ins_b: Insertion, glrep: GlRepTraces,
               grep: GRepTraces) -> Fraction:
    """Trace over the combined rho (x) M space of the product of two
    insertions, expressed through the trace parameters."""
    ta, ma = ins_a
    tb, mb = ins_b
    # rho-factor trace
    if ta is None and tb is None:
        tr_rho = Fraction(glrep.delta_rho)
    elif ta is None or tb is None:
        nu, mu = tb if ta is None else ta
        tr_rho = glrep.k0 if nu == mu else Fraction(0)
    else:
        # tr T^a_b T^c_d = k1 d^{a,d} d^{c,b} + k2 d^{a,b} d^{c,d}
        a_up, b_lo = ta
        c_up, d_lo = tb
        tr_rho = Fraction(0)
        if a_up == d_lo and c_up == b_lo:
            tr_rho += glrep.k1
        if a_up == b_lo and c_up == d_lo:
            tr_rho += glrep.k2
    if tr_rho == 0:
        return Fraction(0)
    # M-factor trace
    if ma is None and mb is None:
        tr_m = Fraction(grep.delta_m)
    elif ma is None or mb is None:
        m = mb if ma is None else ma
        tr_m = grep.z_m if m == 0 else Fraction(0)
    else:
        tr_m = Fraction(0)
        if ma == mb:
            tr_m += grep.y_m
        if ma == 0 and mb == 0:
            tr_m += grep.w_m
    return tr_rho * tr_m


# -- base-point sector rules ----------------------------------------------------

def _jacobian_at_zero(xi: Sequence[Poly]) -> tuple[list[list[int]], int]:
    """d_nu xi^mu(0) as [mu][nu] int numerators over one denominator: the
    numerator of xi^mu at e_nu (only x^{e_nu} differentiates to a constant)
    over the component's denominator, brought to their lcm."""
    units = [unit(len(xi), nu) for nu in range(len(xi))]
    den = math.lcm(*(c.denominator for c in xi))
    return [[c.numerators.get(e, 0) * (den // c.denominator) for e in units]
            for c in xi], den


def _divergence_at_zero(xi: Sequence[Poly]) -> Fraction:
    """d_mu xi^mu(0), the trace of ``_jacobian_at_zero``."""
    jac, den = _jacobian_at_zero(xi)
    return Fraction(sum(row[mu] for mu, row in enumerate(jac)), den)


def _q_sector(a: NormalBilinear, b: NormalBilinear, pe: PoleExpansion) -> None:
    """Closed-form contributions of the base-point (q, p) contractions."""
    ta = a.q_sector
    tb = b.q_sector
    if ta is None or tb is None:
        return
    if ta[0] == "L" and tb[0] == "L":
        (jx, dx), (je, de) = _jacobian_at_zero(ta[1]), _jacobian_at_zero(tb[1])
        d = len(jx)
        total = sum(jx[mu][nu] * je[nu][mu] for mu in range(d) for nu in range(d))
        pe.add(2, Fraction(-total, dx * de))
    elif ta[0] == "T" and tb[0] == "L":
        pe.add(3, _divergence_at_zero(tb[1]))
    elif ta[0] == "L" and tb[0] == "T":
        pe.add(3, -_divergence_at_zero(ta[1]))
    elif ta[0] == "T" and tb[0] == "T":
        pe.add(4, Fraction(a.d))


def double_contraction(a: NormalBilinear, b: NormalBilinear,
                       glrep: GlRepTraces, grep: GRepTraces) -> PoleExpansion:
    """Full double contraction of A(z) with B(w): field sector via the OPE
    and the exact delta-pair oracle, base-point sector via the closed rules.
    Returns the exact pole expansion in (z - w)."""
    if (a.d, a.p) != (b.d, b.p):
        raise ValueError("bilinears must share (d, p)")
    d, p = a.d, a.p
    eps = grep.statistics.sign
    pe = PoleExpansion()
    for ta in a.terms:
        deco_a = DerivSpec.none() if ta.phi_deriv is None else DerivSpec.on_x(ta.phi_deriv)
        for tb in b.terms:
            # A's pi (x, z) with B's phi (y, w): -eps K_p(y, x) / (z - w) ...
            s1, k1 = _pole(ta.pi_dots, tb.phi_dots)
            # ... and A's phi (x, z) with B's pi (y, w): K_p(x, y) / (z - w).
            s2, k2 = _pole(ta.phi_dots, tb.pi_dots)
            deco_b = DerivSpec.none() if tb.phi_deriv is None else DerivSpec.on_y(tb.phi_deriv)
            integral = delta_pair_integral(
                ta.coeff, tb.coeff, deco_a, deco_b, (ta.mode, tb.mode), d, p
            )
            if integral == 0:
                continue
            tr = trace_pair(ta.insertion, tb.insertion, glrep, grep)
            if tr == 0:
                continue
            pe.add(k1 + k2, -eps * s1 * s2 * ta.prefactor * tb.prefactor * integral * tr)
    _q_sector(a, b, pe)
    if any(order > 4 for order in pe.coefficients):
        raise AssertionError("pole order above 4 should be impossible")
    return pe


# -- generator builders ----------------------------------------------------------

def build_current(X: Sequence[Poly], d: int, p: int) -> NormalBilinear:
    """J_X with g-components X^a (a = 0 is the privileged trace direction)."""
    check_grid(d, p)
    if X:
        check_field("X", X, d)
    terms = []
    for a_idx, comp in enumerate(X):
        if comp.is_zero():
            continue
        terms.append(Term(Fraction(1), comp, (None, a_idx)))
    return NormalBilinear(d, p, tuple(terms), q_sector=None)


def build_vector_field(xi: Sequence[Poly], d: int, p: int) -> NormalBilinear:
    """L_xi: shifted transport terms pi xi_0^mu d_mu phi, plain frame terms
    pi d_nu xi^mu T^nu_mu phi, plus the base-point tag."""
    check_grid(d, p)
    check_field("vector field", xi, d, d)
    terms: list[Term] = []
    for mu in range(d):
        if any(any(e) for e in xi[mu].numerators):  # xi^mu is not constant
            terms.append(Term(Fraction(1), xi[mu], (None, None), phi_deriv=mu))
        for nu in range(d):
            dxi = xi[mu].deriv(nu)
            if not dxi.is_zero():
                terms.append(Term(Fraction(1), dxi, ((nu, mu), None)))
    return NormalBilinear(d, p, tuple(terms), q_sector=("L", tuple(xi)))


def build_reparam(conformal_weight, d: int, p: int) -> NormalBilinear:
    """T(z) of weight lambda: (lambda-1) :pi phi-dot: + lambda :pi-dot phi:,
    plus the base-point tag."""
    check_grid(d, p)
    lam = exact(conformal_weight)
    one = Poly.constant(d, 1)
    terms = []
    if lam != 1:
        terms.append(Term(lam - 1, one, (None, None), phi_dots=1))
    if lam != 0:
        terms.append(Term(lam, one, (None, None), pi_dots=1))
    return NormalBilinear(d, p, tuple(terms), q_sector=("T",))


# -- charge extraction ------------------------------------------------------------

class MeasuredCharges(_Record):
    """Engine-measured charges.  At d = 1 the two quadratic vector-field
    channels coincide as functionals, so only their sum is measurable there:
    c1 and c2 are None and c1_plus_c2 carries the sum."""

    __slots__ = ("d", "p", "conformal_weight", "c1", "c2", "c1_plus_c2",
                 "c3", "c4", "c5", "c6", "c7", "c8")

    def __init__(self, d: int, p: int, conformal_weight: Fraction, c1: Fraction | None,
                 c2: Fraction | None, c1_plus_c2: Fraction, c3: Fraction, c4: Fraction,
                 c5: Fraction, c6: Fraction, c7: Fraction, c8: Fraction):
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "conformal_weight", conformal_weight)
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "c1_plus_c2", c1_plus_c2)
        _set(self, "c3", c3)
        _set(self, "c4", c4)
        _set(self, "c5", c5)
        _set(self, "c6", c6)
        _set(self, "c7", c7)
        _set(self, "c8", c8)


def extract_charges(d: int, p: int, conformal_weight, glrep: GlRepTraces,
                    grep: GRepTraces) -> MeasuredCharges:
    """Measure every charge from double contractions of basis generators.

    Basis choices isolate one tensor channel each:
      c1 (d >= 2): xi = x1 d_0, eta = x0 d_1 gives pole2 = -c1;
      c1 + c2:     xi = eta = x0 d_0 gives pole2 = -(c1 + c2);
      c5:          X = Y along a non-privileged direction, pole2 = c5;
      c5 + c8:     X = Y along the privileged direction 0;
      c7:          L_{x0 d_0}(z) J_{e0}(w), pole2 = c7;
      c3:          T(z) L_{x0 d_0}(w), pole3 = c3;
      c4:          T(z) T(w), pole4 = c4 / 2;
      c6:          T(z) J_{e0}(w), pole3 = c6.
    """
    check_grid(d, p)
    lam = exact(conformal_weight)
    x0 = Poly.variable(d, 0)
    zero = Poly.zero(d)
    one = Poly.constant(d, 1)

    def vec(mu: int, comp: Poly) -> list[Poly]:
        return [comp if i == mu else zero for i in range(d)]

    # vector-field channels
    xi_diag = vec(0, x0)
    l_diag = build_vector_field(xi_diag, d, p)
    pole_diag = double_contraction(l_diag, l_diag, glrep, grep).at(2)
    c1_plus_c2 = -pole_diag
    if d >= 2:
        x1 = Poly.variable(d, 1)
        l_a = build_vector_field(vec(0, x1), d, p)
        l_b = build_vector_field(vec(1, x0), d, p)
        c1 = -double_contraction(l_a, l_b, glrep, grep).at(2)
        c2 = c1_plus_c2 - c1
    else:
        c1 = None
        c2 = None

    # current channels (two internal components: 0 privileged, 1 generic)
    j_generic = build_current([zero, one], d, p)
    c5 = double_contraction(j_generic, j_generic, glrep, grep).at(2)
    j_priv = build_current([one, zero], d, p)
    c8 = double_contraction(j_priv, j_priv, glrep, grep).at(2) - c5

    # mixed channel
    c7 = double_contraction(l_diag, j_priv, glrep, grep).at(2)

    # reparametrization channels
    t_gen = build_reparam(lam, d, p)
    c3 = double_contraction(t_gen, l_diag, glrep, grep).at(3)
    c4 = 2 * double_contraction(t_gen, t_gen, glrep, grep).at(4)
    c6 = double_contraction(t_gen, j_priv, glrep, grep).at(3)

    return MeasuredCharges(d, p, lam, c1, c2, c1_plus_c2, c3, c4, c5, c6, c7, c8)
