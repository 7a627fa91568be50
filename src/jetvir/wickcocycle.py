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
symbolic oracle of ``deltacalc`` and collects them in one field-sector
table keyed by pole order and by the indices of the trace parameters
(Delta_rho, k0, k1, k2) and (Delta_M, z_M, y_M, w_M) that the trace of the
matrix insertions sums.  Each pole order of it becomes a channel of int
coefficients over one denominator, and ``_read``, the one evaluator,
applies the statistics sign and the parameter values on int numerators,
which gives an exact pole expansion in (z - w).  The basis
contractions that measure the charges read it once per (d, p), with lambda
symbolic, as T(lambda) = (1 - lambda) T(0) + lambda T(1) of ``build_reparam``;
``extract_charges`` returns the measurement as a ``charges.ChargeSet``, the
record that ``charges.closed_form`` returns.

The base point (q, p) is one more field: a bosonic multiplet of weight
lambda = 1 in the vector representation of gl(d) with trivial M, the
weight-(lambda, 1 - lambda) pair of Friedan, Martinec and Shenker.  A
generator carries its base-point terms in ``q_sector``, and the engine
contracts them as it contracts the field sector, at p = 0, read at the
statistics sign +1 and the traces (Delta_rho, k0, k1, k2) = (d, 1, 1, 0).

Extensions are extracted at base point q = 0: the closed forms are local
polynomial expressions in derivatives of the input functions at q, so
equality at the origin for all polynomial inputs implies equality at all q.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from .charges import ChargeSet, GlRepTraces, GRepTraces, check_traces
from .deltacalc import DerivSpec, SmearMode, delta_pair_integral
from .exactpoly import Poly, _Record, _over_lcm, _set, check_field, exact
from .multiindex import check_grid


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
    and the terms ``q_sector`` of its base point, contracted at p = 0."""

    __slots__ = ("d", "p", "terms", "q_sector")

    def __init__(self, d: int, p: int, terms: tuple[Term, ...], q_sector: tuple[Term, ...] = ()):
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "terms", terms)
        _set(self, "q_sector", q_sector)


# -- the contraction rule --------------------------------------------------------

def _pole(r: int, s: int) -> tuple[int, int]:
    """d_z^r d_w^s (z-w)^(-1) = (-1)^r (r+s)! (z-w)^(-(1+r+s)), as
    (coefficient, pole order)."""
    return (-1) ** r * math.factorial(r + s), 1 + r + s


# -- traces --------------------------------------------------------------------

def _trace_forms(ins_a: Insertion, ins_b: Insertion) -> tuple[tuple, tuple]:
    """The traces over rho and over M of the product of two insertions, as
    the indices, in the order of ``_parameters``, of the trace parameters
    each one sums; every parameter enters with coefficient 1."""
    ta, ma = ins_a
    tb, mb = ins_b
    if ta is None and tb is None:
        rho = (0,)
    elif ta is None or tb is None:
        nu, mu = tb if ta is None else ta
        rho = (1,) if nu == mu else ()
    else:
        # tr T^a_b T^c_d = k1 d^{a,d} d^{c,b} + k2 d^{a,b} d^{c,d}
        (a_up, b_lo), (c_up, d_lo) = ta, tb
        rho = (2,) * (a_up == d_lo and c_up == b_lo) + (3,) * (a_up == b_lo and c_up == d_lo)
    if ma is None and mb is None:
        m = (0,)
    elif ma is None or mb is None:
        m = (1,) if (mb if ma is None else ma) == 0 else ()
    else:
        m = (2,) * (ma == mb) + (3,) * (ma == mb == 0)
    return rho, m


_Parameters = tuple[tuple[int, int, int], tuple[int, ...], tuple[int, ...], int]


def _parameters(lam: Fraction | int, glrep: GlRepTraces, grep: GRepTraces) -> _Parameters:
    """lambda and the trace parameters as int numerators over one
    denominator t: the powers (1, lambda, lambda^2) times t^2, the rho and m
    parameters in the order of the indices of ``_trace_forms`` times t, and
    t^4, the denominator of a product of one of each."""
    (n, k0, k1, k2, z_m, y_m, w_m), t = _over_lcm(lam, glrep.k0, glrep.k1, glrep.k2,
                                                   grep.z_m, grep.y_m, grep.w_m)
    return ((t * t, n * t, n * n), (glrep.delta_rho * t, k0, k1, k2),
            (grep.delta_m * t, z_m, y_m, w_m), t ** 4)


# The field sector of a contraction without the statistics sign eps:
# (pole order, i, j) -> c.  The sector's coefficient of (z - w)^(-order) is
# eps times the sum of c rho_i m_j over the entries at that order, with rho_i
# and m_j the trace parameters that ``_trace_forms`` indexes.
_FieldTable = dict[tuple[int, int, int], int | Fraction]


def _field_table(terms_a: Sequence[Term], terms_b: Sequence[Term], d: int, p: int
                 ) -> _FieldTable:
    """Contract every term of A(z) with every term of B(w) through the OPE
    and the exact delta-pair oracle at (d, p); a pair whose integral or
    trace vanishes adds nothing."""
    table: _FieldTable = {}
    for ta in terms_a:
        deco_a = DerivSpec.none() if ta.phi_deriv is None else DerivSpec.on_x(ta.phi_deriv)
        for tb in terms_b:
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
            rho, m = _trace_forms(ta.insertion, tb.insertion)
            # -s1 s2 prefactor_a prefactor_b integral from int numerators and
            # denominators: one Fraction at most, and an int where it is one
            pa, pb = ta.prefactor, tb.prefactor
            num = -s1 * s2 * pa.numerator * pb.numerator * integral.numerator
            den = pa.denominator * pb.denominator * integral.denominator
            c = num // den if num % den == 0 else Fraction(num, den)
            for i in rho:
                for j in m:
                    key = (k1 + k2, i, j)
                    table[key] = table.get(key, 0) + c
    return table


# -- channels --------------------------------------------------------------------

# A channel, the coefficient of one pole order: int entries (k, i, j, c) over
# one denominator and the base-point constant q as (numerator, denominator).
# The coefficient is q + eps * sum c lambda^k rho_i m_j over the entries.
_Channel = tuple[tuple[tuple[int, int, int, int], ...], int, tuple[int, int]]


def _channels(contractions: Sequence[tuple[tuple, NormalBilinear, NormalBilinear]]
              ) -> dict[int, _Channel]:
    """The coefficients of sum w(lambda) A(z) B(w) over the contractions
    (w, A, B) by pole order, each weight w given by its coefficients of
    lambda^0, lambda^1, ...  The weights sum to 1 and the pairs all carry the
    same base-point terms, so the last pair gives the base-point constant:
    their p = 0 field table read at the sign +1, the traces (d, 1, 1, 0) of
    the vector representation of gl(d) and trivial M."""
    acc: dict[int, dict[tuple[int, int, int], int | Fraction]] = {}
    for weight, a, b in contractions:
        for (order, i, j), c in _field_table(a.terms, b.terms, a.d, a.p).items():
            sums = acc.setdefault(order, {})
            for k, wk in enumerate(weight):
                if wk:
                    sums[k, i, j] = sums.get((k, i, j), 0) + wk * c
    rho, m = (a.d, 1, 1, 0), (1, 0, 0, 0)
    q: dict[int, int | Fraction] = {}
    for (order, i, j), c in _field_table(a.q_sector, b.q_sector, a.d, 0).items():
        q[order] = q.get(order, 0) + c * rho[i] * m[j]
        acc.setdefault(order, {})
    out = {}
    for order, sums in acc.items():
        keys = [key for key, c in sums.items() if c]
        nums, den = _over_lcm(*[sums[key] for key in keys])
        qc = Fraction(q.get(order, 0))
        out[order] = (tuple(key + (c,) for key, c in zip(keys, nums)), den,
                      (qc.numerator, qc.denominator))
    return out


def _read(channel: _Channel, eps: int, params: _Parameters) -> tuple[int, int]:
    """The one evaluator of a channel: its coefficient at the statistics sign
    ``eps`` and the ``_parameters``, as an int (numerator, denominator)."""
    entries, den, (qn, qd) = channel
    powers, rho, m, pden = params
    den *= pden
    total = sum([c * powers[k] * rho[i] * m[j] for k, i, j, c in entries])
    return qn * den + eps * qd * total, qd * den


def double_contraction(a: NormalBilinear, b: NormalBilinear,
                       glrep: GlRepTraces, grep: GRepTraces) -> dict[int, Fraction]:
    """Full double contraction of A(z) with B(w) through the OPE and the
    exact delta-pair oracle: the field sector at (d, p) and the base-point
    sector at p = 0.  Returns the exact pole expansion in (z - w) as a dict
    pole order -> nonzero coefficient of (z - w)^(-order).  A Laurent
    coefficient in any term of either operand, base point included, raises
    the builders' ValueError (``_refuse_laurent``)."""
    if (a.d, a.p) != (b.d, b.p):
        raise ValueError("bilinears must share (d, p)")
    _refuse_laurent("a term coefficient", [t.coeff for x in (a, b)
                                           for ts in (x.terms, x.q_sector) for t in ts])
    eps = grep.statistics.sign
    params = _parameters(0, glrep, grep)
    poles = {}
    for order, channel in _channels([((1,), a, b)]).items():
        num, den = _read(channel, eps, params)
        if num:
            poles[order] = Fraction(num, den)
    if any(order > 4 for order in poles):
        raise AssertionError("pole order above 4 should be impossible")
    return poles


# -- generator builders ----------------------------------------------------------

def _refuse_laurent(name: str, comps: Sequence[Poly]) -> None:
    """A one-line ValueError for a Laurent component: the engine reads Taylor
    coefficients at q = 0, where a Laurent field has none."""
    if any(c.is_laurent() for c in comps):
        raise ValueError(f"{name} has a negative exponent, but the engine reads Taylor "
                         f"coefficients at q = 0")


def build_current(X: Sequence[Poly], d: int, p: int) -> NormalBilinear:
    """J_X with g-components X^a (a = 0 is the privileged trace direction).
    A Laurent component raises ValueError (``_refuse_laurent``)."""
    check_grid(d, p)
    if X:
        check_field("X", X, d)
        _refuse_laurent("X", X)
    return NormalBilinear(d, p, tuple(Term(Fraction(1), comp, (None, a))
                                      for a, comp in enumerate(X) if not comp.is_zero()))


def build_vector_field(xi: Sequence[Poly], d: int, p: int) -> NormalBilinear:
    """L_xi: shifted transport terms pi xi_0^mu d_mu phi, plain frame terms
    pi d_nu xi^mu T^nu_mu phi; they do not depend on p, so they are the base
    point's terms too.  A Laurent component raises ValueError
    (``_refuse_laurent``)."""
    check_grid(d, p)
    check_field("vector field", xi, d, d)
    _refuse_laurent("vector field", xi)
    terms: list[Term] = []
    for mu in range(d):
        if any(any(e) for e in xi[mu].numerators):  # xi^mu is not constant
            terms.append(Term(Fraction(1), xi[mu], (None, None), phi_deriv=mu))
        for nu in range(d):
            dxi = xi[mu].deriv(nu)
            if not dxi.is_zero():
                terms.append(Term(Fraction(1), dxi, ((nu, mu), None)))
    own = tuple(terms)
    return NormalBilinear(d, p, own, own)


def build_reparam(conformal_weight, d: int, p: int) -> NormalBilinear:
    """T(z) of weight lambda: (lambda-1) :pi phi-dot: + lambda :pi-dot phi:;
    the base point is T's one term at weight 1."""
    check_grid(d, p)
    lam = exact(conformal_weight)
    one = Poly.constant(d, 1)
    terms = []
    if lam != 1:
        terms.append(Term(lam - 1, one, (None, None), phi_dots=1))
    if lam != 0:
        terms.append(Term(lam, one, (None, None), pi_dots=1))
    return NormalBilinear(d, p, tuple(terms), (Term(Fraction(1), one, (None, None), pi_dots=1),))


# -- charge extraction ------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _basis_channels(d: int, p: int) -> dict[str, _Channel]:
    """The basis contractions of ``extract_charges`` at (d, p), each read at
    the one pole order it measures, with the parameters left symbolic.
    ``build_reparam`` is affine in lambda, so T(lambda) = (1 - lambda) T(0)
    + lambda T(1): a T contraction has the weight 1 - lambda or lambda, and
    a T-T contraction their product."""
    x0 = Poly.variable(d, 0)
    zero = Poly.zero(d)
    one = Poly.constant(d, 1)

    def vec(mu: int, comp: Poly) -> list[Poly]:
        return [comp if i == mu else zero for i in range(d)]

    l_diag = build_vector_field(vec(0, x0), d, p)
    # two internal components: 0 privileged, 1 generic
    j_generic = build_current([zero, one], d, p)
    j_priv = build_current([one, zero], d, p)
    t = (((1, -1), build_reparam(0, d, p)), ((0, 1), build_reparam(1, d, p)))
    # L is L_{x0 d_0}, J the generic current and J0 the privileged one
    contractions = {
        "L L": (2, [((1,), l_diag, l_diag)]),
        "J J": (2, [((1,), j_generic, j_generic)]),
        "J0 J0": (2, [((1,), j_priv, j_priv)]),
        "L J0": (2, [((1,), l_diag, j_priv)]),
        "T L": (3, [(w, tk, l_diag) for w, tk in t]),
        "T T": (4, [((wa[0] * wb[0], wa[0] * wb[1] + wa[1] * wb[0], wa[1] * wb[1]), ta, tb)
                    for wa, ta in t for wb, tb in t]),
        "T J0": (3, [(w, tk, j_priv) for w, tk in t]),
    }
    if d >= 2:
        l_a = build_vector_field(vec(0, Poly.variable(d, 1)), d, p)
        l_b = build_vector_field(vec(1, x0), d, p)
        contractions["L(x1 d0) L(x0 d1)"] = (2, [((1,), l_a, l_b)])
    return {name: _channels(pairs)[order] for name, (order, pairs) in contractions.items()}


def extract_charges(d: int, p: int, conformal_weight, glrep: GlRepTraces,
                    grep: GRepTraces) -> ChargeSet:
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

    The contractions are run once per (d, p), with lambda, the statistics
    sign and the trace parameters left symbolic (``_basis_channels``); a
    call reads them at its parameters with ``_read``, derives the charges
    from those int numerators and makes one Fraction per charge.  The record
    carries ``glrep`` and ``grep`` as given; at d = 1 its c1 and c2 are None.
    """
    check_grid(d, p)
    check_traces(glrep, grep)
    lam = exact(conformal_weight)
    eps = grep.statistics.sign
    params = _parameters(lam, glrep, grep)
    pole = {name: _read(channel, eps, params)
            for name, channel in _basis_channels(d, p).items()}
    (n12, d12), (n5, d5), (n58, d58) = pole["L L"], pole["J J"], pole["J0 J0"]
    (n3, d3), (n4, d4), (n6, d6), (n7, d7) = (pole[name]
                                              for name in ("T L", "T T", "T J0", "L J0"))
    c1 = c2 = None
    if d >= 2:
        n1, d1 = pole["L(x1 d0) L(x0 d1)"]
        # c1 = -pole, c2 = (c1 + c2) - c1
        c1, c2 = Fraction(-n1, d1), Fraction(n1 * d12 - n12 * d1, d12 * d1)
    return ChargeSet(d, p, lam, glrep, grep, c1, c2, Fraction(-n12, d12), Fraction(n3, d3),
                     Fraction(2 * n4, d4), Fraction(n5, d5), Fraction(n6, d6), Fraction(n7, d7),
                     Fraction(n58 * d5 - n5 * d58, d58 * d5))
