"""Seeded inputs and one pass of each benchmark workload.

A pass is a closed loop: one caller makes each call into the jetvir layers
only after the previous one has returned, and every result is compared
exactly against a second, independent computation.  The inputs have the
shape the ``jetvir verify`` suites use (the same degrees, 0.6 term density
and coefficient range), with two differences that keep the amount of work
fixed across seeds: a random polynomial has exactly round(0.6 * M) of its
M candidate monomials, and its coefficients are never zero.

Functions are looked up through their modules (``jetreps.gauge_operator``,
never a name bound at import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

from jetvir import (
    charges,
    cocycles,
    deltacalc,
    exactpoly,
    jetreps,
    jetsums,
    multiindex,
    wickcocycle,
)

DENSITY = 0.6
NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)

# closures: every (d, p) with d <= 2, p <= 3, as in the verify suite.
CLOSURE_POINTS = tuple((d, p) for d in (1, 2) for p in range(4))
# charges-measure: (d, p, draws); N = binom(d+p, d) is 84 and 126.
CHARGE_POINTS = ((3, 6, 2), (5, 4, 2))
# dense-fields: the delta grid of the verify suite (d <= 3, p <= 4).
DELTA_POINTS = tuple((d, p) for d in (1, 2, 3) for p in range(5))
DELTA_PAIRS = 4
COCYCLE_TRIPLES = 8
SUM_GRID = (4, 8)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """The generator for pass ``index`` of a run with ``seed``."""
    return random.Random(f"{workload}/{seed}/{index}")


def random_poly(rng: random.Random, d: int, deg: int) -> exactpoly.Poly:
    lattice = multiindex.enumerate_indices(d, deg)
    chosen = rng.sample(lattice, round(DENSITY * len(lattice)))
    return exactpoly.Poly(d, {e: Fraction(rng.choice(NUMERATORS), rng.randint(1, 3))
                              for e in chosen})


def _fields(rng, d, deg, count):
    return tuple(random_poly(rng, d, deg) for _ in range(count))


class Checks:
    """Exact comparisons of one pass.  With ``fault`` the expected value of
    the first comparison is perturbed, which must make the pass fail."""

    def __init__(self, fault: bool = False):
        self.fault = fault
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def __call__(self, actual, expected, where: str) -> None:
        if self.fault and self.attempted == 0:
            expected = _perturbed(expected)
        self.attempted += 1
        if not actual == expected:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = where


def _perturbed(value):
    if isinstance(value, jetreps.GaugeJetOperator):
        m = value.matrix
        first = (m[0][0] + exactpoly.Poly.constant(value.d, 1),) + m[0][1:]
        return dataclasses.replace(value, matrix=(first,) + m[1:])
    return value + 1


# -- closures ----------------------------------------------------------------

def closure_inputs(rng):
    cases = []
    for d, p in CLOSURE_POINTS:
        currents = ((_fields(rng, d, p + 1, 1), _fields(rng, d, p + 1, 1)),
                    (_fields(rng, d, p + 1, 3), _fields(rng, d, p + 1, 3)))
        cases.append((d, p, currents, _fields(rng, d, 4, d), _fields(rng, d, 4, d),
                      random_poly(rng, d, p + 1)))
    return cases


def run_closures(cases, check):
    algebras = ((jetreps.StructureConstants.abelian(1), jetreps.MatrixRep.g_abelian(1)),
                (jetreps.StructureConstants.epsilon(),
                 jetreps.MatrixRep.g_rotation_adjoint()))
    rep_ab = algebras[0][1]
    for d, p, currents, xi, eta, X in cases:
        gl_rep = jetreps.MatrixRep.gl_scalar_weight(d, Fraction(1, 2))
        for (sc, rep), (A, B) in zip(algebras, currents):
            lhs = jetreps.bracket_gauge(jetreps.gauge_operator(A, rep, d, p),
                                        jetreps.gauge_operator(B, rep, d, p))
            rhs = jetreps.gauge_operator(sc.bracket_components(A, B), rep, d, p)
            check(lhs, rhs, f"current closure at d={d}, p={p}, dim-g={sc.dim}")
        l_xi = jetreps.diff_operator(xi, gl_rep, d, p)
        lhs = jetreps.bracket_diff(l_xi, jetreps.diff_operator(eta, gl_rep, d, p))
        rhs = jetreps.diff_operator(jetreps.vector_field_bracket(xi, eta), gl_rep, d, p)
        check(lhs, rhs, f"vector-field closure at d={d}, p={p}")
        lhs = jetreps.bracket_mixed(l_xi, jetreps.gauge_operator((X,), rep_ab, d, p))
        transported = exactpoly.Poly.zero(d)
        for mu in range(d):
            transported = transported + xi[mu] * X.deriv(mu)
        rhs = jetreps.embed_gauge_operator(
            jetreps.gauge_operator((transported,), rep_ab, d, p), gl_rep.size)
        check(lhs, rhs, f"mixed transport closure at d={d}, p={p}")


# -- charges-measure -----------------------------------------------------------

def _small_fraction(rng):
    return Fraction(rng.randint(-2, 2), rng.randint(1, 2))


def _conformal_weight(rng):
    # lambda = 0 or 1 drops a term from build_reparam, which would change the
    # amount of work; every other value does the same work.
    while True:
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if lam not in (0, 1):
            return lam


def charge_inputs(rng):
    cases = []
    for d, p, draws in CHARGE_POINTS:
        for _ in range(draws):
            gl = charges.from_sl_gl1(_small_fraction(rng), rng.randint(0, 2),
                                     rng.randint(1, 2), d)
            gr = charges.GRepTraces(rng.randint(1, 2), rng.randint(0, 3),
                                    rng.randint(0, 3), rng.randint(0, 3),
                                    rng.choice(tuple(charges.Statistics)))
            cases.append((d, p, _conformal_weight(rng), gl, gr))
    return cases


def run_charges(cases, check):
    for d, p, lam, gl, gr in cases:
        closed = charges.closed_form(d, p, lam, gl, gr)
        meas = wickcocycle.extract_charges(d, p, lam, gl, gr)
        where = f"d={d}, p={p}, lambda={lam}, {gr.statistics.value}"
        check(meas.c1_plus_c2, closed.c1 + closed.c2, f"c1+c2 at {where}")
        names = ("c3", "c4", "c5", "c6", "c7", "c8") + (("c1", "c2") if d >= 2 else ())
        for name in names:
            check(getattr(meas, name), getattr(closed, name), f"{name} at {where}")


# -- dense-fields --------------------------------------------------------------

def _trajectory(rng, d):
    comps = []
    for _ in range(d):
        powers = rng.sample(range(-2, 3), 4)  # density 0.7 of 5 powers
        comps.append(exactpoly.Poly(1, {(k,): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                                        for k in powers}))
    return cocycles.Trajectory(tuple(comps))


def dense_inputs(rng):
    delta = [(d, p, random_poly(rng, d, p + 2), random_poly(rng, d, p + 2))
             for d, p in DELTA_POINTS for _ in range(DELTA_PAIRS)]
    cocycle = [(d, _trajectory(rng, d), _fields(rng, d, 2, d), _fields(rng, d, 2, d),
                _fields(rng, d, 2, 2), _fields(rng, d, 2, 2))
               for _ in range(COCYCLE_TRIPLES) for d in (1, 2)]
    return delta, cocycle


def run_dense(inputs, check):
    delta, cocycle = inputs
    dc = deltacalc
    plain, shifted = dc.SmearMode.PLAIN, dc.SmearMode.SHIFTED
    for d, p, f, g in delta:
        oracle = dc.delta_pair_integral(f, g, dc.DerivSpec.none(), dc.DerivSpec.none(),
                                        (plain, plain), d, p)
        check(oracle, dc.delta_pair_closed("i", f, g, None, None, d, p),
              f"case i at d={d}, p={p}")
        for mu in range(d):
            oracle = dc.delta_pair_integral(f, g, dc.DerivSpec.on_x(mu), dc.DerivSpec.none(),
                                            (shifted, plain), d, p)
            check(oracle, dc.delta_pair_closed("ii", f, g, mu, None, d, p),
                  f"case ii at d={d}, p={p}, mu={mu}")
            for nu in range(d):
                oracle = dc.delta_pair_integral(f, g, dc.DerivSpec.on_x(mu),
                                                dc.DerivSpec.on_y(nu),
                                                (shifted, shifted), d, p)
                check(oracle, dc.delta_pair_closed("iii", f, g, mu, nu, d, p),
                      f"case iii at d={d}, p={p}, mu={mu}, nu={nu}")

    c1, c2, c5, c8 = Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 5)
    for d, q, xi, eta, X, Y in cocycle:
        check(cocycles.virasoro_cocycle(xi, eta, q, c1, c2),
              -cocycles.virasoro_cocycle(eta, xi, q, c1, c2),
              f"vector-field antisymmetry, d={d}")
        check(cocycles.affine_cocycle(X, Y, q, c5, c8),
              -cocycles.affine_cocycle(Y, X, q, c5, c8), f"current antisymmetry, d={d}")
    for p in range(7):
        for stats in charges.Statistics:
            gl = charges.from_sl_gl1(0, 0, 1, 1)
            gr = charges.GRepTraces(1, Fraction(5, 3), 0, 0, stats)
            check(charges.closed_form(1, p, 0, gl, gr).c5,
                  charges.kac_moody_level(p, Fraction(5, 3), stats),
                  f"level reduction at p={p}, {stats.value}")
    for m in range(-4, 5):
        f = exactpoly.Poly.monomial((m + 1,))
        g = exactpoly.Poly.monomial((1 - m,))
        check(cocycles.reparam_reparam_cocycle(f, g, 12), m ** 3 - m,
              f"monomial pattern at m={m}")

    kinds = jetsums.SumKind
    d_max, p_max = SUM_GRID
    for d in range(1, d_max + 1):
        for p in range(p_max + 1):
            jobs = [(kinds.A, None, None)]
            for mu in range(d):
                jobs += [(kinds.B, mu, None), (kinds.C, mu, None)]
                jobs += [(k, mu, nu) for nu in range(d) if nu != mu
                         for k in (kinds.D, kinds.E)]
            for kind, mu, nu in jobs:
                check(jetsums.sum_closed(kind, d, p, mu, nu),
                      jetsums.sum_brute(kind, d, p, mu, nu),
                      f"{kind.value} sum at d={d}, p={p}, mu={mu}, nu={nu}")


WORKLOADS = {
    "closures": (closure_inputs, run_closures),
    "charges-measure": (charge_inputs, run_charges),
    "dense-fields": (dense_inputs, run_dense),
}
