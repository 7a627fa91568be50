"""Self-contained verification sweeps over all module pairs.

``SUITES`` is the one table of suites: rows of a suite
``suite(seed, d_max, p_max, fault) -> SuiteResult`` and its fixed grid
(d_max, p_max), or None where it takes the grid of ``run_all``.  Each suite
pits two independent computations against each other with exact rational
equality.  With ``fault`` it perturbs one side of one comparison at its
last grid point (m = 2 for the cocycle pattern), with the same random
stream and check count:

  sums      (4, 8)  closed binomial forms vs brute enumeration;
                    fault: the closed A off by one;
  delta     (3, 4)  symbolic kernel oracle vs the three closed forms;
                    fault: the case-ii closed form off by one;
  closures  grid    operator commutators vs constructed right-hand sides
                    (current, vector-field and mixed transport brackets);
                    fault: the current bracket's operands swapped;
  charges   grid    engine-measured extension coefficients vs the eight
                    closed-form charges; fault: the closed c5 off by one;
  cocycles  (2, 6)  residue antisymmetry on random Laurent trajectories
                    (d <= 2), the d = 1 level (p <= 6) and the monomial
                    reparametrization pattern; fault: the pattern's
                    orientation flipped at m = 2.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import charges as charges_mod
from . import cocycles as cocycles_mod
from . import deltacalc, jetreps, jetsums, wickcocycle
from .charges import GRepTraces, Statistics, from_sl_gl1
from .exactpoly import Poly, _Record
from .multiindex import check_int, enumerate_indices

# The random delta and closure pairs per (d, p), the random cocycle triples.
DELTA_PAIRS, CLOSURE_PAIRS, COCYCLE_TRIPLES = 20, 10, 20
# The chance that a random field has each monomial up to its degree.
TERM_DENSITY = 0.6


class SuiteResult(_Record, frozen=False):
    """One suite's name, its number of checks and a witness per failure."""

    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        """A suite that made no check has shown nothing, so it does not pass."""
        return self.checks > 0 and not self.failures

    def record(self, ok: bool, witness: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(witness)


def _random_poly(d: int, deg: int, rng: random.Random) -> Poly:
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < TERM_DENSITY:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(d, terms)


def suite_sums(seed: int, d_max: int, p_max: int, fault: bool) -> SuiteResult:
    """Check closed = brute for every kind, grid point and direction pair,
    plus the recursion B_{d,p} = B_{d,p-1} + binom(d+p-1, d), the relations
    C = E + D and E = D + B, and permutation symmetry of the directions.

    At fixed d the grid proves more than it samples.  The layer |m| = j has
    binom(j+d-1, d-1) points, a polynomial of degree d - 1 in j, so a sum
    over |m| <= p of a summand of degree k is a polynomial of degree <= d + k
    in p.  Every summand here has degree <= 2, and every closed form is a
    polynomial of degree <= d + 2 in p, so two sides that agree at the d + 3
    points p = 0..d+2 agree at every p.  So the grid of ``SUITES``, d <= 4
    and p <= 8, proves all five identities for every p at d <= 4, where
    d + 3 <= 7 points are enough."""
    res = SuiteResult("lattice-sums")
    kinds = jetsums.SumKind
    closed, brute = jetsums.sum_closed, jetsums.sum_brute
    for d in range(1, d_max + 1):
        for p in range(0, p_max + 1):
            a_closed = closed(kinds.A, d, p)
            if fault and d == d_max and p == p_max:
                a_closed += 1
            res.record(a_closed == brute(kinds.A, d, p), f"A mismatch at d={d}, p={p}")
            b_vals = []
            for mu in range(d):
                bc = closed(kinds.B, d, p, mu)
                res.record(bc == brute(kinds.B, d, p, mu),
                           f"B mismatch at d={d}, p={p}, mu={mu}")
                cc = closed(kinds.C, d, p, mu)
                res.record(cc == brute(kinds.C, d, p, mu),
                           f"C mismatch at d={d}, p={p}, mu={mu}")
                b_vals.append(bc)
                for nu in range(d):
                    if nu == mu:
                        continue
                    dc = closed(kinds.D, d, p, mu, nu)
                    ec = closed(kinds.E, d, p, mu, nu)
                    res.record(dc == brute(kinds.D, d, p, mu, nu),
                               f"D mismatch at d={d}, p={p}, mu={mu}, nu={nu}")
                    res.record(ec == brute(kinds.E, d, p, mu, nu),
                               f"E mismatch at d={d}, p={p}, mu={mu}, nu={nu}")
                    res.record(
                        brute(kinds.D, d, p, mu, nu) == brute(kinds.D, d, p, nu, mu),
                        f"D direction symmetry fails at d={d}, p={p}")
                    res.record(ec == dc + bc,
                               f"E = D + B fails at d={d}, p={p}, mu={mu}, nu={nu}")
                    res.record(cc == ec + dc,
                               f"C = E + D fails at d={d}, p={p}, mu={mu}, nu={nu}")
            res.record(all(v == b_vals[0] for v in b_vals),
                       f"B direction symmetry fails at d={d}, p={p}")
            if p >= 1:
                res.record(closed(kinds.B, d, p, 0)
                           == closed(kinds.B, d, p - 1, 0) + math.comb(d + p - 1, d),
                           f"B recursion fails at d={d}, p={p}")
    return res


def suite_delta(seed: int, d_max: int, p_max: int, fault: bool) -> SuiteResult:
    res = SuiteResult("delta-pairs")
    rng = random.Random(seed)
    none, on_x, on_y = (deltacalc.DerivSpec.none(), deltacalc.DerivSpec.on_x,
                        deltacalc.DerivSpec.on_y)
    plain, shifted = deltacalc.SmearMode.PLAIN, deltacalc.SmearMode.SHIFTED
    for d in range(1, d_max + 1):
        # (case, mu, nu, D1, D2, modes) of each oracle-vs-closed check
        cases = [("i", None, None, none, none, (plain, plain))]
        for mu in range(d):
            cases.append(("ii", mu, None, on_x(mu), none, (shifted, plain)))
            cases += [("iii", mu, nu, on_x(mu), on_y(nu), (shifted, shifted))
                      for nu in range(d)]
        for p in range(0, p_max + 1):
            for _ in range(DELTA_PAIRS):
                f = _random_poly(d, p + 2, rng)
                g = _random_poly(d, p + 2, rng)
                for case, mu, nu, d1, d2, modes in cases:
                    oracle = deltacalc.delta_pair_integral(f, g, d1, d2, modes, d, p)
                    closed = deltacalc.delta_pair_closed(case, f, g, mu, nu, d, p)
                    if fault and case == "ii" and (d, p) == (d_max, p_max):
                        closed += 1
                    where = "".join(f", {name}={v}" for name, v in (("mu", mu), ("nu", nu))
                                    if v is not None)
                    res.record(oracle == closed, f"case {case} at d={d}, p={p}{where}")
    return res


def suite_closures(seed: int, d_max: int, p_max: int, fault: bool) -> SuiteResult:
    res = SuiteResult("closures")
    rng = random.Random(seed)
    sc_ab = jetreps.StructureConstants.abelian(1)
    rep_ab = jetreps.MatrixRep.g_abelian(1)
    sc_eps = jetreps.StructureConstants.epsilon()
    rep_eps = jetreps.MatrixRep.g_rotation_adjoint()
    for d in range(1, d_max + 1):
        gl_rep = jetreps.MatrixRep.gl_scalar_weight(d, Fraction(1, 2))
        for p in range(0, p_max + 1):
            for _ in range(CLOSURE_PAIRS):
                # current closure, abelian and non-abelian
                for sc, grep in ((sc_ab, rep_ab), (sc_eps, rep_eps)):
                    X = [_random_poly(d, p + 1, rng) for _ in range(sc.dim)]
                    Y = [_random_poly(d, p + 1, rng) for _ in range(sc.dim)]
                    lhs = jetreps.bracket(
                        jetreps.gauge_operator(X, grep, d, p),
                        jetreps.gauge_operator(Y, grep, d, p))
                    swap = fault and (d, p) == (d_max, p_max)
                    rhs = jetreps.gauge_operator(
                        sc.bracket_components(*((Y, X) if swap else (X, Y))), grep, d, p)
                    res.record(lhs == rhs,
                               f"current closure at d={d}, p={p}, dim-g={sc.dim}")
                # vector-field closure
                xi = [_random_poly(d, 4, rng) for _ in range(d)]
                eta = [_random_poly(d, 4, rng) for _ in range(d)]
                lhs = jetreps.bracket(
                    jetreps.diff_operator(xi, gl_rep, d, p),
                    jetreps.diff_operator(eta, gl_rep, d, p))
                rhs = jetreps.diff_operator(
                    jetreps.vector_field_bracket(xi, eta), gl_rep, d, p)
                res.record(lhs == rhs, f"vector-field closure at d={d}, p={p}")
                # mixed bracket: the commutator is the transported current
                X = [_random_poly(d, p + 1, rng)]
                lhs = jetreps.bracket_mixed(
                    jetreps.diff_operator(xi, gl_rep, d, p),
                    jetreps.gauge_operator(X, rep_ab, d, p))
                transported = [sum((xi[mu] * X[0].deriv(mu) for mu in range(d)),
                                   Poly.zero(d))]
                rhs = jetreps.embed_gauge_operator(
                    jetreps.gauge_operator(transported, rep_ab, d, p),
                    gl_rep.size)
                res.record(lhs == rhs, f"mixed transport closure at d={d}, p={p}")
    return res


def suite_charges(seed: int, d_max: int, p_max: int, fault: bool) -> SuiteResult:
    res = SuiteResult("charges")
    lambdas = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    trace_tuples = (
        (Fraction(0), Fraction(0), 1, dict(delta_m=1, y_m=1, z_m=0, w_m=0)),
        (Fraction(1), Fraction(0), 1, dict(delta_m=2, y_m=2, z_m=1, w_m=3)),
        (Fraction(-1, 2), Fraction(1), 2, dict(delta_m=1, y_m=0, z_m=2, w_m=1)),
    )
    for d in range(1, d_max + 1):
        for p in range(0, p_max + 1):
            for lam in lambdas:
                for stats in (Statistics.BOSE, Statistics.FERMI):
                    for kappa, y_rho, drho, grkw in trace_tuples:
                        gl = from_sl_gl1(kappa, y_rho, drho, d)
                        gr = GRepTraces(statistics=stats, **grkw)
                        closed = charges_mod.closed_form(d, p, lam, gl, gr)
                        meas = wickcocycle.extract_charges(d, p, lam, gl, gr)
                        where = f"d={d}, p={p}, lambda={lam}, {stats.value}, kappa={kappa}"
                        for name, m, c in charges_mod.compare(closed, meas):
                            if fault and name == "c5" and (d, p) == (d_max, p_max):
                                c += 1
                            if m is not None:
                                res.record(m == c, f"{name} at {where}: {m} != {c}")
    return res


def suite_cocycles(seed: int, d_max: int, p_max: int, fault: bool) -> SuiteResult:
    res = SuiteResult("cocycles")
    rng = random.Random(seed)

    def rand_traj(d: int) -> cocycles_mod.Trajectory:
        comps = []
        for _ in range(d):
            terms = {(k,): Fraction(rng.randint(-3, 3))
                     for k in range(-2, 3) if rng.random() < 0.7}
            comps.append(Poly(1, terms) if terms else Poly.monomial((1,)))
        return cocycles_mod.Trajectory(tuple(comps))

    c1, c2, c5, c8 = Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 5)
    for _ in range(COCYCLE_TRIPLES):
        for d in range(1, d_max + 1):
            q = rand_traj(d)
            xi = [_random_poly(d, 2, rng) for _ in range(d)]
            eta = [_random_poly(d, 2, rng) for _ in range(d)]
            v = cocycles_mod.virasoro_cocycle(xi, eta, q, c1, c2) \
                + cocycles_mod.virasoro_cocycle(eta, xi, q, c1, c2)
            res.record(v == 0, f"vector-field antisymmetry, d={d}: residual {v}")
            X = [_random_poly(d, 2, rng) for _ in range(2)]
            Y = [_random_poly(d, 2, rng) for _ in range(2)]
            v = cocycles_mod.affine_cocycle(X, Y, q, c5, c8) \
                + cocycles_mod.affine_cocycle(Y, X, q, c5, c8)
            res.record(v == 0, f"current antisymmetry, d={d}: residual {v}")
    # d = 1 reductions
    for p in range(0, p_max + 1):
        for stats in (Statistics.BOSE, Statistics.FERMI):
            gl = from_sl_gl1(0, 0, 1, 1)
            gr = GRepTraces(1, Fraction(5, 3), 0, 0, stats)
            c5 = charges_mod.closed_form(1, p, 0, gl, gr).c5
            level = charges_mod.kac_moody_level(p, Fraction(5, 3), stats)
            res.record(c5 == level, f"level reduction at p={p}, {stats.value}")
    for m in range(-4, 5):
        f = Poly.monomial((m + 1,))
        g = Poly.monomial((-m + 1,))
        if fault and m == 2:
            f, g = g, f
        val = cocycles_mod.reparam_reparam_cocycle(f, g, 12)
        res.record(val == m ** 3 - m,
                   f"monomial pattern at m={m}: {val} != {m ** 3 - m}")
    return res


# (suite, its fixed (d_max, p_max), or None for the grid of run_all)
SUITES = (
    (suite_sums, (4, 8)),
    (suite_delta, (3, 4)),
    (suite_closures, None),
    (suite_charges, None),
    (suite_cocycles, (2, 6)),
)


def run_all(d_max: int = 2, p_max: int = 3, seed: int = 0,
            fault: bool = False) -> list[SuiteResult]:
    """Run every row of ``SUITES``; the sweep-size arguments bound the rows
    without a grid of their own, at most d_max = 2 and p_max = 3."""
    check_int("d_max", d_max, 1)
    check_int("p_max", p_max, 0)
    if d_max > 2 or p_max > 3:
        raise ValueError(f"verify grid out of range: need 1 <= d_max <= 2 and "
                         f"0 <= p_max <= 3, got d_max={d_max}, p_max={p_max}")
    return [suite(seed, *(grid or (d_max, p_max)), fault) for suite, grid in SUITES]
