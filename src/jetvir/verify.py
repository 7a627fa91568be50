"""Self-contained verification sweeps over all module pairs.

Five suites, each pitting two independent computations against each other
with exact rational equality:

  1. lattice sums:      closed binomial forms vs brute enumeration;
  2. delta pairs:       symbolic kernel oracle vs the three closed forms;
  3. closures:          operator commutators vs constructed right-hand sides
                        (current, vector-field and mixed transport brackets);
  4. charges:           engine-measured extension coefficients vs the eight
                        closed-form charges, over a full parameter sweep;
  5. cocycles:          antisymmetry of the residue extensions on random
                        Laurent trajectories, plus the monomial-basis
                        reparametrization pattern and the d = 1 level.

``fault=True`` injects a deliberate off-by-one into suite 1 so callers can
confirm the machinery notices a real discrepancy.
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
from .multiindex import enumerate_indices


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


class VerifyReport(_Record, frozen=False):
    """The results of the suites of one ``run_all``."""

    __slots__ = ("suites",)

    def __init__(self, suites: list[SuiteResult] | None = None):
        self.suites = [] if suites is None else suites

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)


def _random_poly(d: int, deg: int, rng: random.Random, density=0.6) -> Poly:
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < density:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(d, terms)


def suite_sums(d_max: int = 4, p_max: int = 8, fault: bool = False) -> SuiteResult:
    """Check closed = brute for every kind, grid point and direction pair,
    plus the recursion B_{d,p} = B_{d,p-1} + binom(d+p-1, d), the relations
    C = E + D and E = D + B, and permutation symmetry of the directions.

    With ``fault=True`` a deliberate off-by-one is injected into one closed
    form so that the surrounding self-test machinery can prove it would
    notice a real discrepancy.
    """
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


def suite_delta(seed: int, d_max: int = 3, p_max: int = 4,
                pairs: int = 20) -> SuiteResult:
    res = SuiteResult("delta-pairs")
    rng = random.Random(seed)
    for d in range(1, d_max + 1):
        for p in range(0, p_max + 1):
            for _ in range(pairs):
                f = _random_poly(d, p + 2, rng)
                g = _random_poly(d, p + 2, rng)
                oracle = deltacalc.delta_pair_integral(
                    f, g, deltacalc.DerivSpec.none(), deltacalc.DerivSpec.none(),
                    (deltacalc.SmearMode.PLAIN, deltacalc.SmearMode.PLAIN), d, p)
                res.record(
                    oracle == deltacalc.delta_pair_closed("i", f, g, None, None, d, p),
                    f"case i at d={d}, p={p}")
                for mu in range(d):
                    oracle = deltacalc.delta_pair_integral(
                        f, g, deltacalc.DerivSpec.on_x(mu), deltacalc.DerivSpec.none(),
                        (deltacalc.SmearMode.SHIFTED, deltacalc.SmearMode.PLAIN), d, p)
                    res.record(
                        oracle == deltacalc.delta_pair_closed("ii", f, g, mu, None, d, p),
                        f"case ii at d={d}, p={p}, mu={mu}")
                    for nu in range(d):
                        oracle = deltacalc.delta_pair_integral(
                            f, g, deltacalc.DerivSpec.on_x(mu),
                            deltacalc.DerivSpec.on_y(nu),
                            (deltacalc.SmearMode.SHIFTED,
                             deltacalc.SmearMode.SHIFTED), d, p)
                        res.record(
                            oracle == deltacalc.delta_pair_closed(
                                "iii", f, g, mu, nu, d, p),
                            f"case iii at d={d}, p={p}, mu={mu}, nu={nu}")
    return res


def suite_closures(seed: int, d_max: int = 2, p_max: int = 3,
                   pairs: int = 10) -> SuiteResult:
    res = SuiteResult("closures")
    rng = random.Random(seed)
    sc_ab = jetreps.StructureConstants.abelian(1)
    rep_ab = jetreps.MatrixRep.g_abelian(1)
    sc_eps = jetreps.StructureConstants.epsilon()
    rep_eps = jetreps.MatrixRep.g_rotation_adjoint()
    for d in range(1, d_max + 1):
        gl_rep = jetreps.MatrixRep.gl_scalar_weight(d, Fraction(1, 2))
        for p in range(0, p_max + 1):
            for _ in range(pairs):
                # current closure, abelian and non-abelian
                for sc, grep in ((sc_ab, rep_ab), (sc_eps, rep_eps)):
                    X = [_random_poly(d, p + 1, rng) for _ in range(sc.dim)]
                    Y = [_random_poly(d, p + 1, rng) for _ in range(sc.dim)]
                    lhs = jetreps.bracket(
                        jetreps.gauge_operator(X, grep, d, p),
                        jetreps.gauge_operator(Y, grep, d, p))
                    rhs = jetreps.gauge_operator(
                        sc.bracket_components(X, Y), grep, d, p)
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


def suite_charges(d_max: int = 2, p_max: int = 3) -> SuiteResult:
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
                            if m is not None:
                                res.record(m == c, f"{name} at {where}: {m} != {c}")
    return res


def suite_cocycles(seed: int, triples: int = 20) -> SuiteResult:
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
    for _ in range(triples):
        for d in (1, 2):
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
    for p in range(0, 7):
        for stats in (Statistics.BOSE, Statistics.FERMI):
            gl = from_sl_gl1(0, 0, 1, 1)
            gr = GRepTraces(1, Fraction(5, 3), 0, 0, stats)
            c5 = charges_mod.closed_form(1, p, 0, gl, gr).c5
            level = charges_mod.kac_moody_level(p, Fraction(5, 3), stats)
            res.record(c5 == level, f"level reduction at p={p}, {stats.value}")
    for m in range(-4, 5):
        f = Poly.monomial((m + 1,))
        g = Poly.monomial((-m + 1,))
        val = cocycles_mod.reparam_reparam_cocycle(f, g, 12)
        res.record(val == m ** 3 - m,
                   f"monomial pattern at m={m}: {val} != {m ** 3 - m}")
    return res


def run_all(d_max: int = 2, p_max: int = 3, seed: int = 0,
            fault: bool = False) -> VerifyReport:
    """Run every suite; the sweep-size arguments bound the closure and charge
    suites, at most d_max = 2 and p_max = 3 (the sums and delta suites always
    cover their full ranges)."""
    if not (1 <= d_max <= 2 and 0 <= p_max <= 3):
        raise ValueError(f"verify grid out of range: need 1 <= d_max <= 2 and "
                         f"0 <= p_max <= 3, got d_max={d_max}, p_max={p_max}")
    report = VerifyReport()
    report.suites.append(suite_sums(fault=fault))
    report.suites.append(suite_delta(seed))
    report.suites.append(suite_closures(seed, d_max=d_max, p_max=p_max))
    report.suites.append(suite_charges(d_max=d_max, p_max=p_max))
    report.suites.append(suite_cocycles(seed))
    return report
