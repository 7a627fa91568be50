"""End-to-end acceptance checks: every fixed numeric target is either a
hand-derivable small case or the exact agreement of two independent
computations (closed form vs enumeration, symbolic oracle vs closed form,
commutator vs constructed right-hand side, contraction engine vs charge
formulas, residue calculus vs antisymmetry/known patterns)."""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from jetvir import charges as charges_mod
from jetvir import cocycles as cocycles_mod
from jetvir import deltacalc, jetreps, wickcocycle
from jetvir.charges import GRepTraces, Statistics, from_sl_gl1
from jetvir.exactpoly import Poly
from jetvir.multiindex import enumerate_indices
from jetvir.verify import (
    suite_charges,
    suite_closures,
    suite_cocycles,
    suite_delta,
    suite_sums,
)

SEED = 20260826


def _rand_poly(d, deg, rng, density=0.6):
    terms = {}
    for e in enumerate_indices(d, deg):
        if rng.random() < density:
            terms[e] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(d, terms)


def test_criterion_1_lattice_sum_identities():
    start = time.monotonic()
    report = suite_sums(SEED, 4, 8, False)
    elapsed = time.monotonic() - start
    assert report.ok, report.failures[:5]
    assert report.checks >= 4 * 9  # every grid point checked at least once
    assert elapsed < 5.0, f"lattice sum sweep took {elapsed:.1f}s"


def test_criterion_2_delta_pair_oracle_vs_closed():
    start = time.monotonic()
    result = suite_delta(SEED, 3, 4, False)
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:5]
    # d <= 3, p <= 4, 20 pairs per point, 1 + d + d^2 checks per pair
    assert result.checks == 2300
    assert elapsed < 30.0, f"delta pair sweep took {elapsed:.1f}s"


def test_criterion_2_equal_direction_covariant_case():
    rng = random.Random(SEED)
    for d in (1, 2, 3):
        for p in (0, 2, 4):
            f = _rand_poly(d, p + 2, rng)
            g = _rand_poly(d, p + 2, rng)
            for mu in range(d):
                oracle = deltacalc.delta_pair_integral(
                    f, g, deltacalc.DerivSpec.on_x(mu),
                    deltacalc.DerivSpec.on_y(mu),
                    (deltacalc.SmearMode.SHIFTED, deltacalc.SmearMode.SHIFTED),
                    d, p)
                assert oracle == deltacalc.delta_pair_closed(
                    "iii", f, g, mu, mu, d, p)


def test_criterion_3_closures():
    start = time.monotonic()
    result = suite_closures(SEED, 2, 3, False)
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:5]
    # 8 (d, p) points, 10 pairs per point, 4 closures per pair
    assert result.checks == 320
    assert elapsed < 60.0, f"closure sweep took {elapsed:.1f}s"


@pytest.mark.xfail(
    strict=True,
    reason="the commutator of a vector-field generator with a current "
    "generator transports the current's function but does not add the "
    "divergence term of a weight-one density: for constant X in an abelian "
    "algebra the current operator is central, so the bracket vanishes while "
    "the weight-one formula does not. Only the transport law closes; see "
    "test_criterion_3_closures and the mixed-bracket unit tests.",
)
def test_criterion_3_mixed_bracket_weight_one_form():
    rng = random.Random(SEED)
    grep = jetreps.MatrixRep.g_abelian(1)
    for d in (1, 2):
        glrep = jetreps.MatrixRep.gl_scalar_weight(d, Fraction(1, 2))
        for p in (0, 1, 2, 3):
            for _ in range(10):
                xi = [_rand_poly(d, 3, rng) for _ in range(d)]
                X = [_rand_poly(d, p + 1, rng)]
                lhs = jetreps.bracket_mixed(
                    jetreps.diff_operator(xi, glrep, d, p),
                    jetreps.gauge_operator(X, grep, d, p))
                weighted = cocycles_mod.density_action(xi, X)
                rhs = jetreps.embed_gauge_operator(
                    jetreps.gauge_operator(weighted, grep, d, p), glrep.size)
                assert lhs == rhs


def test_criterion_4_engine_reproduces_charge_formulas():
    start = time.monotonic()
    result = suite_charges(SEED, 2, 3, False)
    elapsed = time.monotonic() - start
    assert result.ok, result.failures[:5]
    # the sweep covers both statistics, four weights, three trace tuples
    # (one with z_m != 0 and w_m != 0), every charge at every point
    assert result.checks >= 2 * 4 * 4 * 2 * 3 * 7
    assert elapsed < 120.0, f"charge sweep took {elapsed:.1f}s"


@pytest.mark.parametrize("d,p", [(3, 4), (4, 6), (5, 4), (6, 6)])
def test_criterion_4_engine_reproduces_charge_formulas_beyond_d2(d, p):
    # From d = 3 on, D = binom(d+p, d+2) and the 2d term of c4 take values
    # the verify grid (d <= 2) never reaches.
    gl = from_sl_gl1(Fraction(-1, 2), 1, 2, d)
    for lam in (Fraction(1, 2), Fraction(2)):
        for stats in Statistics:
            gr = GRepTraces(2, 2, 1, 3, stats)
            closed = charges_mod.closed_form(d, p, lam, gl, gr)
            measured = wickcocycle.extract_charges(d, p, lam, gl, gr)
            for name, m, c in charges_mod.compare(closed, measured):
                assert m == c, f"{name} at d={d}, p={p}, lambda={lam}, {stats.value}"
            assert measured == closed


def test_criterion_4_cli_measure_at_the_largest_grid_point():
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "jetvir.cli", "charges", "--d", "6", "--p", "10",
         "--measure"],
        capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stdout + result.stderr
    assert "engine match: exact" in result.stdout
    assert elapsed < 60.0, f"charges --measure at d=6, p=10 took {elapsed:.1f}s"


def test_criterion_5_level_reduction():
    for p in range(0, 7):
        for stats in Statistics:
            for y_m in (Fraction(1), Fraction(-2), Fraction(5, 3)):
                gl = from_sl_gl1(0, 0, 1, 1)
                gr = GRepTraces(1, y_m, 0, 0, stats)
                closed = charges_mod.closed_form(1, p, 0, gl, gr).c5
                level = charges_mod.kac_moody_level(p, y_m, stats)
                assert closed == level == -stats.sign * (p + 1) * y_m
                measured = wickcocycle.extract_charges(1, p, 0, gl, gr).c5
                assert measured == level


def test_criterion_5_monomial_cocycle_pattern():
    for m in range(-4, 5):
        f = Poly.monomial((m + 1,))
        g = Poly.monomial((-m + 1,))
        value = cocycles_mod.reparam_reparam_cocycle(f, g, 12)
        assert value == m ** 3 - m


def test_criterion_6_cocycle_antisymmetry():
    # 20 draws x 2 dimensions x 2 kinds of antisymmetry, 14 level reductions
    # and 9 monomial pattern checks
    result = suite_cocycles(SEED, 2, 6, False)
    assert result.ok, result.failures[:5]
    assert result.checks == 103


def test_criterion_7_cli_verify_end_to_end():
    result = subprocess.run(
        [sys.executable, "-m", "jetvir.cli", "verify", "--seed", str(SEED)],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "result: pass" in result.stdout


def test_criterion_7_cli_fault_self_test():
    result = subprocess.run(
        [sys.executable, "-m", "jetvir.cli", "verify",
         "--d-max", "1", "--p-max", "0", "--self-test-fault"],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "FAIL" in result.stdout
