"""Both routes to the charges sum them on int numerators.

``charges.closed_form`` and ``wickcocycle.extract_charges`` put lambda and
the trace parameters over a common denominator, sum each charge as an int
and make one ``Fraction`` per charge.  The differential tests hold both
routes to the charge formulas typed here term by term in ``Fraction``
arithmetic, over d = 1..6 and p = 0..10, both statistics, negative values
and large coprime denominators; the guard test makes every ``Fraction``
operator raise and still gets the same records from a warm call."""

import math
import random
from fractions import Fraction

import pytest

from jetvir.charges import ChargeSet, GlRepTraces, GRepTraces, Statistics, closed_form
from jetvir.wickcocycle import extract_charges

BIG = 10 ** 30 + 1
# pairwise coprime: all odd, two apart
BIG_DENS = (BIG, BIG + 2, BIG + 4)
LAMBDAS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-7, 3))
CHARGES = ("c1", "c2", "c1_plus_c2", "c3", "c4", "c5", "c6", "c7", "c8")
GRID = [(d, p) for d in range(1, 7) for p in range(0, 11)]


def _reference(d, p, lam, gl, gr):
    """The eight charge formulas of ``charges``, each operation a Fraction
    operation, and c1 + c2."""
    eps = gr.statistics.sign
    a, b = Fraction(math.comb(d + p, d)), Fraction(math.comb(d + p, d + 1))
    dd, e = Fraction(math.comb(d + p, d + 2)), Fraction(math.comb(d + p + 1, d + 2))
    drho, dm = Fraction(gl.delta_rho), Fraction(gr.delta_m)
    c1 = 1 + eps * dm * (e * drho + a * gl.k1)
    c2 = eps * dm * (dd * drho + 2 * b * gl.k0 + a * gl.k2)
    return {
        "c1": c1,
        "c2": c2,
        "c1_plus_c2": c1 + c2,
        "c3": 1 + eps * (2 * lam - 1) * dm * (b * drho + a * gl.k0),
        "c4": 2 * d + 2 * eps * (6 * lam * lam - 6 * lam + 1) * a * drho * dm,
        "c5": -eps * a * gr.y_m * drho,
        "c6": eps * (2 * lam - 1) * gr.z_m * a * drho,
        "c7": -eps * gr.z_m * (b * drho + a * gl.k0),
        "c8": -eps * gr.w_m * a * drho,
    }


def _rational(rng, dens):
    return Fraction(rng.randint(-9, 9), rng.choice(dens))


def _cases(d, p):
    """(lambda, glrep, grep): the four fixed weights and one random one, at
    small and at large coprime denominators, both statistics."""
    rng = random.Random(100 * d + p)
    for dens in ((1, 2, 3, 5), BIG_DENS):
        for stats in Statistics:
            for lam in LAMBDAS + (_rational(rng, dens),):
                gl = GlRepTraces(rng.randint(1, 4), *(_rational(rng, dens) for _ in range(3)))
                gr = GRepTraces(rng.randint(1, 4), *(_rational(rng, dens) for _ in range(3)),
                                statistics=stats)
                yield lam, gl, gr


def _check(record, d, p, lam, gl, gr, reference):
    assert isinstance(record, ChargeSet)
    assert (record.d, record.p, record.conformal_weight) == (d, p, lam)
    assert record.glrep is gl and record.grep is gr
    for name in CHARGES:
        value = getattr(record, name)
        if value is None:
            continue
        assert type(value) is Fraction, (name, type(value))
        assert value == reference[name], f"{name} at d={d}, p={p}, lambda={lam}"


@pytest.mark.parametrize("d,p", GRID)
def test_closed_form_matches_the_fraction_formulas(d, p):
    for lam, gl, gr in _cases(d, p):
        record = closed_form(d, p, lam, gl, gr)
        assert all(getattr(record, name) is not None for name in CHARGES)
        _check(record, d, p, lam, gl, gr, _reference(d, p, lam, gl, gr))


@pytest.mark.parametrize("d,p", GRID)
def test_engine_matches_the_fraction_formulas(d, p):
    for lam, gl, gr in _cases(d, p):
        record = extract_charges(d, p, lam, gl, gr)
        if d == 1:
            assert record.c1 is None and record.c2 is None
        else:
            assert record.c1 is not None and record.c2 is not None
        _check(record, d, p, lam, gl, gr, _reference(d, p, lam, gl, gr))


OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__")


@pytest.mark.parametrize("d,p", [(1, 2), (3, 4)])
def test_a_warm_call_makes_no_fraction_arithmetic(monkeypatch, d, p):
    args = (d, p, Fraction(-7, 3), GlRepTraces(2, Fraction(1, 2), Fraction(-3, 5), 4),
            GRepTraces(3, Fraction(2, 7), -1, Fraction(5, 11), Statistics.FERMI))
    expected = (closed_form(*args), extract_charges(*args))

    def refuse(*operands):
        raise AssertionError("a Fraction operator was called")

    for name in OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    with pytest.raises(AssertionError):
        -Fraction(1, 2)
    with pytest.raises(AssertionError):
        1 * Fraction(1, 2)
    assert (closed_form(*args), extract_charges(*args)) == expected
