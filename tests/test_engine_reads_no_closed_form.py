"""The charge engine is one of the two computations that every charge
check pits against each other, so it must never consult the other one: with
every module's binding of a closed form made to raise, a cold
``extract_charges``, a ``double_contraction`` and the delta-pair oracle
alone still return what they return without it.  The cold oracle-call
counts of the basis tables are pinned as well."""

import importlib
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from jetvir import deltacalc, multiindex, wickcocycle
from jetvir.charges import GlRepTraces, GRepTraces, Statistics
from jetvir.deltacalc import DerivSpec, SmearMode
from jetvir.exactpoly import Poly, parse_poly
from jetvir.multiindex import enumerate_indices

MODULES = [importlib.import_module(f"jetvir.{path.stem}") for path in
           sorted((Path(__file__).parents[1] / "src" / "jetvir").glob("*.py"))]
CLOSED_FORMS = ("_closed_value", "sum_closed", "closed_form", "delta_pair_closed")


def _measure():
    xi = [parse_poly("x0 + x1^2", 2), parse_poly("1/2 * x0 * x1", 2)]
    la = wickcocycle.build_vector_field(xi, 2, 2)
    t = wickcocycle.build_reparam(Fraction(1, 3), 2, 2)
    # The oracle alone, at decorations the engine never passes: every
    # decoration pair and smear-mode pair on two dense fields.
    f, g = (Poly(2, {e: Fraction(sum(e) + k, e[0] + 2) for e in enumerate_indices(2, 4)})
            for k in (1, -3))
    derivs = [DerivSpec.none(), *(spec(mu) for spec in (DerivSpec.on_x, DerivSpec.on_y)
                                  for mu in range(2))]
    return (wickcocycle.extract_charges(2, 3, Fraction(1, 2), GlRepTraces(2, 1, 0, 3),
                                        GRepTraces(1, 1, 0, 0, Statistics.FERMI)),
            wickcocycle.double_contraction(t, la, GlRepTraces(2, 1, 0, 3),
                                           GRepTraces(2, 1, 1, 1)),
            [deltacalc.delta_pair_integral(f, g, d1, d2, modes, 2, 2)
             for d1, d2 in itertools.product(derivs, repeat=2)
             for modes in itertools.product(SmearMode, repeat=2)])


def test_a_cold_engine_consults_no_closed_form(monkeypatch):
    expected = _measure()

    def refuse(*args, **kwargs):
        raise AssertionError("the engine consulted a closed form")

    patched = set()
    for module in MODULES:
        for name in CLOSED_FORMS:
            if name in vars(module):
                monkeypatch.setattr(module, name, refuse)
                patched.add(name)
    assert patched == set(CLOSED_FORMS)
    caches = [value for module in (multiindex, deltacalc, wickcocycle)
              for value in vars(module).values() if hasattr(value, "cache_clear")]
    assert {deltacalc._codes, multiindex._compositions, wickcocycle._basis_channels} <= set(caches)
    for cache in caches:
        cache.cache_clear()
    assert _measure() == expected


@pytest.mark.parametrize("d,p,calls", [(2, 3, 33), (1, 0, 25)])
def test_cold_basis_tables_make_a_fixed_number_of_oracle_calls(monkeypatch, d, p, calls):
    """One call per term pair: T(0) and T(1) have one term each, so the
    T-T channel contracts 4 term pairs.  Each channel contracts its base
    point's term pairs at p = 0 once more: 4 for each L-L channel, 2 for
    T-L and 1 for T-T, 11 at d = 2 and 7 at d = 1."""
    count = []
    oracle = wickcocycle.delta_pair_integral

    def counting(*args):
        count.append(args)
        return oracle(*args)
    monkeypatch.setattr(wickcocycle, "delta_pair_integral", counting)
    wickcocycle._basis_channels.cache_clear()
    wickcocycle._basis_channels(d, p)
    assert len(count) == calls
