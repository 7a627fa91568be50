"""The exact pole expansions of the double-contraction engine.

The charge tests compare the engine with the closed forms at the basis
fields only, so a wrong sign or kernel order in a term those fields never
reach would go unseen.  This test pins ``double_contraction(a, b)``
for every ordered pair of current, vector-field and reparametrization
generators, at the ``extract_charges`` basis fields and at seeded random
fields, in ``golden_contractions.json``.  The random vector fields have a
nonconstant part in every direction and a nonzero d_nu xi^mu for every
(nu, mu), so every transport and frame term is contracted.  A pure refactor
must leave them unchanged.  After a deliberate change, record them again with

    PYTHONPATH=src python tests/test_golden_contractions.py
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jetvir.charges import GlRepTraces, GRepTraces, Statistics, fraction_json
from jetvir.exactpoly import Poly
from jetvir.multiindex import enumerate_indices
from jetvir.wickcocycle import (
    build_current,
    build_reparam,
    build_vector_field,
    double_contraction,
)

GOLDEN = Path(__file__).with_name("golden_contractions.json")

GRID = [(d, p, stats) for d in (1, 2, 3) for p in (0, 1, 2) for stats in Statistics]
LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
# every trace parameter nonzero, so no trace channel drops out
GLREP = GlRepTraces(2, Fraction(1, 3), Fraction(-2), Fraction(5, 2))


def _grep(stats):
    return GRepTraces(3, Fraction(2, 5), Fraction(-1), Fraction(3, 7), stats)


def _random_poly(rng, d):
    """A degree-2 polynomial whose every coefficient is a small nonzero rational."""
    return Poly(d, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                    for m in enumerate_indices(d, 2)})


def _generators(d, p):
    rng = random.Random(10 * d + p)
    zero, one = Poly.zero(d), Poly.constant(d, 1)
    x0 = Poly.variable(d, 0)

    def vec(mu, comp):
        return [comp if i == mu else zero for i in range(d)]

    gens = {
        "J generic": build_current([zero, one], d, p),
        "J priv": build_current([one, zero], d, p),
        "J random": build_current([_random_poly(rng, d) for _ in range(3)], d, p),
        "L diag": build_vector_field(vec(0, x0), d, p),
        "L random": build_vector_field([_random_poly(rng, d) for _ in range(d)], d, p),
    }
    if d >= 2:
        x1 = Poly.variable(d, 1)
        gens["L x1 d0"] = build_vector_field(vec(0, x1), d, p)
        gens["L x0 d1"] = build_vector_field(vec(1, x0), d, p)
    for lam in LAMBDAS:
        gens[f"T lambda={lam}"] = build_reparam(lam, d, p)
    return gens


def _record(d, p, stats):
    gens = _generators(d, p)
    # one transport term per direction and one frame term per (nu, mu)
    assert len(gens["L random"].terms) == d + d * d
    grep = _grep(stats)
    out = {}
    for (na, a), (nb, b) in itertools.product(gens.items(), repeat=2):
        pe = double_contraction(a, b, GLREP, grep)
        out[f"{na} x {nb}"] = {str(k): fraction_json(v)
                               for k, v in sorted(pe.items())}
    return out


def _key(d, p, stats):
    return f"d={d} p={p} {stats.value}"


@pytest.mark.parametrize("d,p,stats", GRID, ids=[_key(*g) for g in GRID])
def test_pole_expansions_are_pinned(d, p, stats):
    golden = json.loads(GOLDEN.read_text())
    assert _record(d, p, stats) == golden[_key(d, p, stats)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({_key(*g): _record(*g) for g in GRID}, indent=1) + "\n")
