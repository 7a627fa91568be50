import json
from fractions import Fraction

import pytest

from jetvir.charges import (
    ChargeSet,
    GlRepTraces,
    GRepTraces,
    Statistics,
    closed_form,
    from_sl_gl1,
    kac_moody_level,
)
from jetvir.exactpoly import Poly
from jetvir.jetreps import MatrixRep
from jetvir.wickcocycle import build_reparam, extract_charges

GL1 = from_sl_gl1(0, 0, 1, 1)
GR1 = GRepTraces(1, 1, 0, 0)


def _charge_set_from_json(text: str) -> ChargeSet:
    """The inverse of ``json.dumps(ChargeSet.to_json())``."""
    data = json.loads(text)
    ins = data["inputs"]

    def frac(s: str) -> Fraction:
        num, den = s.split("/")
        return Fraction(int(num), int(den))

    glrep = GlRepTraces(ins["delta_rho"], frac(ins["k0"]),
                        frac(ins["k1"]), frac(ins["k2"]))
    grep = GRepTraces(ins["delta_m"], frac(ins["y_m"]), frac(ins["z_m"]),
                      frac(ins["w_m"]), Statistics(ins["statistics"]))
    ch = {k: frac(v) for k, v in data["charges"].items()}
    return ChargeSet(ins["d"], ins["p"], frac(ins["lambda"]), glrep, grep, **ch)


def test_closed_form_scalar_point():
    gl = from_sl_gl1(0, 0, 1, 1)
    gr = GRepTraces(1, 1, 0, 0, Statistics.BOSE)
    cs = closed_form(1, 0, 0, gl, gr)
    assert (cs.c1, cs.c2, cs.c3, cs.c4) == (1, 0, 1, 4)
    assert (cs.c5, cs.c6, cs.c7, cs.c8) == (-1, 0, 0, 0)


def test_closed_form_fermionic_flip():
    gl = from_sl_gl1(0, 0, 1, 1)
    gr = GRepTraces(1, 1, 0, 0, Statistics.FERMI)
    cs = closed_form(1, 0, 0, gl, gr)
    assert (cs.c1, cs.c2, cs.c3, cs.c4, cs.c5) == (1, 0, 1, 0, 1)


def test_lambda_half_kills_weighted_charges():
    gl = from_sl_gl1(2, 1, 3, 2)
    gr = GRepTraces(2, 1, 5, 1)
    cs = closed_form(2, 2, Fraction(1, 2), gl, gr)
    assert cs.c3 == 1
    assert cs.c6 == 0


def test_from_sl_gl1():
    gl = from_sl_gl1(0, 0, 1, 3)
    assert (gl.k0, gl.k1, gl.k2) == (0, 0, 0)
    gl = from_sl_gl1(1, 0, 1, 4)
    assert (gl.k0, gl.k1, gl.k2) == (1, 0, 1)
    gl = from_sl_gl1(Fraction(1, 2), 3, 2, 2)
    assert gl.k0 == 1
    assert gl.k1 == 3
    assert gl.k2 == Fraction(1, 2) * Fraction(1, 2) * 2 - Fraction(3, 2)


def test_kac_moody_level():
    assert kac_moody_level(0, 1, Statistics.BOSE) == -1
    assert kac_moody_level(3, 2, Statistics.FERMI) == 8
    assert kac_moody_level(5, 0, Statistics.BOSE) == 0


def test_level_is_d1_charge():
    for p in range(5):
        for stats in Statistics:
            gl = from_sl_gl1(0, 0, 1, 1)
            gr = GRepTraces(1, Fraction(7, 3), 0, 0, stats)
            assert closed_form(1, p, 0, gl, gr).c5 == \
                kac_moody_level(p, Fraction(7, 3), stats)


def test_linearity_in_internal_dimension():
    gl = from_sl_gl1(1, 2, 2, 2)
    vals = {}
    for dm in (1, 2, 4):
        gr = GRepTraces(dm, 1, 1, 1)
        cs = closed_form(2, 1, 0, gl, gr)
        vals[dm] = (cs.c1 - 1, cs.c2)
    assert vals[2] == (2 * vals[1][0], 2 * vals[1][1])
    assert vals[4] == (4 * vals[1][0], 4 * vals[1][1])


def test_integrality_on_integer_inputs():
    for d in (1, 2, 3):
        for p in (0, 1, 2):
            gl = from_sl_gl1(2, 3 * d, 2, d)  # y_rho multiple of d keeps k2 integral
            gr = GRepTraces(2, 3, 1, 5)
            cs = closed_form(d, p, 1, gl, gr)
            for value in cs.charges().values():
                assert value.denominator == 1


def test_json_round_trip():
    gl = from_sl_gl1(Fraction(-1, 2), 1, 2, 2)
    gr = GRepTraces(3, Fraction(2, 7), 1, Fraction(-5, 3), Statistics.FERMI)
    cs = closed_form(2, 3, Fraction(1, 2), gl, gr)
    text = json.dumps(cs.to_json(), indent=2)
    assert _charge_set_from_json(text) == cs
    payload = json.loads(text)
    for value in payload["charges"].values():
        num, den = value.split("/")
        int(num), int(den)  # exact rational strings, never floats


def test_validation():
    with pytest.raises(ValueError):
        GlRepTraces(0, 0, 0, 0)
    with pytest.raises(ValueError):
        GRepTraces(0, 0, 0, 0)
    with pytest.raises(ValueError):
        closed_form(0, 0, 0, from_sl_gl1(0, 0, 1, 1), GRepTraces(1, 0, 0, 0))
    bad_grids = {
        "jet order": (lambda: kac_moody_level(-1, 1, Statistics.BOSE),
                      lambda: kac_moody_level(-3, 1, Statistics.BOSE),
                      lambda: kac_moody_level(True, 1, Statistics.BOSE),
                      lambda: closed_form(1, True, 0, GL1, GR1),
                      lambda: extract_charges(1, True, 0, GL1, GR1)),
        "dimension": (lambda: closed_form(True, 0, 0, GL1, GR1),
                      lambda: extract_charges(0, 0, 0, GL1, GR1)),
    }
    for what, calls in bad_grids.items():
        for call in calls:
            with pytest.raises(ValueError, match=f"{what} must be"):
                call()


# Each of these took 0.1 as 3602879701896397/36028797018963968.
FLOAT_LEAKS = {
    "GlRepTraces k0": lambda: GlRepTraces(1, 0.1, 0, 0),
    "GRepTraces y_m": lambda: GRepTraces(1, 0.1, 0, 0),
    "from_sl_gl1 kappa": lambda: from_sl_gl1(0.1, 0, 1, 2),
    "from_sl_gl1 y_rho": lambda: from_sl_gl1(0, 0.1, 1, 2),
    "kac_moody_level y_m": lambda: kac_moody_level(1, 0.1, Statistics.BOSE),
    "g_abelian values": lambda: MatrixRep.g_abelian(1, [0.1]),
    "gl_scalar_weight kappa": lambda: MatrixRep.gl_scalar_weight(1, 0.1),
    "closed_form lambda": lambda: closed_form(1, 0, 0.1, GL1, GR1),
    "extract_charges lambda": lambda: extract_charges(1, 0, 0.1, GL1, GR1),
    "build_reparam lambda": lambda: build_reparam(0.1, 1, 0),
}


@pytest.mark.parametrize("name", FLOAT_LEAKS)
def test_float_parameters_are_rejected(name):
    with pytest.raises(ValueError, match="exact"):
        FLOAT_LEAKS[name]()


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_rep_dimensions_are_positive_ints(bad):
    with pytest.raises(ValueError, match="integer"):
        GlRepTraces(bad, 0, 0, 0)
    with pytest.raises(ValueError, match="integer"):
        GRepTraces(bad, 1, 0, 0)
    with pytest.raises(ValueError, match="integer"):
        from_sl_gl1(0, 0, bad, 2)


def test_exact_parameters_keep_their_values():
    assert GRepTraces(1, "1/10", 0, 0).y_m == Fraction(1, 10)
    assert from_sl_gl1(Fraction(1, 10), 0, 1, 2).k0 == Fraction(1, 10)
    assert MatrixRep.gl_scalar_weight(1, Fraction(1, 10)).matrix((0, 0)) == ((Fraction(1, 10),),)
    assert Poly.constant(1, 1).scale(Fraction(1, 10)) == Poly.constant(1, Fraction(1, 10))
