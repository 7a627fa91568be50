"""The exact matrices of a fixed set of jet operators.

The closure tests compare operators built by the same code, so a transposed
or mis-indexed rep matrix can still close.  This test pins every entry, as
``format_poly`` text, in ``golden_jetreps.json``.  A pure refactor must leave
them unchanged.  After a deliberate change, record them again with

    PYTHONPATH=src python tests/test_golden_jetreps.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from jetvir.exactpoly import format_poly, parse_poly
from jetvir.jetreps import (
    MatrixRep,
    bracket_mixed,
    diff_operator,
    embed_gauge_operator,
    gauge_operator,
)

GOLDEN = Path(__file__).with_name("golden_jetreps.json")


def _poly(text):
    return parse_poly(text, 2)


def _xi():
    return [_poly("x0^2 x1 - 1/2 * x1 + 3"), _poly("2 * x0 x1^2 + x0 - 1/3")]


def _current():
    return [_poly("x0 x1 + 2 * x0 - 1"), _poly("0"), _poly("1/2 * x1^2 - x0 + 5")]


def _gauge():
    return gauge_operator(_current(), MatrixRep.g_rotation_adjoint(), 2, 2)


def _diff_vector():
    return diff_operator(_xi(), MatrixRep.gl_vector(2), 2, 2)


def _diff_scalar():
    return diff_operator(_xi(), MatrixRep.gl_scalar_weight(2, Fraction(1, 2)), 2, 2)


def _mixed():
    current = gauge_operator(_current(), MatrixRep.g_rotation_adjoint(), 2, 1)
    return bracket_mixed(diff_operator(_xi(), MatrixRep.gl_vector(2), 2, 1), current)


def _embedded():
    current = gauge_operator(_current(), MatrixRep.g_rotation_adjoint(), 2, 1)
    return embed_gauge_operator(current, 2)


CASES = {
    "gauge rotation-adjoint d=2 p=2": _gauge,
    "diff gl_vector(2) d=2 p=2": _diff_vector,
    "diff gl_scalar_weight(2, 1/2) d=2 p=2": _diff_scalar,
    "bracket_mixed gl_vector(2) x rotation-adjoint d=2 p=1": _mixed,
    "embed_gauge_operator rotation-adjoint rho=2 d=2 p=1": _embedded,
}


def _record(op):
    out = {"d": op.d, "p": op.p, "rep_size": op.rep_size,
           "matrix": [[format_poly(x) for x in row] for row in op.matrix]}
    if op.vector:
        out["vector"] = [format_poly(v) for v in op.vector]
    return out


@pytest.mark.parametrize("name", CASES)
def test_operator_matrix_is_pinned(name):
    golden = json.loads(GOLDEN.read_text())
    assert _record(CASES[name]()) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _record(build())
                                  for name, build in CASES.items()}, indent=1) + "\n")
