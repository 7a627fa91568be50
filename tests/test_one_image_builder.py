"""One builder of a composed monomial: ``exactpoly._image`` turns x^e into
the product of the powers q_i^(e_i), and both ``Poly.compose_univariate``
and the loop tables of the trajectory cocycles go through it, so the tables
build every image as ``compose`` does and raise where it raises."""

import ast
from pathlib import Path

from jetvir import cocycles, exactpoly
from jetvir.cocycles import Trajectory, virasoro_cocycle
from jetvir.exactpoly import Poly, parse_poly

SOURCE = Path(__file__).parents[1] / "src" / "jetvir"


def test_compose_and_a_cold_cocycle_build_images_and_a_warm_call_does_not(monkeypatch):
    calls = []
    image = exactpoly._image

    def counting(subs, e, powers):
        calls.append(e)
        return image(subs, e, powers)

    monkeypatch.setattr(exactpoly, "_image", counting)
    q = Trajectory((parse_poly("z^-1 + 2 z", 1, "z"), parse_poly("3 z^2", 1, "z")))
    f = Poly(2, {(2, 1): 1, (0, -1): 1, (0, 0): -4})
    f.compose_univariate(list(q.components))
    assert sorted(calls) == sorted(f.numerators)

    xi = [parse_poly("x0^2 x1 + x1", 2), parse_poly("x0 x1^2", 2)]
    eta = [parse_poly("x1^3 - x0", 2), parse_poly("2 x0^2", 2)]
    cocycles._loop_table.cache_clear()
    del calls[:]
    value = virasoro_cocycle(xi, eta, q, 3, -1)
    assert calls
    del calls[:]
    assert virasoro_cocycle(xi, eta, q, 3, -1) == value
    assert calls == []


def test_only_the_builder_takes_a_monomial_inverse():
    callers = []
    for path in sorted(SOURCE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Name) and node.id == "_monomial_inverse_power":
                        callers.append((path.name, fn.name))
    assert callers == [("exactpoly.py", "_image")]
