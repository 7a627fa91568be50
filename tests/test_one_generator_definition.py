"""Each generator has one definition: in ``wickcocycle``, ``Term`` and
``NormalBilinear`` are called only inside ``build_current``,
``build_vector_field`` and ``build_reparam``, so the charge engine
contracts the same generators that a caller builds, never a copy of one
written out by hand."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "jetvir" / "wickcocycle.py"
BUILDERS = {"build_current", "build_vector_field", "build_reparam"}
CONSTRUCTORS = {"Term", "NormalBilinear"}


def _constructor_calls(tree):
    """(enclosing top-level definition, constructor, line) of every call of
    a constructor; a call at module level is enclosed by "<module>"."""
    out = []
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id in CONSTRUCTORS):
                out.append((owner, call.func.id, call.lineno))
    return out


def test_every_builder_calls_the_constructors():
    calls = _constructor_calls(ast.parse(SOURCE.read_text()))
    assert {owner for owner, _, _ in calls} >= BUILDERS
    assert {name for _, name, _ in calls} == CONSTRUCTORS


def test_constructors_are_called_only_in_the_builders():
    stray = [(owner, name, line) for owner, name, line
             in _constructor_calls(ast.parse(SOURCE.read_text())) if owner not in BUILDERS]
    assert not stray, f"generators built outside the builders: {stray}"


def test_a_hand_built_generator_is_found():
    source = ("def helper(d, p):\n"
              "    return NormalBilinear(d, p, (Term(1, one, (None, None)),))\n")
    assert _constructor_calls(ast.parse(source)) == [
        ("helper", "NormalBilinear", 2), ("helper", "Term", 2)]
