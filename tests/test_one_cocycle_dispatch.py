"""The CLI dispatches the six extension terms from one table: in ``cli.py``
each ``--kind`` string and each ``*_cocycle`` function is named exactly
once, as a key and a value of that table, and no code compares a kind, so
adding a term means adding one row rather than one more branch."""

import ast
from collections import Counter
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "jetvir" / "cli.py"
KINDS = ("virasoro", "affine", "mixed", "reparam-reparam", "reparam-vector",
         "reparam-current")
COCYCLES = ("virasoro_cocycle", "affine_cocycle", "mixed_cocycle",
            "reparam_reparam_cocycle", "reparam_vector_cocycle", "reparam_current_cocycle")


def _mentions(tree):
    """How often each kind string occurs as a constant and each cocycle name
    is read as a name; the import of a name is not a read."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value in KINDS:
            out[node.value] += 1
        elif isinstance(node, ast.Name) and node.id in COCYCLES:
            out[node.id] += 1
    return out


def _kind_comparisons(tree):
    """The lines of every comparison with a ``.kind`` attribute."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in (node.left, *node.comparators))]


def _violations(tree):
    mentions = _mentions(tree)
    return ({name: mentions[name] for name in KINDS + COCYCLES if mentions[name] != 1},
            _kind_comparisons(tree))


def test_each_kind_and_cocycle_is_named_once_and_no_kind_is_compared():
    assert _violations(ast.parse(SOURCE.read_text())) == ({}, [])


def test_a_branch_per_kind_is_found():
    rows = ", ".join(f'"{kind}": ({kind.replace("-", "_")}_cocycle,)' for kind in KINDS)
    source = (f"COCYCLES = {{{rows}}}\n"
              "def cmd_cocycle(args):\n"
              '    if args.kind == "virasoro":\n'
              "        return virasoro_cocycle(args.xi, args.eta)\n"
              '    elif args.kind == "affine":\n'
              "        return affine_cocycle(args.x, args.y)\n")
    assert _violations(ast.parse(source)) == (
        {"virasoro": 2, "affine": 2, "virasoro_cocycle": 2, "affine_cocycle": 2}, [3, 5])
