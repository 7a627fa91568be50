"""The packed products of the package are made in one kernel,
``exactpoly.prim_products``, and only the jet brackets call it.

Two checks over the syntax trees of ``src/jetvir``:

* the packed layout is read only inside the kernel: ``_unpack``, the slot
  table ``_SlotExponents`` (and the ``_slot_exponent`` helper it replaced),
  and the packing shift, a ``<<`` that moves a coefficient (anything but a
  constant) into its slot;
* the kernel's only library callers are ``jetreps._bracket`` and
  ``jetreps.vector_field_bracket``.

A second kernel beside this one, such as the batch API it replaced, fails
the first check.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "jetvir"
KERNEL = ("exactpoly", "prim_products")
LAYOUT = {"_unpack", "_SlotExponents", "_slot_exponent"}
CALLERS = {("jetreps", "_bracket"), ("jetreps", "vector_field_bracket")}


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _owned_nodes(module, source):
    """(module, name of the top-level def or class around it or None, node)
    for every node of ``source``."""
    for stmt in ast.parse(source).body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            yield module, owner, node


def _reads(node, names):
    """The name in ``names`` that ``node`` reads, or None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id if node.id in names else None
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr if node.attr in names else None
    return None


def layout_outside_kernel(sources):
    """(module, owner, what) for each read of the packed layout outside the
    kernel."""
    out = []
    for module, source in sources.items():
        for mod, owner, node in _owned_nodes(module, source):
            what = _reads(node, LAYOUT)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
                    and not isinstance(node.left, ast.Constant)):
                what = "packing shift"
            if what and (mod, owner) != KERNEL:
                out.append((mod, owner, what))
    return out


def kernel_callers(sources):
    """(module, owner) of each reference to the kernel in ``sources``."""
    return {(mod, owner) for module, source in sources.items()
            for mod, owner, node in _owned_nodes(module, source)
            if _reads(node, {KERNEL[1]})}


def test_the_packed_layout_is_read_only_inside_the_kernel():
    assert layout_outside_kernel(_sources()) == []


def test_only_the_jet_brackets_call_the_kernel():
    assert kernel_callers(_sources()) == CALLERS


# The batch kernel that ``prim_products`` replaced, cut down to the lines
# that touch the packed layout.
_OLD_KERNEL = '''
def sums_of_products(dim, entries):
    for o in live:
        o[2] = (sum(n << width * sum(map(mul, map(sub, e, lo), strides))
                    for e, n in o[0]._num.items())
                if packed else _wrap(dim, o[0]._num, 1))
    for (den, terms), done in zip(batch, expiring):
        for k, c in _unpack(total, width):
            e = exponents.get(k)
            if e is None:
                e = exponents[k] = _slot_exponent(k, strides, base)
            num[e] = c
    return out
'''


def test_the_checks_flag_a_second_kernel_and_a_second_caller():
    sources = _sources()
    sources["exactpoly"] += _OLD_KERNEL
    assert {what for _, _, what in layout_outside_kernel(sources)} == {
        "_unpack", "_slot_exponent", "packing shift"}
    assert {owner for _, owner, _ in layout_outside_kernel(sources)} == {"sums_of_products"}
    sources = _sources()
    sources["cocycles"] += "\n\ndef _pairs(q):\n    return exactpoly.prim_products(1, [], 1, 1, [])\n"
    assert kernel_callers(sources) == CALLERS | {("cocycles", "_pairs")}
