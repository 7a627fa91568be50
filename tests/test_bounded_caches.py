"""Every cache in jetvir is bounded: no source in the package uses
``functools.cache`` (as an attribute or as a ``from functools import``) or
an ``lru_cache`` with ``maxsize=None``, so a long run cannot grow a memo
without limit."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "jetvir").glob("*.py"))


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _unbounded_caches(tree):
    """(line, what) of each unbounded cache in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno, "functools.cache"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from ((node.lineno, "from functools import cache")
                        for a in node.names if a.name == "cache")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            if (node.args and _is_none(node.args[0])) or any(
                    k.arg == "maxsize" and _is_none(k.value) for k in node.keywords):
                yield node.lineno, "lru_cache(maxsize=None)"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_cache_is_bounded(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = list(_unbounded_caches(tree))
    assert not found, f"{path.name} has an unbounded cache at {found}"


@pytest.mark.parametrize("source", [
    "import functools\n@functools.cache\ndef f(x): return x\n",
    "from functools import cache\n",
    "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): return x\n",
    "from functools import lru_cache\n@lru_cache(None)\ndef f(x): return x\n",
])
def test_the_guard_sees_each_unbounded_form(source):
    assert list(_unbounded_caches(ast.parse(source)))


def test_the_guard_passes_bounded_caches():
    source = ("import functools\n@functools.lru_cache(maxsize=64)\ndef f(x): return x\n"
              "@functools.lru_cache\ndef g(x): return x\n")
    assert not list(_unbounded_caches(ast.parse(source)))
