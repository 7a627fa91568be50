"""Importing jetvir stays cheap: no module of the package imports
``json``, ``typing`` or ``dataclasses`` at module level, and a fresh
interpreter that imports ``jetvir`` and every module of ``jetvir.__all__``
has loaded neither ``json`` nor ``typing``.  Two imports are allowed:
``json`` in ``cli``, which serializes, and ``dataclasses`` in ``jetreps``
for ``JetOperator``, the one dataclass, until ROADMAP item 10 re-points the
benchmark's ``dataclasses.replace`` and the class becomes a record."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import jetvir

SRC = Path(__file__).parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "jetvir").glob("*.py"))
SLOW = {"json", "typing", "dataclasses"}
ALLOWED = {("cli", "json"), ("jetreps", "dataclasses")}  # JetOperator, ROADMAP item 10


def _module_level(body):
    """The statements run at import: the module body and, within it, the
    bodies of ``if``, ``try`` and ``with`` blocks and of classes, but no
    function body."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.ClassDef, ast.ExceptHandler)):
            for block in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_level(getattr(node, block, []))


def _slow_imports(module, source):
    """(line, name) of each module-level import of a slow module that
    ``module`` may not make."""
    for node in _module_level(ast.parse(source).body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top in SLOW and (module, top) not in ALLOWED:
                yield node.lineno, top


def test_every_module_is_checked():
    assert {"__init__", "cli", "verify", *jetvir.__all__} <= set(MODULES)


def _dataclasses(source):
    """The names of the classes that ``source`` decorates with ``dataclass``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                    yield node.name


def test_jet_operator_is_the_one_dataclass():
    found = [(m, name) for m in MODULES
             for name in _dataclasses((SRC / "jetvir" / f"{m}.py").read_text())]
    assert found == [("jetreps", "JetOperator")]
    sample = ("import dataclasses\n@dataclasses.dataclass(frozen=True)\nclass A:\n    x: int\n"
              "@dataclass\nclass B:\n    y: int\n")
    assert list(_dataclasses(sample)) == ["A", "B"]


@pytest.mark.parametrize("module", MODULES)
def test_no_slow_import_at_module_level(module):
    source = (SRC / "jetvir" / f"{module}.py").read_text()
    found = list(_slow_imports(module, source))
    assert not found, f"{module}.py imports {found} at module level"


@pytest.mark.parametrize("source", [
    "import json\n",
    "import json.decoder\n",
    "from typing import List\n",
    "import os, dataclasses\n",
    "from dataclasses import dataclass, field\n",
    "try:\n    import json\nexcept ImportError:\n    pass\n",
    "if True:\n    from typing import Iterator\n",
    "class C:\n    from typing import List\n",
])
def test_the_guard_sees_each_module_level_form(source):
    assert list(_slow_imports("charges", source))


def test_the_guard_allows_only_what_it_names():
    assert not list(_slow_imports("jetreps", "from dataclasses import dataclass\n"))
    assert list(_slow_imports("jetreps", "import json\n"))
    assert list(_slow_imports("wickcocycle", "from dataclasses import dataclass\n"))


def test_the_guard_passes_function_level_and_relative_imports():
    source = ("import re\nfrom collections.abc import Sequence\nfrom .charges import json\n"
              "def f():\n    import json\n    return json\n")
    assert not list(_slow_imports("charges", source))


def _loaded_after_import(modules):
    """The slow modules a fresh ``python -S`` (no ``site``, so no ``.pth``
    file imports anything first) has loaded after importing ``modules``."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import importlib\n"
             f"for m in {modules!r}: importlib.import_module(m)\n"
             "print(' '.join(sorted(m for m in ('json', 'typing') if m in sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_importing_the_library_loads_neither_json_nor_typing():
    assert _loaded_after_import(["jetvir"] + [f"jetvir.{m}" for m in jetvir.__all__]) == []


def test_the_probe_sees_a_module_that_loads_json():
    assert "json" in _loaded_after_import(["jetvir.cli"])
    assert "typing" in _loaded_after_import(["typing"])
