"""The residue side stands apart from the jet side: within the package,
``cocycles`` imports only ``exactpoly`` and ``multiindex``, so the residue
cocycles and the jet-space operators stay two independent computations."""

import ast
from pathlib import Path

import pytest

COCYCLES = Path(__file__).parents[1] / "src" / "jetvir" / "cocycles.py"
ALLOWED = {"exactpoly", "multiindex"}


def _package_imports(source):
    """The package modules that ``source`` imports, relatively or as
    ``jetvir.<module>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("jetvir.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "jetvir":
                    continue
                module = module[len("jetvir."):]
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_cocycles_imports_only_exactpoly_and_multiindex():
    imports = _package_imports(COCYCLES.read_text())
    assert "exactpoly" in imports
    assert imports <= ALLOWED, f"cocycles imports {sorted(imports - ALLOWED)}"


@pytest.mark.parametrize("line", [
    "from .jetreps import divergence",
    "from . import jetreps",
    "from jetvir.wickcocycle import Term",
    "from jetvir import charges",
    "import jetvir.jetreps",
])
def test_an_import_of_another_module_is_flagged(line):
    source = COCYCLES.read_text().replace("from . import exactpoly\n",
                                          f"from . import exactpoly\n{line}\n", 1)
    assert source != COCYCLES.read_text()
    assert not _package_imports(source) <= ALLOWED
