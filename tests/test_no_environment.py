"""jetvir reads no environment variable: results depend only on arguments.
No source in the package names ``os.environ``, ``os.getenv`` or their bytes
forms, as an attribute or as a ``from os import``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "jetvir").glob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree):
    """(line, name) of each environment lookup in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((node.lineno, a.name) for a in node.names if a.name in ENVIRONMENT)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_environment_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = list(_environment_reads(tree))
    assert not reads, f"{path.name} reads the environment at {reads}"
