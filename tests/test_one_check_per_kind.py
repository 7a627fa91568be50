"""Each kind of argument check lives in one place: an inline int test
``type(...) is not int`` appears only in ``multiindex`` (``check_int`` and
``check_direction``) and ``exactpoly`` (polynomial exponents).  Every other
module calls those helpers, so a bool or a float is rejected the same way
everywhere."""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "jetvir").glob("*.py"))
HOMES = {"multiindex.py", "exactpoly.py"}
INLINE_INT_CHECK = re.compile(r"type\(.*?\)\s+is\s+not\s+int\b")


def test_sources_found():
    assert len(SOURCES) >= 10 and HOMES <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in HOMES],
                         ids=[p.name for p in SOURCES if p.name not in HOMES])
def test_no_inline_int_check_outside_the_homes(path):
    lines = [n for n, text in enumerate(path.read_text().splitlines(), 1)
             if INLINE_INT_CHECK.search(text)]
    assert not lines, (f"{path.name} checks an int inline at line(s) {lines}; "
                       "use multiindex.check_int or check_direction")
