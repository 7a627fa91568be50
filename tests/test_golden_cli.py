"""The exact stdout and exit code of a fixed set of CLI commands.

The expected bytes are in ``golden_cli.json``.  A pure refactor must leave
them unchanged.  After a deliberate change of output, record them again with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from jetvir.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

README_MEASURE = ["charges", "--d", "2", "--p", "1", "--lambda", "1/2", "--kappa", "1",
                  "--delta-rho", "1", "--delta-m", "2", "--y-m", "2", "--z-m", "1",
                  "--w-m", "3", "--statistics", "bose", "--measure"]
# at d = 1 only c1 + c2 is measurable: the table prints "n/a", json null
D1_MEASURE = ["charges", "--d", "1", "--p", "2", "--lambda", "1/2", "--kappa", "1",
              "--y-m", "1", "--z-m", "1", "--w-m", "2", "--statistics", "fermi",
              "--measure"]
FORMATS = ("text", "json", "csv")

COMMANDS = (
    README_MEASURE,
    README_MEASURE + ["--format", "json"],
    ["charges", "--d", "1", "--p", "0", "--y-m", "1", "--format", "json"],
    *(D1_MEASURE + ["--format", fmt] for fmt in FORMATS),
    *(["sums", "--d", "2", "--p", "2", "--format", fmt] for fmt in FORMATS),
    ["verify", "--d-max", "1", "--p-max", "1"],
    ["verify", "--d-max", "1", "--p-max", "0", "--self-test-fault"],
    ["cocycle", "--kind", "virasoro", "--d", "1", "--xi", "x^2", "--eta", "x",
     "--traj", "z^-1", "--c1", "1", "--c2", "1"],
    ["cocycle", "--kind", "reparam-reparam", "--f", "z^3", "--g", "z^-1", "--c4", "12"],
    ["cocycle", "--kind", "virasoro", "--d", "2", "--xi", "x0^2,x1", "--eta", "x0*x1,x0^2",
     "--traj", "z^-1+z,z^-1", "--c1", "3/2", "--c2=-1/3"],
    ["cocycle", "--kind", "affine", "--d", "2", "--x", "x0^2,x1", "--y", "x1,x0*x1",
     "--traj", "z+z^2,z^-1", "--c5", "2", "--c8", "1/5"],
    ["cocycle", "--kind", "mixed", "--d", "2", "--xi", "x0^2*x1,x1^2", "--x", "x0",
     "--traj", "z^-1+z,z^-1", "--c7", "3"],
    ["cocycle", "--kind", "reparam-vector", "--d", "2", "--f", "z^2", "--xi", "x0^2,x0*x1",
     "--traj", "z^-1,z", "--c3", "2"],
    ["cocycle", "--kind", "reparam-current", "--d", "2", "--f", "z^2", "--x", "x0*x1+x0",
     "--traj", "z^-1,z", "--c6", "2"],
)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_pinned(argv):
    golden = json.loads(GOLDEN.read_text())
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): _run(argv) for argv in COMMANDS},
                                 indent=1) + "\n")
