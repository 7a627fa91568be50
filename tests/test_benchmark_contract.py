"""The benchmark in ``perfbench/`` looks jetvir up by name and counts its
comparisons, so a renamed or removed library name breaks it while every
other test stays green.  This test runs one pass of each workload, untraced
and traced, exactly as the benchmark does, without editing ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class _FirstWhere(workloads.Checks):
    """Checks that also remember where the first comparison was made."""

    first_where = None

    def __call__(self, actual, expected, where):
        if self.first_where is None:
            self.first_where = where
        super().__call__(actual, expected, where)


def _run_pass(name, traced, fault):
    make, run_pass = workloads.WORKLOADS[name]
    inputs = make(workloads.pass_rng(name, 7, 0))
    checks = _FirstWhere(fault=fault)
    if traced:
        tr = tracer.Tracer()
        with tr.installed():
            run_pass(inputs, checks)
        assert tr.metrics()["trace.spans"] > 0
    else:
        run_pass(inputs, checks)
    return checks


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_pass_makes_its_fixed_checks_and_fails_only_the_faulted_one(name, traced):
    expected = run.CHECKS_PER_PASS[name]
    checks = _run_pass(name, traced, fault=False)
    assert (checks.attempted, checks.failed) == (expected, 0)
    checks = _run_pass(name, traced, fault=True)
    assert (checks.attempted, checks.failed) == (expected, 1)
    assert checks.first_failure == checks.first_where
