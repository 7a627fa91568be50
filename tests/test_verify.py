"""No suite of ``verify.SUITES`` is blind: at the smallest grid and the
seed-0 random streams, each row passes, and with its fault it fails with a
first witness at the faulted grid point, making the same number of checks."""

import pytest

from jetvir import verify

# suite -> the first witness of its fault at d_max = 1, p_max = 0
FAULT_WITNESS = {
    "suite_sums": "A mismatch at d=1, p=0",
    "suite_delta": "case ii at d=1, p=0, mu=0",
    "suite_closures": "current closure at d=1, p=0, dim-g=3",
    "suite_charges": "c5 at d=1, p=0, lambda=0, bose, kappa=0: -1 != 0",
    "suite_cocycles": "monomial pattern at m=2: -6 != 6",
}


def test_every_row_has_a_fault_witness():
    assert [suite.__name__ for suite, _ in verify.SUITES] == list(FAULT_WITNESS)


@pytest.mark.parametrize("suite", [suite for suite, _ in verify.SUITES],
                         ids=lambda suite: suite.__name__)
def test_each_suite_passes_and_its_fault_fails_it(suite):
    clean = suite(0, 1, 0, False)
    faulted = suite(0, 1, 0, True)
    assert clean.ok, clean.failures[:3]
    assert not faulted.ok
    assert faulted.failures[0] == FAULT_WITNESS[suite.__name__]
    assert faulted.checks == clean.checks > 0
