import pytest

from jetvir.jetsums import SumKind, sum_brute, sum_closed
from jetvir.verify import suite_sums


def test_closed_examples():
    assert sum_closed(SumKind.A, 1, 3) == 4
    assert sum_closed(SumKind.B, 1, 3, 0) == 6
    assert sum_closed(SumKind.C, 1, 2, 0) == 5


def test_brute_examples():
    assert sum_brute(SumKind.B, 2, 2, 0) == 4
    assert sum_brute(SumKind.D, 2, 2, 0, 1) == 1
    assert sum_brute(SumKind.E, 2, 2, 0, 1) == 5


def test_equal_directions_rejected():
    with pytest.raises(ValueError):
        sum_closed(SumKind.D, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        sum_brute(SumKind.E, 2, 2, 1, 1)


def test_missing_direction_rejected():
    with pytest.raises(ValueError):
        sum_closed(SumKind.B, 2, 2)


def test_bool_grid_arguments_rejected():
    for d, p in ((True, 2), (2, True), (1, False)):
        with pytest.raises(ValueError):
            sum_closed(SumKind.A, d, p)
        with pytest.raises(ValueError):
            sum_brute(SumKind.A, d, p)


def test_p_zero_lattice():
    assert sum_closed(SumKind.A, 1, 0) == 1
    assert sum_brute(SumKind.B, 3, 0, 0) == 0
    assert sum_brute(SumKind.C, 3, 0, 1) == 0
    assert sum_brute(SumKind.D, 3, 0, 0, 1) == 0
    assert sum_brute(SumKind.E, 3, 0, 0, 1) == 0


def test_verify_identities_small():
    report = suite_sums(3, 5)
    assert report.ok
    assert report.checks > 0


def test_verify_identities_fault_injection():
    report = suite_sums(2, 2, fault=True)
    assert not report.ok
    assert any("A mismatch" in f for f in report.failures)
