import pytest

from jetvir import jetsums
from jetvir.jetsums import SumKind, sum_brute, sum_closed
from jetvir.multiindex import enumerate_indices
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
    report = suite_sums(0, 3, 5, False)
    assert report.ok
    assert report.checks > 0


def test_verify_identities_fault_injection():
    report = suite_sums(0, 2, 2, True)
    assert not report.ok
    assert any("A mismatch" in f for f in report.failures)


def _reference_sum_brute(kind, d, p, mu=None, nu=None):
    """The per-point loop that tests the kind at every lattice point."""
    total = 0
    for m in enumerate_indices(d, p):
        if kind is SumKind.A:
            total += 1
        elif kind is SumKind.B:
            total += m[mu]
        elif kind is SumKind.C:
            total += m[mu] * m[mu]
        elif kind is SumKind.D:
            total += m[mu] * m[nu]
        elif kind is SumKind.E:
            total += m[mu] * (m[nu] + 1)
    return total


def _directions(kind, d):
    if kind is SumKind.A:
        return [()]
    if kind in (SumKind.B, SumKind.C):
        return [(mu,) for mu in range(d)]
    return [(mu, nu) for mu in range(d) for nu in range(d) if mu != nu]


def test_brute_equals_the_per_point_loop():
    for d in range(1, 7):
        for p in range(9):
            for kind in SumKind:
                for dirs in _directions(kind, d):
                    assert sum_brute(kind, d, p, *dirs) == _reference_sum_brute(kind, d, p, *dirs)


def test_brute_never_consults_the_closed_form(monkeypatch):
    def closed(*args):
        raise AssertionError("sum_brute read a closed form")
    monkeypatch.setattr(jetsums, "sum_closed", closed)
    monkeypatch.setattr(jetsums, "_closed_value", closed)
    jetsums._moments.cache_clear()
    assert sum_brute(SumKind.E, 3, 4, 2, 0) == 56
    for kind in SumKind:
        for dirs in _directions(kind, 3):
            assert sum_brute(kind, 3, 4, *dirs) == _reference_sum_brute(kind, 3, 4, *dirs)


@pytest.mark.parametrize("bad", [1.0, True, False, "0", None, -1, 2])
def test_directions_must_be_ints_in_range(bad):
    # sum_closed(SumKind.B, 2, 2, 1.0) used to return 4 and sum_brute to
    # raise a bare TypeError; both took mu=True as direction 1.
    for f in (sum_closed, sum_brute):
        for kind in (SumKind.B, SumKind.C):
            with pytest.raises(ValueError, match="direction mu"):
                f(kind, 2, 2, bad)
        for kind in (SumKind.D, SumKind.E):
            with pytest.raises(ValueError, match="direction mu"):
                f(kind, 2, 2, bad, 1)
            with pytest.raises(ValueError, match="direction nu"):
                f(kind, 2, 2, 0, bad)


def test_unknown_kind_rejected():
    for f in (sum_closed, sum_brute):
        with pytest.raises(ValueError, match="unknown kind"):
            f("A", 2, 2)


def test_deep_moment_table_builds_without_recursion():
    """The (1, 5000) table is built cold, one layer at a time, far past the
    recursion limit a table read off its (d, p - 1) table by recursion would
    hit."""
    jetsums._moments.cache_clear()
    jetsums._layer_moments.cache_clear()
    assert sum_brute(SumKind.A, 1, 5000) == sum_closed(SumKind.A, 1, 5000) == 5001
    for kind in (SumKind.B, SumKind.C):
        assert sum_brute(kind, 1, 5000, 0) == sum_closed(kind, 1, 5000, 0)


def test_bool_arguments_raise_after_the_tables_are_cached():
    # True == 1 hashes like 1, so the moment tables keyed by (d, p) must not
    # be read before the arguments are checked.
    assert sum_brute(SumKind.A, 1, 2) == 3
    assert sum_brute(SumKind.E, 3, 4, 1, 2) == 56
    for args in ((SumKind.A, True, 2), (SumKind.A, 1, True), (SumKind.B, 3, 4, True),
                 (SumKind.C, 3, 4, False), (SumKind.D, 3, 4, True, 2),
                 (SumKind.E, 3, 4, 1, True)):
        with pytest.raises(ValueError):
            sum_brute(*args)
