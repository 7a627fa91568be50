import math

import pytest

from jetvir.multiindex import (
    _compositions,
    add,
    binomial,
    check_grid,
    enumerate_indices,
    factorial,
    sub,
    unit,
)


def test_add():
    assert add((1, 0), (0, 2)) == (1, 2)
    assert add((0, 0), (3, 1)) == (3, 1)
    assert add((2, 1), (1, 1)) == (3, 2)
    assert sum(add((2, 1), (1, 1))) == sum((2, 1)) + sum((1, 1))


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        add((1, 0), (1, 0, 0))


def test_sub():
    assert sub((3, 2), (1, 2)) == (2, 0)
    with pytest.raises(ValueError):
        sub((1, 0), (0, 2))


def test_factorial():
    assert factorial((0, 0)) == 1
    assert factorial((3, 2)) == 12
    assert factorial((1, 1, 1)) == 1


def test_binomial():
    assert binomial((2, 1), (1, 1)) == 2
    assert binomial((4, 3), (4, 3)) == 1
    assert binomial((1, 0), (0, 2)) == 0  # zero-extension
    assert binomial((5,), (2,)) == 10


def test_enumerate_order_and_size():
    assert enumerate_indices(2, 2) == (
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
    )
    for d in range(1, 5):
        for p in range(0, 6):
            seq = enumerate_indices(d, p)
            assert len(seq) == math.comb(d + p, d)
            assert len(set(seq)) == len(seq)
            grades = [sum(m) for m in seq]
            assert grades == sorted(grades)


def test_enumerate_bad_inputs():
    for d, p, what in ((0, 2, "dimension"), (-1, 2, "dimension"), (True, 1, "dimension"),
                       (1.0, 1, "dimension"), (2, -1, "jet order"), (1, True, "jet order"),
                       (2, 1.0, "jet order")):
        for check in (check_grid, enumerate_indices):
            with pytest.raises(ValueError, match=f"{what} must be"):
                check(d, p)


def test_unit():
    assert unit(3, 1) == (0, 1, 0)
    for mu in (2, -1, True, False, 1.0, None):
        with pytest.raises(ValueError, match="direction"):
            unit(2, mu)


def test_lattice_cache_keeps_the_grid_check():
    # True == 1 and False == 0 hash like the ints, so the lattice cache
    # must sit behind check_grid.
    assert enumerate_indices(1, 2) == ((0,), (1,), (2,))
    assert enumerate_indices(1, 0) == ((0,),)
    for d, p in ((True, 2), (1, False), (0, 1)):
        with pytest.raises(ValueError, match="must be"):
            enumerate_indices(d, p)
    for d, p in ((1, 2), (1, 0), (3, 4)):
        cached = enumerate_indices(d, p)
        assert type(cached) is tuple and cached is enumerate_indices(d, p)
        assert cached == tuple(m for t in range(p + 1) for m in _compositions(t, d))
