"""Multi-index arithmetic and enumeration over the jet lattice {m : |m| <= p}.

A multi-index is a plain tuple of d non-negative integers.  It labels both
monomials x^m and partial derivatives d_m.  All operations are pure and use
Python's arbitrary-precision integers.  ``check_int`` and ``check_direction``
are the one check of an integer size and of a direction in the package.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

MultiIndex = tuple[int, ...]


def _check_same_dim(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def sub(a: Sequence[int], b: Sequence[int]) -> MultiIndex:
    """Componentwise difference a - b; defined only when b <= a componentwise."""
    _check_same_dim(a, b)
    if any(y > x for x, y in zip(a, b)):
        raise ValueError(f"subtraction undefined: {tuple(b)} not <= {tuple(a)}")
    return tuple(x - y for x, y in zip(a, b))


def binomial(m: Sequence[int], n: Sequence[int]) -> int:
    """Componentwise product of scalar binomials binom(m_i, n_i).

    Zero-extended: returns 0 whenever any component of n exceeds the
    corresponding component of m (or is negative), so that expressions like
    binom(d+p, d+2) vanish gracefully for small p.
    """
    _check_same_dim(m, n)
    out = 1
    for mi, ni in zip(m, n):
        if ni < 0 or ni > mi:
            return 0
        out *= math.comb(mi, ni)
    return out


def check_int(name: str, value, minimum: int) -> None:
    """Require an int (not a bool or a float) >= minimum."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_direction(mu, d: int, name: str) -> None:
    """Require a direction mu: an int (not a bool or a float) in [0, d)."""
    if type(mu) is not int or not 0 <= mu < d:
        raise ValueError(f"{name}: {mu!r} is not an int in [0, {d})")


def unit(d: int, mu: int, name: str = "direction") -> MultiIndex:
    """The unit multi-index with a 1 in direction mu, checked under ``name``."""
    check_direction(mu, d, name)
    return tuple(1 if i == mu else 0 for i in range(d))


@functools.lru_cache(maxsize=256)
def _compositions(total: int, parts: int) -> tuple[MultiIndex, ...]:
    """All ways to write `total` as an ordered sum of `parts` non-negative
    integers, first component decreasing (reverse-lexicographic order),
    assembled from the cached compositions with one part fewer."""
    if parts == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total, -1, -1)
                 for rest in _compositions(total - first, parts - 1))


def check_grid(d: int, p: int) -> None:
    """Require a dimension d >= 1 and a jet order p >= 0."""
    check_int("dimension", d, 1)
    check_int("jet order", p, 0)


def enumerate_indices(d: int, p: int) -> tuple[MultiIndex, ...]:
    """All multi-indices m with |m| <= p in graded order (by total degree,
    then first component decreasing).  Length is binom(d+p, d)."""
    check_grid(d, p)
    return _lattice(d, p)


@functools.lru_cache(maxsize=64)
def _lattice(d: int, p: int) -> tuple[MultiIndex, ...]:
    """The lattice of ``enumerate_indices``, built once per checked (d, p)."""
    out = []
    for t in range(p + 1):
        out.extend(_compositions(t, d))
    return tuple(out)
