"""Five families of lattice sums over {m : |m| <= p} in d dimensions.

Each sum has a closed binomial form and a brute-force enumeration;
``verify.suite_sums`` checks them against each other exactly.  The sums are

    A = sum 1                    = binom(d+p, d)
    B = sum m_mu                 = binom(d+p, d+1)
    C = sum m_mu^2               = binom(d+p, d+2) + binom(d+p+1, d+2)
    D = sum m_mu m_nu   (mu!=nu) = binom(d+p, d+2)
    E = sum m_mu (m_nu+1) (mu!=nu) = binom(d+p+1, d+2)

The brute side reads every sum of one (d, p) off one table of the lattice's
moments: the point count, the column sums sum m_mu and the second moments
sum m_mu m_nu.  The table is built one degree layer at a time, from the
compositions that ``multiindex`` caches for its lattices, and kept in
bounded caches.
"""

from __future__ import annotations

import enum
import functools
import math
from operator import mul

from .multiindex import _compositions, check_direction, check_grid


class SumKind(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"


def _check_args(kind: SumKind, d: int, p: int,
                mu: int | None, nu: int | None) -> None:
    check_grid(d, p)
    if not isinstance(kind, SumKind):
        raise ValueError(f"unknown kind {kind!r}")
    if kind is not SumKind.A:
        check_direction(mu, d, "direction mu")
    if kind in (SumKind.D, SumKind.E):
        check_direction(nu, d, "direction nu")
        if mu == nu:
            raise ValueError(f"kind {kind.value} requires mu != nu")


def sum_closed(kind: SumKind, d: int, p: int,
               mu: int | None = None, nu: int | None = None) -> int:
    """Closed binomial form of the lattice sum."""
    _check_args(kind, d, p, mu, nu)
    return _closed_value(kind, d, p)


def _closed_value(kind: SumKind, d: int, p: int) -> int:
    """The closed form of ``sum_closed`` without its checks, for a caller
    that has checked (d, p) and the directions, which the value does not
    depend on."""
    if kind is SumKind.A:
        return math.comb(d + p, d)
    if kind is SumKind.B:
        return math.comb(d + p, d + 1)
    if kind is SumKind.C:
        return math.comb(d + p, d + 2) + math.comb(d + p + 1, d + 2)
    if kind is SumKind.D:
        return math.comb(d + p, d + 2)
    return math.comb(d + p + 1, d + 2)


def sum_brute(kind: SumKind, d: int, p: int,
              mu: int | None = None, nu: int | None = None) -> int:
    """Direct enumeration of the lattice sum, read off the (d, p) moment
    table after the arguments are checked: A is the point count, B the
    column sum of m_mu, C and D the second moments sum m_mu m_mu and
    sum m_mu m_nu, and E = D + B.  It never consults the closed forms."""
    _check_args(kind, d, p, mu, nu)
    moments = _moments(d, p)
    if kind is SumKind.A:
        return moments[0]
    first = moments[1 + mu]
    if kind is SumKind.B:
        return first
    second = moments[1 + d + d * mu + (mu if kind is SumKind.C else nu)]
    return second + first if kind is SumKind.E else second


# A moment table is one flat tuple: the point count, then sum m_mu for each
# mu, then sum m_mu m_nu row by row (mu major).


@functools.lru_cache(maxsize=256)
def _layer_moments(d: int, t: int) -> tuple[int, ...]:
    """The moment table of the degree-t layer {m : |m| = t}: each entry one
    C-level sum over the columns of its points."""
    columns = tuple(zip(*_compositions(t, d)))
    return (len(columns[0]), *map(sum, columns),
            *(sum(map(mul, a, b)) for a in columns for b in columns))


@functools.lru_cache(maxsize=256)
def _moments(d: int, p: int) -> tuple[int, ...]:
    """The moment table of the lattice {m : |m| <= p}, the sum of its layer
    tables, for a caller that has checked (d, p).  A loop over the layers,
    not a recursion on p, so that no p is too deep to build."""
    return tuple(map(sum, zip(*(_layer_moments(d, t) for t in range(p + 1)))))
