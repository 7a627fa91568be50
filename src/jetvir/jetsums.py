"""Five families of lattice sums over {m : |m| <= p} in d dimensions.

Each sum has a closed binomial form and a brute-force enumeration;
``verify.suite_sums`` checks them against each other exactly.  The sums are

    A = sum 1                    = binom(d+p, d)
    B = sum m_mu                 = binom(d+p, d+1)
    C = sum m_mu^2               = binom(d+p, d+2) + binom(d+p+1, d+2)
    D = sum m_mu m_nu   (mu!=nu) = binom(d+p, d+2)
    E = sum m_mu (m_nu+1) (mu!=nu) = binom(d+p+1, d+2)
"""

from __future__ import annotations

import enum
import math

from .multiindex import check_direction, check_grid, enumerate_indices


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
    """Direct enumeration of the lattice sum: the kind picks the summand
    once, then one pass adds it up over every m with |m| <= p."""
    _check_args(kind, d, p, mu, nu)
    lattice = enumerate_indices(d, p)
    if kind is SumKind.A:
        return sum(1 for _ in lattice)
    if kind is SumKind.B:
        return sum(m[mu] for m in lattice)
    if kind is SumKind.C:
        return sum(m[mu] * m[mu] for m in lattice)
    if kind is SumKind.D:
        return sum(m[mu] * m[nu] for m in lattice)
    return sum(m[mu] * (m[nu] + 1) for m in lattice)
