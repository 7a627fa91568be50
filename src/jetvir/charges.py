"""Closed-form central/abelian charges of the jet realizations.

The charges depend on the spacetime dimension d, the jet order p, the
conformal weight lambda of the reparametrization sector, the field
statistics, and finitely many trace parameters of the two matrix
representations carried by the fields:

    gl(d) rep rho:   tr I = Delta_rho,       tr T^a_b       = k0 d^a_b,
                     tr T^a_b T^c_d = k1 d^a_d d^c_b + k2 d^a_b d^c_d
    internal rep M:  tr I = Delta_M,         tr M^a         = zM d^{a,0},
                     tr M^a M^b = yM d^{ab} + wM d^{a,0} d^{b,0}

(index 0 of the internal algebra is the privileged direction that can have
a nonvanishing trace).  With shorthand binomials

    A = binom(d+p, d),   B = binom(d+p, d+1),
    D = binom(d+p, d+2), E = binom(d+p+1, d+2)

and eps = +1 (bose) / -1 (fermi), the eight charges are

    c1 = 1 + eps DM (E Drho + A k1)
    c2 =     eps DM (D Drho + 2 B k0 + A k2)
    c3 = 1 + eps (2l-1) DM (B Drho + A k0)
    c4 = 2d + 2 eps (6l^2 - 6l + 1) A Drho DM
    c5 =   - eps A yM Drho
    c6 =     eps (2l-1) zM A Drho
    c7 =   - eps zM (B Drho + A k0)
    c8 =   - eps wM A Drho

The cross-multiplicities (Delta_M on c1/c2, Delta_rho on c5) are baked in;
single-sector formulas are recovered by setting the other dimension to 1.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .exactpoly import _Record, _set, exact
from .multiindex import check_grid, check_int


class Statistics(enum.Enum):
    BOSE = "bose"
    FERMI = "fermi"

    @property
    def sign(self) -> int:
        return 1 if self is Statistics.BOSE else -1


class GlRepTraces(_Record):
    """Trace parameters of the gl(d) representation rho."""

    __slots__ = ("delta_rho", "k0", "k1", "k2")

    def __init__(self, delta_rho: int, k0: Fraction, k1: Fraction, k2: Fraction):
        check_int("delta_rho", delta_rho, 1)
        _set(self, "delta_rho", delta_rho)
        _set(self, "k0", exact(k0))
        _set(self, "k1", exact(k1))
        _set(self, "k2", exact(k2))


def from_sl_gl1(kappa, y_rho, delta_rho: int, d: int) -> GlRepTraces:
    """Trace parameters of an sl(d) (+) gl(1) decomposition: the field has
    density weight kappa and quadratic sl(d) trace y_rho, giving
    k0 = kappa Drho, k1 = y_rho, k2 = kappa^2 Drho - y_rho / d."""
    check_int("dimension", d, 1)
    kappa = exact(kappa)
    y_rho = exact(y_rho)
    return GlRepTraces(
        delta_rho=delta_rho,
        k0=kappa * delta_rho,
        k1=y_rho,
        k2=kappa * kappa * delta_rho - Fraction(y_rho, d),
    )


class GRepTraces(_Record):
    """Trace parameters of the internal representation M, plus the field
    statistics (which enters every double-contraction sign)."""

    __slots__ = ("delta_m", "y_m", "z_m", "w_m", "statistics")

    def __init__(self, delta_m: int, y_m: Fraction, z_m: Fraction, w_m: Fraction,
                 statistics: Statistics = Statistics.BOSE):
        check_int("delta_m", delta_m, 1)
        if not isinstance(statistics, Statistics):
            raise ValueError(f"statistics must be a Statistics, got {statistics!r}")
        _set(self, "delta_m", delta_m)
        _set(self, "y_m", exact(y_m))
        _set(self, "z_m", exact(z_m))
        _set(self, "w_m", exact(w_m))
        _set(self, "statistics", statistics)


class ChargeSet(_Record):
    """The eight charges c1..c8 at (d, p, lambda) for the two
    representations; ``conformal_weight`` is lambda of the
    reparametrization sector."""

    __slots__ = ("d", "p", "conformal_weight", "glrep", "grep",
                 "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8")

    def __init__(self, d: int, p: int, conformal_weight: Fraction, glrep: GlRepTraces,
                 grep: GRepTraces, c1: Fraction, c2: Fraction, c3: Fraction, c4: Fraction,
                 c5: Fraction, c6: Fraction, c7: Fraction, c8: Fraction):
        _set(self, "d", d)
        _set(self, "p", p)
        _set(self, "conformal_weight", conformal_weight)
        _set(self, "glrep", glrep)
        _set(self, "grep", grep)
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "c3", c3)
        _set(self, "c4", c4)
        _set(self, "c5", c5)
        _set(self, "c6", c6)
        _set(self, "c7", c7)
        _set(self, "c8", c8)

    def charges(self) -> dict[str, Fraction]:
        return {f"c{i}": getattr(self, f"c{i}") for i in range(1, 9)}

    def to_json(self) -> dict:
        """The JSON payload: the inputs and the charges, every rational as
        a ``fraction_json`` string."""
        return {
            "inputs": {
                "d": self.d,
                "p": self.p,
                "lambda": fraction_json(self.conformal_weight),
                "delta_rho": self.glrep.delta_rho,
                "k0": fraction_json(self.glrep.k0),
                "k1": fraction_json(self.glrep.k1),
                "k2": fraction_json(self.glrep.k2),
                "delta_m": self.grep.delta_m,
                "y_m": fraction_json(self.grep.y_m),
                "z_m": fraction_json(self.grep.z_m),
                "w_m": fraction_json(self.grep.w_m),
                "statistics": self.grep.statistics.value,
            },
            "charges": {k: fraction_json(v) for k, v in self.charges().items()},
        }


def fraction_json(x: Fraction) -> str:
    """The exact "num/den" string under which rationals are serialized."""
    return f"{x.numerator}/{x.denominator}"


def compare(closed: ChargeSet,
            measured) -> list[tuple[str, Fraction | None, Fraction]]:
    """The (name, measured, closed) rows of c1..c8 and c1+c2 for an
    engine measurement (``wickcocycle.MeasuredCharges``) of ``closed``.
    At d = 1 only c1+c2 is measurable, so the measured c1 and c2 are None."""
    rows = [(name, getattr(measured, name), value)
            for name, value in closed.charges().items()]
    rows.append(("c1+c2", measured.c1_plus_c2, closed.c1 + closed.c2))
    return rows


def closed_form(d: int, p: int, conformal_weight, glrep: GlRepTraces,
                grep: GRepTraces) -> ChargeSet:
    """Evaluate the eight charge formulas exactly."""
    check_grid(d, p)
    lam = exact(conformal_weight)
    eps = grep.statistics.sign
    a = math.comb(d + p, d)
    b = math.comb(d + p, d + 1)
    dd = math.comb(d + p, d + 2)
    e = math.comb(d + p + 1, d + 2)
    drho, dm = glrep.delta_rho, grep.delta_m
    c1 = 1 + eps * dm * (e * drho + a * glrep.k1)
    c2 = eps * dm * (dd * drho + 2 * b * glrep.k0 + a * glrep.k2)
    c3 = 1 + eps * (2 * lam - 1) * dm * (b * drho + a * glrep.k0)
    c4 = 2 * d + 2 * eps * (6 * lam * lam - 6 * lam + 1) * a * drho * dm
    c5 = -eps * a * grep.y_m * drho
    c6 = eps * (2 * lam - 1) * grep.z_m * a * drho
    c7 = -eps * grep.z_m * (b * drho + a * glrep.k0)
    c8 = -eps * grep.w_m * a * drho
    return ChargeSet(d, p, lam, glrep, grep,
                     Fraction(c1), Fraction(c2), Fraction(c3), Fraction(c4),
                     Fraction(c5), Fraction(c6), Fraction(c7), Fraction(c8))


def kac_moody_level(p: int, y_m, statistics: Statistics) -> Fraction:
    """The one-dimensional (d = 1) current-algebra level: -eps (p+1) y_m.
    This is exactly c5 at d = 1 with a one-dimensional gl rep."""
    check_grid(1, p)
    return Fraction(-statistics.sign * (p + 1)) * exact(y_m)
