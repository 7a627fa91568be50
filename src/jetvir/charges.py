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

``ChargeSet`` is the one record of the charges, whichever route computes
them: ``closed_form`` evaluates the formulas above, the contraction engine
measures them (``wickcocycle.extract_charges``), and ``compare`` lines two
records up row by row.  Both routes sum each charge as an int numerator
over a common denominator of lambda and the trace parameters and make one
Fraction per charge.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .exactpoly import _Record, _over_lcm, _set, exact
from .jetsums import SumKind, _closed_value
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
    representations, whichever route computed them, and their sum
    ``c1_plus_c2``; ``conformal_weight`` is lambda of the reparametrization
    sector.  c1 and c2 are None, and then both, only in an engine
    measurement at d = 1: there the two quadratic vector-field channels
    coincide as functionals, so only their sum is measurable."""

    __slots__ = ("d", "p", "conformal_weight", "glrep", "grep",
                 "c1", "c2", "c1_plus_c2", "c3", "c4", "c5", "c6", "c7", "c8")

    def __init__(self, d: int, p: int, conformal_weight: Fraction, glrep: GlRepTraces,
                 grep: GRepTraces, c1: Fraction | None, c2: Fraction | None,
                 c1_plus_c2: Fraction, c3: Fraction, c4: Fraction, c5: Fraction,
                 c6: Fraction, c7: Fraction, c8: Fraction):
        for name, value in zip(self.__slots__, (d, p, conformal_weight, glrep, grep, c1, c2,
                                                c1_plus_c2, c3, c4, c5, c6, c7, c8)):
            _set(self, name, value)

    def charges(self) -> dict[str, Fraction | None]:
        return {f"c{i}": getattr(self, f"c{i}") for i in range(1, 9)}

    def to_json(self) -> dict:
        """The JSON payload: the inputs and c1..c8, every rational as a
        ``fraction_json`` string."""
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


def fraction_json(x: Fraction | None) -> str | None:
    """The exact "num/den" string under which rationals are serialized; a
    charge that a record leaves None stays None (JSON null)."""
    return None if x is None else f"{x.numerator}/{x.denominator}"


def compare(closed: ChargeSet,
            measured: ChargeSet) -> list[tuple[str, Fraction | None, Fraction]]:
    """The (name, measured, closed) rows of c1..c8 and then c1+c2, one
    field each; the measured c1 and c2 are None at d = 1."""
    rows = [(name, getattr(measured, name), value) for name, value in closed.charges().items()]
    rows.append(("c1+c2", measured.c1_plus_c2, closed.c1_plus_c2))
    return rows


def check_traces(glrep, grep) -> None:
    """The one check of the two trace records that the charges are read at."""
    for name, value, kind in (("glrep", glrep, GlRepTraces), ("grep", grep, GRepTraces)):
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def closed_form(d: int, p: int, conformal_weight, glrep: GlRepTraces,
                grep: GRepTraces) -> ChargeSet:
    """Evaluate the eight charge formulas exactly on ints.

    lambda and the six rational trace parameters go over one common
    denominator t, lambda = n/t, k0 = k0'/t, ..., w_M = w_M'/t; each line
    below is its formula above with every rational replaced by its
    numerator and each term scaled to the charge times t (c1, c2, c5, c8)
    or t^2 (c3, c4, c6, c7), and each charge is one Fraction of the two.
    """
    check_grid(d, p)
    check_traces(glrep, grep)
    lam = exact(conformal_weight)
    eps = grep.statistics.sign
    a = _closed_value(SumKind.A, d, p)
    b = _closed_value(SumKind.B, d, p)
    dd = _closed_value(SumKind.D, d, p)
    e = _closed_value(SumKind.E, d, p)
    drho, dm = glrep.delta_rho, grep.delta_m
    (n, k0, k1, k2, y_m, z_m, w_m), t = _over_lcm(lam, glrep.k0, glrep.k1, glrep.k2,
                                                   grep.y_m, grep.z_m, grep.w_m)
    c1 = t + eps * dm * (e * drho * t + a * k1)
    c2 = eps * dm * (dd * drho * t + 2 * b * k0 + a * k2)
    c3 = t * t + eps * (2 * n - t) * dm * (b * drho * t + a * k0)
    c4 = 2 * d * t * t + 2 * eps * (6 * n * n - 6 * n * t + t * t) * a * drho * dm
    c5 = -eps * a * y_m * drho
    c6 = eps * (2 * n - t) * z_m * a * drho
    c7 = -eps * z_m * (b * drho * t + a * k0)
    c8 = -eps * w_m * a * drho
    t2 = t * t
    return ChargeSet(d, p, lam, glrep, grep, Fraction(c1, t), Fraction(c2, t),
                     Fraction(c1 + c2, t), Fraction(c3, t2), Fraction(c4, t2), Fraction(c5, t),
                     Fraction(c6, t2), Fraction(c7, t2), Fraction(c8, t))


def kac_moody_level(p: int, y_m, statistics: Statistics) -> Fraction:
    """The one-dimensional (d = 1) current-algebra level: -eps (p+1) y_m.
    This is exactly c5 at d = 1 with a one-dimensional gl rep."""
    check_grid(1, p)
    return Fraction(-statistics.sign * (p + 1)) * exact(y_m)
