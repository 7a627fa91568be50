"""The order-p jet delta kernel and its bilinear pair integrals.

The kernel in variables (x, y) is the finite sum

    K_p(x, y) = sum_{|m| <= p} ((-1)^{|m|} / m!) x^m d_m delta(y),

which reproduces the p-jet of a smearing function: integrating f(y) against
K_p(x, y) yields the degree-p Taylor truncation f(x)|_p.  The kernel is
asymmetric: K_p(y, x) is a different distribution.

Two layers are provided:

* ``delta_pair_integral``: the bilinear integral of f(x) g(y) against a
  product [D1 K_p(x,y)] [D2 K_p(y,x)], evaluated by a fully symbolic oracle
  that expands both kernels, applies the derivative decorations termwise and
  pairs d_w delta against polynomials via
  integral P(u) d_w delta(u) du = (-1)^{|w|} d_w P(0).  The integral is
  sum_{s,t} W(s,t) f_s g_t over Taylor exponents s of f and t of g, and each
  row t -> W(s,t) depends only on (d, p, D1, D2, s).  Every term of one
  kernel factor has the same lift w - e of its word over its exponent, so
  s + t is the summed lift Delta of the pair and only the at most 4
  exponents 0 <= s <= Delta have a row.  Each such row is built on first
  read by walking the kernel expansions and kept in one memo per (d, p, D1,
  D2), so a call costs one cache lookup, a read of f at each box point and
  |row| reads of g per nonzero one; any other Taylor term of f, a negative
  exponent included, is never read.  Only field-independent data is cached,
  never an integral.
* ``delta_pair_closed``: the three closed forms the pair integral reduces
  to, lattice sums times Taylor numerators read at 0 and at e_mu; the
  oracle never consults them, so oracle-vs-closed comparison is an
  independent test.

Distributions never exist as runtime values; only the pairing rule is
implemented.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Mapping
from fractions import Fraction
from operator import add, sub
from types import MappingProxyType

from .exactpoly import Poly, _Record, _set, check_field
from .jetsums import SumKind, _closed_value
from .multiindex import MultiIndex, check_direction, check_grid, enumerate_indices, unit


class Which(enum.Enum):
    NONE = "none"
    ON_X = "on_x"
    ON_Y = "on_y"


class DerivSpec(_Record):
    """A derivative decoration on one kernel factor: none, or d/dx_mu,
    or d/dy_mu — x and y are the literal integration variables, regardless
    of the kernel's argument order."""

    __slots__ = ("which", "direction")

    def __init__(self, which: Which = Which.NONE, direction: int = 0):
        _set(self, "which", which)
        _set(self, "direction", direction)

    @classmethod
    def none(cls) -> "DerivSpec":
        return cls(Which.NONE, 0)

    @classmethod
    def on_x(cls, mu: int) -> "DerivSpec":
        return cls(Which.ON_X, mu)

    @classmethod
    def on_y(cls, mu: int) -> "DerivSpec":
        return cls(Which.ON_Y, mu)


class SmearMode(enum.Enum):
    PLAIN = "plain"
    SHIFTED = "shifted"


# Enum members held in tuples: testing against them skips a class lookup.
_MODES = (SmearMode.PLAIN, SmearMode.SHIFTED)
_ON = (Which.ON_X, Which.ON_Y)


def _check_deriv(deriv: DerivSpec, d: int) -> None:
    if deriv.which in _ON:
        check_direction(deriv.direction, d, "derivative direction")
    elif deriv.which is not Which.NONE:
        raise ValueError(f"derivative decoration {deriv.which!r} is not a Which")


# A kernel expansion maps each derivative word on the delta of one variable
# to (coefficient, monomial exponent in the other variable); a word belongs
# to at most one term.  The coefficient already carries the pairing factor
# (-1)^{|word|} word! of the term's delta, so it is an integer.  Every term of
# one expansion has the same lift word - exponent, which is returned with it.
_KernelTerms = Mapping[MultiIndex, tuple[int, MultiIndex]]


@functools.lru_cache(maxsize=128)
def _kernel_terms(d: int, p: int, deriv: DerivSpec,
                  poly_is_x: bool) -> tuple[_KernelTerms, MultiIndex]:
    """Expand one decorated kernel factor termwise, as a read-only map, and
    return it with its lift: e_mu for a decorated factor, else 0.

    ``poly_is_x`` selects the argument order: True for K_p(x, y) (monomials
    in x, delta in y), False for K_p(y, x).  The decoration either
    differentiates the monomial (when it targets the polynomial variable) or
    appends to the delta's derivative word (when it targets the delta
    variable).  The kernel coefficient (-1)^{|m|} / m! times the pairing
    factor (-1)^{|word|} word! is the integer (-1)^{|word|-|m|} word! / m!.
    The caller checks the decoration's direction before any cache is read.
    """
    mu = deriv.direction
    indices = enumerate_indices(d, p)
    if deriv.which is Which.NONE:
        return MappingProxyType({m: (1, m) for m in indices}), (0,) * d
    if (deriv.which is Which.ON_X) == poly_is_x:  # d_mu x^m = m_mu x^{m - e_mu}
        out = {m: (m[mu], m[:mu] + (m[mu] - 1,) + m[mu + 1:]) for m in indices if m[mu]}
    else:  # d_mu appended to the word m
        out = {m[:mu] + (m[mu] + 1,) + m[mu + 1:]: (-(m[mu] + 1), m) for m in indices}
    return MappingProxyType(out), unit(d, mu)


# Rows of one decoration pair: t -> W(s, t) per Taylor exponent s of f.
_Row = tuple[tuple[MultiIndex, int], ...]


@functools.lru_cache(maxsize=1024)
def _pair_table(d: int, p: int, d1: DerivSpec, d2: DerivSpec
                ) -> tuple[_KernelTerms, _KernelTerms, MultiIndex,
                           tuple[MultiIndex, ...], dict[MultiIndex, _Row]]:
    """The two kernel expansions of a decoration pair, their summed lift
    Delta = lift1 + lift2, the box of exponents 0 <= s <= Delta, and the
    memo of the rows built so far, which only ``delta_pair_integral``
    fills.  Every term pair has s + t = Delta with t >= 0, so only an s in
    the box has a row; as each lift is 0 or a unit, the box is
    {0, lift1, lift2, Delta}, at most 4 points."""
    first, lift1 = _kernel_terms(d, p, d1, True)
    second, lift2 = _kernel_terms(d, p, d2, False)
    lift = tuple(map(add, lift1, lift2))
    box = tuple(dict.fromkeys(((0,) * d, lift1, lift2, lift)))
    return first, second, lift, box, {}


def _row(first: _KernelTerms, second: _KernelTerms, s: MultiIndex) -> _Row:
    """The field-independent row t -> W(s, t) of nonzero integer weights.

    Walks the first factor: its term (c1, e1, w1) meets the second factor's
    term at the word w2 = e1 + s, if there is one, (c2, e2, w2), and adds
    c1 c2 at t = w1 - e2 when t >= 0.
    """
    row: dict[MultiIndex, int] = {}
    for w1, (c1, e1) in first.items():
        hit = second.get(tuple(map(add, e1, s)))
        if hit is None:
            continue
        c2, e2 = hit
        t = tuple(map(sub, w1, e2))
        if min(t) >= 0:
            row[t] = row.get(t, 0) + c1 * c2
    return tuple((t, w) for t, w in row.items() if w)


def delta_pair_integral(
    f: Poly,
    g: Poly,
    d1: DerivSpec,
    d2: DerivSpec,
    modes: tuple[SmearMode, SmearMode],
    d: int,
    p: int,
) -> Fraction:
    """Symbolic oracle for  iint f(x) g(y) [D1 K_p(x,y)] [D2 K_p(y,x)] dx dy.

    D1 decorates the first factor, D2 the second; both DerivSpecs refer to
    the literal variables x and y.  ``modes = (mode_f, mode_g)`` selects
    plain or shifted smearing per slot; a shifted slot drops its constant
    term, which gives f - f(0) without building it.

    A term (c1, e1, w1) of the first factor and a term (c2, e2, w2) of the
    second contribute c1 c2 f_s g_t with s = w2 - e1 and t = w1 - e2: the
    x-integral pairs f x^{e1} against d_{w2} delta(x), the y-integral
    g y^{e2} against d_{w1} delta(y).  So the integral is
    sum_{s,t} W(s,t) f_s g_t, and for each Taylor exponent s of f the row
    t -> W(s,t) depends on no field.  Every term of a factor has the same
    lift w - e (e_mu if decorated, else 0), so s + t is the summed lift
    Delta, and with t >= 0 only an s in the box 0 <= s <= Delta (at most 4
    points) has a row.  So a call makes one cache lookup and reads f only at
    the box points, skipping the constant term of a shifted slot; a row is
    built on first read and kept per (d, p, D1, D2).  Any other s, a
    negative (Laurent) exponent included, is never read or walked.  A call
    costs at most 4 x |row| dict reads of g.
    """
    check_grid(d, p)
    check_field("the smearing pair (f, g)", (f, g), d)
    _check_deriv(d1, d)  # before the caches, where a bool key finds its int's entry
    _check_deriv(d2, d)
    if len(modes) != 2 or modes[0] not in _MODES or modes[1] not in _MODES:
        raise ValueError(f"modes must be two SmearModes, got {modes!r}")
    first, second, _, box, rows = _pair_table(d, p, d1, d2)
    zero = (0,) * d
    skip_s = zero if modes[0] is SmearMode.SHIFTED else None
    skip_t = zero if modes[1] is SmearMode.SHIFTED else None
    f_num, g_num = f.numerators, g.numerators
    # Sum int numerators; the two shared denominators divide once at the end.
    total = 0
    for s in box:
        fc = f_num.get(s)
        if fc is None or s == skip_s:
            continue
        row = rows.get(s)
        if row is None:
            row = rows[s] = _row(first, second, s)
        for t, w in row:
            gc = g_num.get(t)
            if gc is not None and t != skip_t:
                total += w * fc * gc
    return Fraction(total, f.denominator * g.denominator)


def delta_pair_closed(
    case: str,
    f: Poly,
    g: Poly,
    mu: int | None,
    nu: int | None,
    d: int,
    p: int,
) -> Fraction:
    """The closed forms of the three pair integrals:

    case "i"   (no derivatives, plain/plain):
        A_{d,p} f(0) g(0)
    case "ii"  (d/dx_mu on the first factor, f shifted):
        B_{d,p} d_mu f(0) g(0)
    case "iii" (d/dx_mu on factor one, d/dy_nu on factor two, both shifted):
        E_{d,p} d_nu f(0) d_mu g(0) + D_{d,p} d_mu f(0) d_nu g(0),
    which for mu = nu reduces to C_{d,p} d_mu f(0) d_mu g(0), with
    C = E + D the single-direction square sum.

    f(0) and d_mu f(0) are read as Taylor numerators at 0 and at e_mu (only
    x^{e_mu} differentiates to a constant, Laurent terms included), and the
    integer sum is divided once by the two denominators.  Cases ii and iii
    read only first derivatives, which the shift does not change, so f and
    g are read as given; the closed forms hold only for shifted slots.
    """
    check_grid(d, p)
    check_field("the smearing pair (f, g)", (f, g), d)
    fn, gn = f.numerators, g.numerators
    f0, g0 = fn.get((0,) * d, 0), gn.get((0,) * d, 0)
    if case == "i":
        total = _closed_value(SumKind.A, d, p) * f0 * g0
    elif case == "ii":
        f_mu = fn.get(unit(d, mu, "case ii needs a direction mu"), 0)
        total = _closed_value(SumKind.B, d, p) * f_mu * g0
    elif case == "iii":
        need = "case iii needs directions mu and nu"
        e_mu, e_nu = unit(d, mu, need), unit(d, nu, need)
        f_mu, f_nu = fn.get(e_mu, 0), fn.get(e_nu, 0)
        g_mu, g_nu = gn.get(e_mu, 0), gn.get(e_nu, 0)
        if mu == nu:
            total = _closed_value(SumKind.C, d, p) * f_mu * g_mu
        else:
            total = (_closed_value(SumKind.E, d, p) * f_nu * g_mu
                     + _closed_value(SumKind.D, d, p) * f_mu * g_nu)
    else:
        raise ValueError(f"unknown case {case!r}; expected 'i', 'ii' or 'iii'")
    return Fraction(total, f.denominator * g.denominator)
