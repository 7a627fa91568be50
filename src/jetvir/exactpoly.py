"""Exact multivariate Laurent polynomials over the rationals.

A ``Poly`` is a sparse polynomial in ``dim`` variables with rational
coefficients.  Ordinary polynomials use non-negative exponents; negative
exponents are permitted so that field components along a closed loop
(Laurent series in the loop parameter) can be handled by the same class.

All arithmetic is exact; no floats appear anywhere.

A ``Poly`` is stored as integer numerators over one shared denominator, the
layout of FLINT's ``fmpq_poly``: the coefficient of x^e is
``numerators[e] / denominator``.  Every ``Poly`` keeps one invariant, its
canonical form:

* the numerators form a dict whose keys are tuples of ``dim`` ints and whose
  values are nonzero ints;
* the denominator is an int > 0 and ``gcd(denominator, *numerators) == 1``;
* the zero polynomial is ``{}`` over 1.

So two equal polynomials have equal fields, and ``==`` and ``hash`` compare
the fields directly.  ``numerators`` (a read-only view) and ``denominator``
expose them; ``terms`` returns a fresh ``{exponent: Fraction}`` dict.

There are three ways to build a ``Poly``:

* ``Poly(dim, terms)`` checks and normalises any input: it rejects a
  ``terms`` that is not a mapping, a wrong dimension, non-int exponents and
  floats, merges duplicate keys, drops zeros and puts the coefficients over
  the lcm of their denominators.  An int or ``Fraction`` coefficient is
  read as it is, so terms with distinct exponents build and add no
  ``Fraction``; only another type goes through ``exact``.  ``Poly.coeff``
  checks its exponent with the same helper.  ``parse_poly`` and the
  ``constant``/``monomial``/``variable`` constructors go through it, as
  does every caller outside this module.
* ``_wrap(dim, num, den)`` takes fields that already hold the invariant and
  checks nothing.
* ``_reduce(dim, num, den)`` takes nonzero int numerators over any positive
  denominator, divides both by their gcd in one pass and wraps the result.

Only the arithmetic and calculus of this module use the last two, on
results they compute from valid operands, so nothing built from outside
input reaches them.  A product ``x * y`` multiplies int numerators term by
term (``_num_mul``) into one dict over the product of the two denominators
and reduces once; ``deriv`` differentiates them with ``_num_deriv``.
``prim_products(dim, prims, den, ncols, rows)`` is the one kernel of the jet
brackets: it takes int numerator dicts ("prims") and one plan per result
row, a dict (column, a, b) -> int coefficient over ``den``, and makes the
rows by Kronecker substitution: each prim is packed into one int, each
distinct product of prims is one int multiply, and each entry is unpacked
once; a call too sparse in its layout for that to pay multiplies each
distinct pair term by term once instead.  ``jetreps`` hands it primitive
parts (int numerators with gcd 1), so each distinct product of prims is
made once per bracket.
``lincomb(dim, pairs)`` is the one kernel for linear combinations: all
numerators go into one dict over the lcm of the scaled denominators, reduced
once.  Every sum, difference, negation and scaling is one ``lincomb``, and so
is the sum over terms of a composition, each term built by ``_image``, which
the loop tables of ``cocycles`` share.  Each ``Poly`` also keeps its degree
bound max |e| once it is first needed; products, inverse powers and parsed
terms are capped at total degree ``MAX_DEGREE``.  ``check_field`` is the one
check of a field argument of the package: its component count and variables.
``_Record`` is the base of the package's value records.
``parse_poly`` reads a text in one fold over its tokens, each of which
absorbs the whitespace before it: a sign ends the term before it, a
coefficient or a variable with its exponent is one more factor of the
current term, ``*`` separates factors, and any other character is an error
token.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, attrgetter, mul, sub
from types import MappingProxyType

from .multiindex import MultiIndex, check_direction, check_int


def exact(value) -> Fraction:
    """``value`` as a Fraction; a float, which would carry its binary
    rounding error into the exact arithmetic, raises ValueError, and so
    does a value that is not a number at all.  A Fraction is returned as it
    is: it is immutable, so a copy gains nothing."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ValueError(f"values must be exact, got the float {value!r}")
    try:
        return Fraction(value)
    except TypeError:
        raise ValueError(f"values must be exact, got {value!r}") from None


class _Record:
    """The base of the package's value records.  A subclass lists its fields
    in ``__slots__`` and sets them in its own ``__init__`` through
    ``_set``; it then compares equal to a record of the same type with equal
    fields, hashes its fields, rejects assignment and deletion, and is
    copied and pickled through its ``__init__``.  A subclass declared with
    ``frozen=False`` stays mutable and unhashable."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        cls._values = attrgetter(*cls.__slots__)
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


_set = object.__setattr__  # how a frozen record's __init__ sets its fields


MAX_DEGREE = 64  # the total-degree cap, a guard against runaway input


def _exponent(expo, dim: int | None) -> MultiIndex:
    """``expo`` as a tuple of ``dim`` ints, of any length if ``dim`` is None:
    the one check of an exponent, for ``Poly(dim, terms)``, ``Poly.coeff``
    and ``Poly.monomial``."""
    try:
        e = tuple(expo)
    except TypeError:
        raise ValueError(f"exponents must be sequences of integers, got {expo!r}") from None
    if len(e) != dim and dim is not None:
        raise ValueError(f"exponent {e} has wrong dimension (expected {dim})")
    for k in e:
        if type(k) is not int:
            raise ValueError(f"exponents must be integers: {e}")
    return e


def _length(seq) -> int:
    """``len(seq)``, or -1 for an argument that has no length, so that the
    caller's length check rejects it with its own message."""
    try:
        return len(seq)
    except TypeError:
        return -1


def _degree_overflow() -> OverflowError:
    return OverflowError(f"product exceeds degree cap {MAX_DEGREE}")


def _over_cap(a: Mapping[MultiIndex, int], b: Mapping[MultiIndex, int], cap: int) -> bool:
    """True if some term pair of the numerators a and b of a product has total
    degree above ``cap``.  Worth asking only when the operand degrees sum to
    more than the cap: then |e1 + e2| <= |e1| + |e2| decides nothing, as
    Laurent exponents cancel."""
    return any(sum(map(abs, map(add, e1, e2))) > cap for e1 in a for e2 in b)


def _num_mul(a: Mapping[MultiIndex, int], b: Mapping[MultiIndex, int],
             one_var: bool) -> dict[MultiIndex, int]:
    """The int numerators of a product, term pair by term pair, zeros kept;
    in one variable (``one_var``) each exponent is a 1-tuple of one int sum,
    quicker to build than a map."""
    out: dict[MultiIndex, int] = {}
    get = out.get
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            e = (e1[0] + e2[0],) if one_var else tuple(map(add, e1, e2))
            out[e] = get(e, 0) + n1 * n2
    return out


def _num_deriv(a: Mapping[MultiIndex, int], mu: int) -> dict[MultiIndex, int]:
    """The nonzero int numerators of d_mu of the numerators a (mu unchecked);
    e -> e - e_mu is injective, so no two terms land on one key."""
    return {e[:mu] + (e[mu] - 1,) + e[mu + 1:]: n * e[mu] for e, n in a.items() if e[mu]}


class Poly:
    """Sparse exact polynomial (Laurent allowed) in ``dim`` variables."""

    __slots__ = ("dim", "_num", "_den", "_deg")

    def __init__(self, dim: int, terms: Mapping[Sequence[int], object] | None = None):
        check_int("dimension", dim, 0)
        clean: dict[MultiIndex, int | Fraction] = {}
        if terms:
            try:
                items = terms.items()
            except AttributeError:
                raise ValueError("terms must map exponents to coefficients, "
                                 f"got {type(terms).__name__}") from None
            for expo, c in items:
                e = _exponent(expo, dim)
                # An int or a Fraction is stored as it is; only a duplicate
                # exponent adds, so distinct terms build no Fraction.
                if type(c) is not int and type(c) is not Fraction:
                    c = exact(c)
                if c:
                    if e in clean:
                        c = clean[e] + c
                        if not c:
                            del clean[e]
                            continue
                    clean[e] = c
        # Over the lcm of reduced denominators the gcd is already 1: a prime
        # power that divides the lcm exactly divides some coefficient's
        # denominator exactly, and that coefficient's numerator is prime to it.
        den = lcm(*[c.denominator for c in clean.values()])
        self.dim = dim
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den
        self._deg = -1

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "Poly":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, expo: Iterable[int], coeff=1) -> "Poly":
        e = _exponent(expo, None)
        return cls(len(e), {e: coeff})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Poly":
        check_direction(i, dim, "variable index")
        return cls(dim, {tuple(1 if j == i else 0 for j in range(dim)): 1})

    # -- basic queries -----------------------------------------------------

    @property
    def numerators(self) -> Mapping[MultiIndex, int]:
        """Read-only view of the nonzero int numerators, keyed by exponent."""
        return MappingProxyType(self._num)

    @property
    def denominator(self) -> int:
        """The one positive denominator shared by every coefficient."""
        return self._den

    @property
    def terms(self) -> dict[MultiIndex, Fraction]:
        """A fresh dict exponent -> nonzero Fraction coefficient."""
        den = self._den
        return {e: Fraction(n, den) for e, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_laurent(self) -> bool:
        """True if any exponent is negative."""
        return any(c < 0 for e in self._num for c in e)

    def coeff(self, expo: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(_exponent(expo, self.dim), 0), self._den)

    def _degree(self) -> int:
        """max |e| over the terms (0 for zero), computed on first use."""
        deg = self._deg
        if deg < 0:
            deg = self._deg = max((sum(map(abs, e)) for e in self._num), default=0)
        return deg

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return lincomb(self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "Poly") -> "Poly":
        return lincomb(self.dim, ((1, self), (-1, other)))

    def __neg__(self) -> "Poly":
        return lincomb(self.dim, ((-1, self),))

    def scale(self, k) -> "Poly":
        return lincomb(self.dim, ((exact(k), self),))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        cap = MAX_DEGREE
        a, b = self._num, other._num
        if self._degree() + other._degree() > cap and _over_cap(a, b, cap):
            raise _degree_overflow()
        out = _num_mul(a, b, self.dim == 1)
        return _reduce(self.dim, {e: n for e, n in out.items() if n},
                       self._den * other._den)

    def __pow__(self, n: int) -> "Poly":
        if type(n) is not int:
            raise ValueError(f"exponents must be integers, got {n!r}")
        if n < 0:
            raise ValueError("negative powers of a general polynomial are undefined")
        if n == 0:
            return _wrap(self.dim, {(0,) * self.dim: 1}, 1)
        # Square up to the lowest set bit, which starts the result, so no
        # product has the constant 1 as an operand.
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.dim, self._den, frozenset(self._num.items())))

    # -- calculus ----------------------------------------------------------

    def deriv(self, mu: int) -> "Poly":
        """Partial derivative with respect to variable mu (Laurent-aware)."""
        check_direction(mu, self.dim, "direction")
        return _reduce(self.dim, _num_deriv(self._num, mu), self._den)

    def eval(self, point: Sequence) -> Fraction:
        """Evaluate at an exact rational point (no negative exponents at 0)."""
        if _length(point) != self.dim:
            raise ValueError(f"point {point!r} needs {self.dim} coordinates")
        pt = [exact(v) for v in point]
        total = Fraction(0)
        for e, n in self._num.items():
            val = Fraction(n)
            for x, k in zip(pt, e):
                if k < 0 and x == 0:
                    raise ZeroDivisionError("negative exponent evaluated at zero")
                val *= x ** k
            total += val
        return total / self._den

    def compose_univariate(self, substitutions: Sequence["Poly"]) -> "Poly":
        """Substitute variable i -> substitutions[i] (each a Poly in a common
        target space).  Negative exponents require the corresponding
        substitution to be a single monomial, whose inverse is well defined.
        """
        if _length(substitutions) != self.dim:
            raise ValueError("need one substitution polynomial per variable")
        if not substitutions:
            raise ValueError("composition needs at least one variable")
        tdim = substitutions[0].dim
        for s in substitutions:
            if s.dim != tdim:
                raise ValueError("substitution polynomials must share a dimension")
        powers: dict[tuple[int, int], Poly] = {}
        return lincomb(tdim, [(Fraction(n, self._den), _image(substitutions, e, powers))
                              for e, n in self._num.items()])

    # -- formatting ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly(dim={self.dim}, {format_poly(self)!r})"


def check_field(name: str, comps: Sequence[Poly], dim: int, count: int | None = None) -> None:
    """Require ``count`` components (at least one if None), each a Poly in ``dim`` variables."""
    if not comps or (count is not None and len(comps) != count):
        raise ValueError(f"{name} needs {count or 'at least 1'} components, got {len(comps)}")
    for c in comps:
        if not isinstance(c, Poly) or c.dim != dim:
            raise ValueError(f"each component of {name} must be a polynomial in {dim} variable(s)")


def _monomial_inverse_power(p: Poly, k: int) -> Poly:
    """(monomial)^(-k); raises if p is not a single monomial."""
    if len(p._num) != 1:
        raise ValueError(
            "negative exponent composition requires a monomial substitution"
        )
    (e, n), = p._num.items()
    if k * sum(abs(x) for x in e) > MAX_DEGREE:
        raise _degree_overflow()
    # (n/den)^-k = den^k / n^k, already in lowest terms; the sign moves up.
    top, bottom = p._den ** k, n ** k
    if bottom < 0:
        top, bottom = -top, -bottom
    return _wrap(p.dim, {tuple(-k * x for x in e): top}, bottom)


def _image(subs: Sequence[Poly], e: MultiIndex, powers: dict[tuple[int, int], Poly]) -> Poly:
    """x^e under x_i -> subs[i], 1 for e = 0: the powers subs[i]^e_i, each
    built by squaring or as a monomial inverse and kept in ``powers`` under
    (i, e_i), multiplied in order of i.  ``compose_univariate`` and the loop
    tables of ``cocycles`` both build their images here."""
    term = None
    for i, k in enumerate(e):
        if k:
            p = powers.get((i, k))
            if p is None:
                s = subs[i]
                p = powers[i, k] = s ** k if k > 0 else _monomial_inverse_power(s, -k)
            term = p if term is None else term * p
    if term is None:  # e = 0
        return _wrap(subs[0].dim, {(0,) * subs[0].dim: 1}, 1)
    return term


def _wrap(dim: int, num: dict[MultiIndex, int], den: int) -> Poly:
    """A Poly around ``num`` over ``den``, which must already be in the
    canonical form of the module docstring; nothing is checked or copied."""
    p = object.__new__(Poly)
    p.dim = dim
    p._num = num
    p._den = den
    p._deg = -1
    return p


def _reduce(dim: int, num: dict[MultiIndex, int], den: int) -> Poly:
    """The canonical Poly num / den, for nonzero int numerators and an int
    den > 0: one gcd pass over the numerators and the denominator."""
    if den == 1:
        return _wrap(dim, num, 1)
    g = gcd(den, *num.values())
    if g == 1:
        return _wrap(dim, num, den)
    return _wrap(dim, {e: n // g for e, n in num.items()}, den // g)


def _ratio(c, what: str = "coefficients") -> tuple[int, int]:
    """An int or Fraction value as (numerator, denominator); anything else
    raises ValueError, naming the values ``what``."""
    if type(c) is int:
        return c, 1
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise ValueError(f"{what} must be exact (int or Fraction), got {c!r}")


def _over_lcm(*values) -> tuple[tuple[int, ...], int]:
    """Ints and Fractions as int numerators over the lcm of their
    denominators: (numerators, lcm), with lcm 1 for no values."""
    den = lcm(*[v.denominator for v in values])
    return tuple([v.numerator * (den // v.denominator) for v in values]), den


def lincomb(dim: int, pairs: Iterable[tuple[object, Poly]]) -> Poly:
    """The canonical Poly sum_k c_k P_k of the pairs (c_k, P_k), each c_k an
    int or Fraction and each P_k a Poly in ``dim`` variables.

    Pairs with c_k = 0 or P_k = 0 are skipped.  The numerators of the others,
    scaled by c_k, go into one dict over the lcm of the scaled denominators
    den(c_k) * den(P_k), which is reduced once.  Raises ``ValueError`` on a
    float (or any other inexact) coefficient and on a Poly of another dim.
    """
    scaled = []
    den = 1
    for c, p in pairs:
        if p.dim != dim:
            raise ValueError(f"dimension mismatch: {p.dim} vs {dim}")
        cn, cd = _ratio(c)
        if cn and p._num:
            pd = p._den * cd
            if den % pd:
                den = lcm(den, pd)
            scaled.append((cn, pd, p))
    out: dict[MultiIndex, int] = {}
    get = out.get
    for cn, pd, p in scaled:
        f = cn * (den // pd)
        for e, n in p._num.items():
            out[e] = get(e, 0) + n * f
    return _reduce(dim, {e: n for e, n in out.items() if n}, den)


def prim_products(dim: int, prims: Sequence[Mapping[MultiIndex, int]], den: int,
                  ncols: int, rows: Iterable[Mapping[tuple[int, int, int], int]]
                  ) -> list[tuple[Poly, ...]]:
    """Rows of ``ncols`` canonical Polys in ``dim`` variables, one per plan of
    ``rows``: entry j is sum (c/den) * prims[a] * prims[b] over the keys
    (j, a, b) -> c of the plan, for int numerator dicts ``prims``, int
    coefficients c and an int den > 0.  A planner writes each pair with
    a <= b, so that the coefficients of one product merge, and cancel, in
    one key.  An entry with no nonzero c is one shared zero Poly.  Raises
    OverflowError exactly when some key, its c zero or not, has a term pair
    above ``MAX_DEGREE``, and ValueError on a prim of another dimension or a
    coefficient that is not an int.
    Each plan is checked as it arrives, so ``rows`` may be a generator that
    appends to ``prims`` the prims its next plan uses.

    Kronecker substitution: with lo_i and hi_i the extreme exponents of
    variable i over the prims of the nonzero keys, x^e is packed at slot
    sum_i (e_i - lo_i) s_i of an int, where s_i is the product of the
    spans 2 (hi_i - lo_i) + 1 of the later variables.  The product of two
    packed prims then holds x^(e1 + e2) at the sum of their slots, and no
    slot spills into another: a slot has w bits, the least of 8, 16, 32 and
    the multiples of 64 with 2^(w-1) above every entry's
    sum |c| ||prims[a]||_1 ||prims[b]||_1, which bounds its coefficients
    over den.  Each prim is packed once and each distinct product is one
    int multiply, dropped after the last row that uses it; a key with c = 0
    is never multiplied.  Each entry is summed as one int and unpacked
    once, read off as machine words when w is at most 64.

    The packed path costs time in proportion to the layout, slots * w bits
    per distinct product, and pays off only for prims dense in their box.
    So when the distinct products have fewer than slots * w /
    ``_BITS_PER_PAIR`` term pairs on average (sparse prims of high degree,
    Laurent prims far apart), each distinct product is made term pair by
    term pair once instead and each entry summed as one numerator dict.
    """
    if type(den) is not int or den < 1:
        raise ValueError(f"the denominator must be an int > 0, got {den!r}")
    cap = MAX_DEGREE
    sizes: dict[int, tuple[int, int]] = {}  # prim index -> (degree bound, ||prim||_1)
    last_use: dict[tuple[int, int], int] = {}  # pair -> last row with a nonzero c, or -1
    plans = []
    bound = 0
    for i, plan in enumerate(rows):
        entry_bounds: dict[int, int] = {}
        for (j, a, b), c in plan.items():
            if type(c) is not int:
                raise ValueError(f"coefficients must be ints, got {c!r}")
            pair = (a, b)
            if pair not in last_use:
                for k in pair:
                    if k not in sizes:
                        prim = prims[k]
                        n = len(next(iter(prim)))
                        if n != dim:
                            raise ValueError(f"dimension mismatch: {n} vs {dim}")
                        sizes[k] = (max(sum(map(abs, e)) for e in prim),
                                    sum(map(abs, prim.values())))
                if (sizes[a][0] + sizes[b][0] > cap
                        and _over_cap(prims[a], prims[b], cap)):
                    raise _degree_overflow()
                last_use[pair] = -1
            if c:
                last_use[pair] = i
                entry_bounds[j] = entry_bounds.get(j, 0) + abs(c) * sizes[a][1] * sizes[b][1]
        bound = max(bound, *entry_bounds.values(), 0)
        plans.append(plan)
    live = [pair for pair, i in last_use.items() if i >= 0]
    used = {k for pair in live for k in pair}
    exps = {e for k in used for e in prims[k]}
    lo = list(map(min, zip(*exps))) if exps else [0] * dim
    hi = list(map(max, zip(*exps))) if exps else [0] * dim
    spans = [2 * (h - l) + 1 for l, h in zip(lo, hi)]
    strides = [prod(spans[i + 1:]) for i in range(dim)]
    need = bound.bit_length() + 1
    width = next((w for w in (8, 16, 32) if w >= need), 64 * ((need + 63) // 64))
    term_pairs = sum(len(prims[a]) * len(prims[b]) for a, b in live)
    packed = len(live) * prod(spans) * width <= _BITS_PER_PAIR * term_pairs
    if packed:
        shifts = {e: width * sum(map(mul, map(sub, e, lo), strides)) for e in exps}
        ops = {k: sum(n << shifts[e] for e, n in prims[k].items()) for k in used}
        exponents = _SlotExponents(strides, [2 * l for l in lo])
    else:
        ops = prims
    one_var = dim == 1
    expiring: list[list] = [[] for _ in plans]
    for pair in live:
        expiring[last_use[pair]].append(pair)
    made: dict[tuple[int, int], object] = {}
    zero = _wrap(dim, {}, 1)
    out = []
    for plan, done in zip(plans, expiring):
        terms: dict[int, list] = {}  # column -> [(c, product)]
        for (j, a, b), c in plan.items():
            if c:
                xy = made.get((a, b))
                if xy is None:
                    xy = made[a, b] = (ops[a] * ops[b] if packed
                                       else _num_mul(ops[a], ops[b], one_var))
                terms.setdefault(j, []).append((c, xy))
        for pair in done:
            del made[pair]
        row = [zero] * ncols
        for j, products in terms.items():
            num: dict[MultiIndex, int] = {}
            if packed:
                total = sum(c * xy for c, xy in products)
                if total:
                    num = _unpack(total, width, exponents)
            else:
                get = num.get
                for c, xy in products:
                    for e, n in xy.items():
                        num[e] = get(e, 0) + c * n
                num = {e: n for e, n in num.items() if n}
            if num:
                row[j] = _reduce(dim, num, den)
        out.append(tuple(row))
    return out


# The packed bits that cost as much as one term pair of a product: per
# distinct product, the packed path does about slots * width bits of int work
# (the multiply, the sums and the unpacking) and the other path one dict
# update per term pair.  On jet brackets at d = 3 the two paths cost the same
# between about 500 bits per term pair (operands of many terms) and 5,000
# (one or two terms, where each product costs more than its term pairs); 512
# packs only where packing is faster (BENCH_packed_products.json,
# "layout_choice").
_BITS_PER_PAIR = 512
_WORDS = {8 * memoryview(b"").cast(f).itemsize: f for f in "BHIQ"}  # bits -> word format


class _SlotExponents(dict):
    """slot -> the exponent that a packed product holds there, made on first
    read: the digits of the slot in the mixed radix of ``strides``, offset
    by ``base``, the exponent of slot 0."""

    __slots__ = ("strides", "base")

    def __init__(self, strides: Sequence[int], base: Sequence[int]):
        super().__init__()
        self.strides = strides
        self.base = base

    def __missing__(self, slot: int) -> MultiIndex:
        e = []
        k = slot
        for s, b in zip(self.strides, self.base):
            q, k = divmod(k, s)
            e.append(q + b)
        e = self[slot] = tuple(e)
        return e


def _unpack(total: int, width: int, exponents: Mapping[int, MultiIndex]) -> dict[MultiIndex, int]:
    """The nonzero signed coefficients c, each below 2^(width - 1) in
    magnitude, at the slots k of ``width`` bits of a nonzero ``total``,
    keyed by ``exponents[k]``."""
    # Read the slots from the lowest nonzero one up, each shifted by half so
    # that it is unsigned; |total| < 2^(width k) bounds the top slot k - 1
    # up to one extra slot, which then holds 0.
    first = ((total & -total).bit_length() - 1) // width
    total >>= width * first
    count = total.bit_length() // width + 1
    nbytes = width // 8
    half = 1 << (width - 1)
    total += int.from_bytes((b"\0" * (nbytes - 1) + b"\x80") * count, "little")
    fmt = _WORDS.get(width)
    if fmt:
        words = memoryview(total.to_bytes(nbytes * count, sys.byteorder)).cast(fmt).tolist()
        if sys.byteorder == "big":
            words.reverse()
    else:
        raw = total.to_bytes(nbytes * count, "little")
        words = [int.from_bytes(raw[k:k + nbytes], "little")
                 for k in range(0, nbytes * count, nbytes)]
    return {exponents[k]: w - half for k, w in enumerate(words, first) if w != half}


# -- parsing -----------------------------------------------------------------

# Compiled on first use by ``parse_poly``, from ``re``'s own pattern cache.
# Every token absorbs the whitespace before it; ``bad`` is any other character.
_TOKEN = (
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>-?\d+))?|\*|(?P<bad>\S))"
)


def parse_poly(text: str, dim: int, varname: str = "x") -> Poly:
    """Parse expressions like ``2 * x0^2 x1 - 1/3 * x1^3 + 4``.

    Variables are ``x0 ... x{dim-1}`` (configurable stem); for ``dim == 1``
    the bare stem (e.g. ``z``) is also accepted, with negative exponents
    allowed (Laurent).  Coefficients are integers or fractions ``p/q``.  A
    text with no term, or whose last sign no term follows, does not parse.
    Whitespace before and after the text is ignored.
    """
    terms: dict[MultiIndex, Fraction] = {}
    tail = 0  # where the text after the last complete term begins
    sign, coeff, expo = 1, Fraction(1), None  # expo is None until a factor is read
    for m in re.compile(_TOKEN).finditer(text, 0, len(text.rstrip())):
        if m["bad"]:
            raise ValueError(f"cannot parse polynomial at: {text[m.start():]!r}")
        if m["sign"]:
            if expo is not None:
                e = tuple(expo)
                terms[e] = terms.get(e, 0) + sign * coeff
                sign, coeff, expo, tail = 1, Fraction(1), None, m.start("sign")
            if m["sign"] == "-":
                sign = -sign
        elif num := m["num"]:
            try:
                coeff *= Fraction(num)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in coefficient {num!r}") from exc
            if expo is None:
                expo = [0] * dim
        elif name := m["var"]:
            k = int(m["exp"]) if m["exp"] else 1
            if name == varname and dim == 1:
                idx = 0
            elif name.startswith(varname) and name[len(varname):].isdigit():
                idx = int(name[len(varname):])
                if idx >= dim:
                    raise ValueError(f"variable {name} out of range for dimension {dim}")
            else:
                raise ValueError(f"unknown variable {name!r}")
            if k < 0 and dim != 1:
                raise ValueError("negative exponents only supported in one variable")
            if expo is None:
                expo = [0] * dim
            expo[idx] += k
    if expo is None:
        raise ValueError(f"cannot parse polynomial at: {text[tail:]!r}")
    e = tuple(expo)
    terms[e] = terms.get(e, 0) + sign * coeff
    if any(sum(abs(c) for c in e) > MAX_DEGREE for e in terms):
        raise OverflowError("parsed polynomial exceeds the degree cap")
    return Poly(dim, terms)


def format_poly(p: Poly) -> str:
    """Human-readable exact rendering, inverse-compatible with parse_poly."""
    terms = p.terms
    if not terms:
        return "0"
    pieces = []
    for e in sorted(terms, key=lambda t: (sum(t), tuple(-c for c in t))):
        c = terms[e]
        vars_part = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            name = "x" if p.dim == 1 else f"x{i}"
            vars_part.append(name if k == 1 else f"{name}^{k}")
        body = " ".join(vars_part)
        if not body:
            mag = str(abs(c))
        elif abs(c) == 1:
            mag = body
        else:
            mag = f"{abs(c)} * {body}"
        pieces.append(("- " if c < 0 else "+ ") + mag)
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])
