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

* ``Poly(dim, terms)`` checks and normalises any input: it rejects a wrong
  dimension, non-int exponents and floats, merges duplicate keys, drops
  zeros and puts the coefficients over the lcm of their denominators.
  ``parse_poly`` and the ``constant``/``monomial``/``variable`` constructors
  go through it, as does every caller outside this module.
* ``_wrap(dim, num, den)`` takes fields that already hold the invariant and
  checks nothing.
* ``_reduce(dim, num, den)`` takes nonzero int numerators over any positive
  denominator, divides both by their gcd in one pass and wraps the result.

Only the arithmetic and calculus of this module use the last two, on
results they compute from valid operands, so nothing built from outside
input reaches them.  A product ``x * y`` multiplies int numerators term by
term into one dict over the product of the two denominators and reduces
once.  ``sums_of_products(dim, entries)`` computes a whole batch of sums of
products (n/d) * x * y, the entries of a jet bracket, by Kronecker
substitution: each distinct operand is packed into one int, each distinct
product is one int multiply, and each entry is unpacked once; a batch too
sparse in its layout for that to pay multiplies each distinct pair term by
term once instead.  ``jetreps`` hands it primitive parts (int numerators
with gcd 1 over 1), so each distinct product of prims is made once per
bracket.
``lincomb(dim, pairs)`` is the one kernel for linear combinations: all
numerators go into one dict over the lcm of the scaled denominators, reduced
once.  Every sum, difference, negation and scaling is one ``lincomb``, and so
is the sum over terms of a composition.  Each ``Poly`` also keeps its degree
bound max |e| once it is first needed; products, inverse powers and parsed
terms are capped at total degree ``MAX_DEGREE``.  ``check_field`` is the one
check of a field argument of the package: its component count and variables.
``_Record`` is the base of the package's value records.
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
    does a value that is not a number at all."""
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


def _degree_overflow() -> OverflowError:
    return OverflowError(f"product exceeds degree cap {MAX_DEGREE}")


def _over_cap(x: "Poly", y: "Poly", cap: int) -> bool:
    """True if some term pair of x * y has total degree above ``cap``.  Worth
    asking only when the operand degrees sum to more than the cap: then
    |e1 + e2| <= |e1| + |e2| decides nothing, as Laurent exponents cancel."""
    return any(sum(map(abs, map(add, e1, e2))) > cap for e1 in x._num for e2 in y._num)


class Poly:
    """Sparse exact polynomial (Laurent allowed) in ``dim`` variables."""

    __slots__ = ("dim", "_num", "_den", "_deg")

    def __init__(self, dim: int, terms: Mapping[Sequence[int], object] | None = None):
        check_int("dimension", dim, 0)
        clean: dict[MultiIndex, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                e = tuple(expo)
                if len(e) != dim:
                    raise ValueError(f"exponent {e} has wrong dimension (expected {dim})")
                if any(type(c) is not int for c in e):
                    raise ValueError(f"exponents must be integers: {e}")
                c = exact(coeff)
                if c != 0:
                    clean[e] = clean.get(e, 0) + c
                    if clean[e] == 0:
                        del clean[e]
        # Over the lcm of reduced denominators the gcd is already 1: a prime
        # power that divides the lcm exactly divides some coefficient's
        # denominator exactly, and that coefficient's numerator is prime to it.
        den = lcm(*(c.denominator for c in clean.values()))
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
    def monomial(cls, expo: Sequence[int], coeff=1) -> "Poly":
        return cls(len(tuple(expo)), {tuple(expo): coeff})

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
        e = tuple(expo)
        if len(e) != self.dim:
            raise ValueError(f"exponent {e} has wrong dimension (expected {self.dim})")
        return Fraction(self._num.get(e, 0), self._den)

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
        if self._degree() + other._degree() > cap and _over_cap(self, other, cap):
            raise _degree_overflow()
        out: dict[MultiIndex, int] = {}
        get = out.get
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + n1 * n2
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
        # e -> e - e_mu is injective, so no two terms land on one key.
        return _reduce(self.dim, {e[:mu] + (e[mu] - 1,) + e[mu + 1:]: n * e[mu]
                                  for e, n in self._num.items() if e[mu]}, self._den)

    def deriv_multi(self, m: Sequence[int]) -> "Poly":
        """Repeated partial derivative d^m, one order (an int >= 0) per variable."""
        if len(m) != self.dim:
            raise ValueError(f"derivative order {tuple(m)} needs {self.dim} entries")
        out = self
        for mu, k in enumerate(m):
            check_int("derivative order", k, 0)
            for _ in range(k):
                out = out.deriv(mu)
        return out

    def eval(self, point: Sequence) -> Fraction:
        """Evaluate at an exact rational point (no negative exponents at 0)."""
        if len(point) != self.dim:
            raise ValueError(f"point has wrong dimension: {len(point)} vs {self.dim}")
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
        if len(substitutions) != self.dim:
            raise ValueError("need one substitution polynomial per variable")
        if not substitutions:
            raise ValueError("composition needs at least one variable")
        tdim = substitutions[0].dim
        for s in substitutions:
            if s.dim != tdim:
                raise ValueError("substitution polynomials must share a dimension")
        one = _wrap(tdim, {(0,) * tdim: 1}, 1)
        powers: dict[tuple[int, int], Poly] = {}
        pairs = []
        for e, n in self._num.items():
            term = None
            for i, k in enumerate(e):
                if k == 0:
                    continue
                q = powers.get((i, k))
                if q is None:
                    s = substitutions[i]
                    q = powers[i, k] = s ** k if k > 0 else _monomial_inverse_power(s, -k)
                term = q if term is None else term * q
            pairs.append((Fraction(n, self._den), one if term is None else term))
        return lincomb(tdim, pairs)

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
        if type(c) is int:
            cn, cd = c, 1
        elif isinstance(c, (int, Fraction)):
            cn, cd = c.numerator, c.denominator
        else:
            raise ValueError(f"coefficients must be exact (int or Fraction), got {c!r}")
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


def sums_of_products(dim: int,
                     entries: Iterable[Iterable[tuple[int, int, Poly, Poly]]]) -> list[Poly]:
    """The canonical Polys sum_t (n_t/d_t) * x_t * y_t, one per entry, for
    entries of terms (n, d, x, y) with ints n and d > 0 and Polys x, y in
    ``dim`` variables.  Entries that sum to zero share one zero Poly.
    Raises OverflowError exactly when some term, with n = 0 or not, has a
    term pair above ``MAX_DEGREE``, as x * y would.

    Kronecker substitution: with lo_i and hi_i the extreme exponents of
    variable i over the operands of the batch, x^e is packed at slot
    sum_i (e_i - lo_i) s_i of an int, where s_i is the product of the
    spans 2 (hi_i - lo_i) + 1 of the later variables.  The product of two
    packed operands then holds x^(e1 + e2) at the sum of their slots, and
    no slot spills into another: a slot has w bits, the least of 8, 16, 32
    and the multiples of 64 with 2^(w-1) above every
    sum_t |n_t L / d_t| ||x_t||_1 ||y_t||_1, where L is the entry's lcm of
    d_t den(x_t) den(y_t), and that bounds each coefficient of the entry
    over L.  Each distinct operand is packed once and each distinct
    product is one int multiply (``_times``), dropped after the last entry
    that uses it; a term with n = 0 is never multiplied.  Each entry is
    summed over its L as one int and unpacked once, read off as machine
    words when w is at most 64.

    The packed path costs time in proportion to the layout, slots * w bits
    per distinct product, and pays off only for operands dense in their
    box.  So a batch whose distinct products have fewer than
    slots * w / ``_BITS_PER_PAIR`` term pairs on average (sparse operands of
    high degree, Laurent operands far apart) multiplies the numerator Polys
    of each distinct product once instead and takes each entry as one
    ``lincomb`` of them.
    """
    cap = MAX_DEGREE
    ops: dict[int, list] = {}  # id(x) -> [x, ||x||_1, packed x, degree bound of x]
    batch = []  # per entry: its L and its terms (n L / d_t, product key, op x, op y)
    last_use: dict[tuple[int, int], int] = {}  # product key -> index of its last entry
    bound = 0
    for entry in entries:
        terms = []
        den = 1
        for n, d, x, y in entry:
            if type(n) is not int or type(d) is not int or d < 1:
                raise ValueError(f"a term needs ints n and d > 0, got {n!r} and {d!r}")
            ix, iy = id(x), id(y)
            ox = ops.get(ix)
            if ox is None:
                ox = ops[ix] = _operand(x, dim)
            oy = ops.get(iy)
            if oy is None:
                oy = ops[iy] = _operand(y, dim)
            if ox[3] + oy[3] > cap and _over_cap(x, y, cap):
                raise _degree_overflow()
            if n and ox[1] and oy[1]:
                d *= x._den * y._den
                if den % d:
                    den = lcm(den, d)
                terms.append((n, d, (ix, iy) if ix < iy else (iy, ix), ox, oy))
        terms = [(n * (den // d), key, ox, oy) for n, d, key, ox, oy in terms]
        for _, key, _, _ in terms:
            last_use[key] = len(batch)
        bound = max(bound, sum(abs(c) * ox[1] * oy[1] for c, _, ox, oy in terms))
        batch.append((den, terms))
    zero = _wrap(dim, {}, 1)
    live = [o for o in ops.values() if o[1]]
    exps = [e for o in live for e in o[0]._num]
    lo = list(map(min, zip(*exps))) if exps else [0] * dim
    hi = list(map(max, zip(*exps))) if exps else [0] * dim
    spans = [2 * (h - l) + 1 for l, h in zip(lo, hi)]
    strides = [prod(spans[i + 1:]) for i in range(dim)]
    need = bound.bit_length() + 1
    width = next((w for w in (8, 16, 32) if w >= need), 64 * ((need + 63) // 64))
    term_pairs = sum(len(ops[i][0]._num) * len(ops[j][0]._num) for i, j in last_use)
    packed = len(last_use) * prod(spans) * width <= _BITS_PER_PAIR * term_pairs
    for o in live:
        o[2] = (sum(n << width * sum(map(mul, map(sub, e, lo), strides))
                    for e, n in o[0]._num.items())
                if packed else _wrap(dim, o[0]._num, 1))
    base = [2 * l for l in lo]  # the exponent of slot 0 of a product
    exponents: dict[int, MultiIndex] = {}  # slot -> exponent, for the slots read so far
    expiring = [[] for _ in batch]
    for key, i in last_use.items():
        expiring[i].append(key)
    made: dict[tuple[int, int], object] = {}
    out = []
    for (den, terms), done in zip(batch, expiring):
        products = []
        for c, key, ox, oy in terms:
            xy = made.get(key)
            if xy is None:
                xy = made[key] = _times(ox, oy)
            products.append((c, xy))
        for key in done:
            del made[key]
        if not packed:
            r = lincomb(dim, products)  # int c times products over 1: over 1
            out.append(_reduce(dim, r._num, den) if r._num else zero)
            continue
        total = sum(c * xy for c, xy in products)
        if not total:
            out.append(zero)
            continue
        num = {}
        for k, c in _unpack(total, width):
            e = exponents.get(k)
            if e is None:
                e = exponents[k] = _slot_exponent(k, strides, base)
            num[e] = c
        out.append(_reduce(dim, num, den))
    return out


# The packed bits that cost as much as one term pair of x * y: per distinct
# product, the packed path does about slots * width bits of int work (the
# multiply, the sums and the unpacking) and the other path one dict update
# per term pair.  On jet brackets at d = 3 the two paths cost the same
# between about 500 bits per term pair (operands of many terms) and 5,000
# (one or two terms, where each x * y costs more than its term pairs); 512
# packs only where packing is faster (BENCH_packed_products.json,
# "layout_choice").
_BITS_PER_PAIR = 512
_WORDS = {8 * memoryview(b"").cast(f).itemsize: f for f in "BHIQ"}  # bits -> word format


def _operand(x: Poly, dim: int) -> list:
    """The record [x, ||x||_1, packed x, degree bound of x] of an operand of
    ``sums_of_products``, packed once the path is chosen: an int, or the
    numerators of x over 1."""
    if x.dim != dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {dim}")
    return [x, sum(map(abs, x._num.values())), 0, x._degree()]


def _times(ox: list, oy: list) -> int | Poly:
    """The one multiply of ``sums_of_products``: two packed operands, or
    two numerator Polys."""
    return ox[2] * oy[2]


def _slot_exponent(k: int, strides: Sequence[int], base: Sequence[int]) -> MultiIndex:
    """The exponent held at slot k of a packed product: its digits in the
    mixed radix of ``strides``, offset by ``base``."""
    e = []
    for s, b in zip(strides, base):
        q, k = divmod(k, s)
        e.append(q + b)
    return tuple(e)


def _unpack(total: int, width: int) -> list[tuple[int, int]]:
    """The pairs (k, c) of the nonzero signed coefficients c, each below
    2^(width - 1) in magnitude, at the slots k of ``width`` bits of a
    nonzero ``total``, in increasing k."""
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
        return [(first + k, w - half) for k, w in enumerate(words) if w != half]
    raw = total.to_bytes(nbytes * count, "little")
    out = []
    for k in range(count):
        w = int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little") - half
        if w:
            out.append((first + k, w))
    return out


# -- parsing -----------------------------------------------------------------

# Compiled on first use by ``parse_poly``, from ``re``'s own pattern cache.
_TOKEN = (
    r"\s*(?:(?P<sign>[+-])|(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)"
    r"(?:\^(?P<exp>-?\d+))?|(?P<mul>\*))"
)


def parse_poly(text: str, dim: int, varname: str = "x") -> Poly:
    """Parse expressions like ``2 * x0^2 x1 - 1/3 * x1^3 + 4``.

    Variables are ``x0 ... x{dim-1}`` (configurable stem); for ``dim == 1``
    the bare stem (e.g. ``z``) is also accepted, with negative exponents
    allowed (Laurent).  Coefficients are integers or fractions ``p/q``.
    """
    pos = 0
    n = len(text)
    # term state
    sign = 1
    coeff: Fraction | None = None
    expo = [0] * dim
    started = False

    def flush():
        nonlocal sign, coeff, expo, started
        if not started:
            return
        c = coeff if coeff is not None else Fraction(1)
        result_terms[tuple(expo)] = result_terms.get(tuple(expo), Fraction(0)) + sign * c
        sign, coeff, expo, started = 1, None, [0] * dim, False

    result_terms: dict[MultiIndex, Fraction] = {}
    token = re.compile(_TOKEN).match
    while pos < n:
        m = token(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            if started:
                flush()
            if m.group("sign") == "-":
                sign = -sign
            continue
        if m.group("num"):
            num = m.group("num")
            try:
                val = Fraction(num)
            except ZeroDivisionError as exc:
                raise ValueError(f"zero denominator in coefficient {num!r}") from exc
            coeff = val if coeff is None else coeff * val
            started = True
            continue
        if m.group("var"):
            name = m.group("var")
            k = int(m.group("exp")) if m.group("exp") else 1
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
            expo[idx] += k
            started = True
            continue
        # bare '*': separator, nothing to do
    flush()
    if any(sum(abs(c) for c in e) > MAX_DEGREE for e in result_terms):
        raise OverflowError("parsed polynomial exceeds the degree cap")
    return Poly(dim, result_terms)


def format_poly(p: Poly, varname: str = "x") -> str:
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
            name = varname if p.dim == 1 else f"{varname}{i}"
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
