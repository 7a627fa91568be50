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

Only the arithmetic and calculus of ``Poly`` use the last two, on results
they compute from valid operands, so nothing built from outside input
reaches them.  A product multiplies int numerators term by term into one
dict over the product of the two denominators and reduces once; every
product in the package, matrix products included, goes through ``*``.
``jetreps`` multiplies primitive parts (int numerators with gcd 1 over 1)
and makes each distinct such product once per bracket; that product is
primitive again (Gauss's lemma), comes out over 1 and skips the gcd pass.
``lincomb(dim, pairs)`` is the one kernel for linear combinations: all
numerators go into one dict over the lcm of the scaled denominators, reduced
once.  Every sum, difference, negation and scaling is one ``lincomb``, and so
is the sum over terms of a composition.  Each ``Poly`` also keeps its degree
bound max |e| once it is first needed; products, inverse powers and parsed
terms are capped at total degree ``MAX_DEGREE``.  ``check_field`` is the one
check of a field argument of the package: its component count and variables.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .multiindex import MultiIndex, check_direction, check_int


def exact(value) -> Fraction:
    """``value`` as a Fraction; a float, which would carry its binary
    rounding error into the exact arithmetic, raises ValueError."""
    if isinstance(value, float):
        raise ValueError(f"values must be exact, got the float {value!r}")
    return Fraction(value)


MAX_DEGREE = 64  # the total-degree cap, a guard against runaway input


def _degree_overflow() -> OverflowError:
    return OverflowError(f"product exceeds degree cap {MAX_DEGREE}")


class Poly:
    """Sparse exact polynomial (Laurent allowed) in ``dim`` variables."""

    __slots__ = ("dim", "_num", "_den", "_deg")

    def __init__(self, dim: int, terms: Mapping[Sequence[int], object] | None = None):
        check_int("dimension", dim, 0)
        clean: Dict[MultiIndex, Fraction] = {}
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
    def terms(self) -> Dict[MultiIndex, Fraction]:
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

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((0,) * self.dim, 0), self._den)

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
        # |e1 + e2| <= |e1| + |e2|: if the largest operand degrees sum to at
        # most the cap, no term pair exceeds it.  Otherwise check each pair,
        # since Laurent exponents can cancel.
        check = self._degree() + other._degree() > cap
        out: Dict[MultiIndex, int] = {}
        get = out.get
        for e1, n1 in a.items():
            for e2, n2 in b.items():
                e = tuple(map(add, e1, e2))
                if check and sum(map(abs, e)) > cap:
                    raise _degree_overflow()
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
        powers: Dict[Tuple[int, int], Poly] = {}
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


def _wrap(dim: int, num: Dict[MultiIndex, int], den: int) -> Poly:
    """A Poly around ``num`` over ``den``, which must already be in the
    canonical form of the module docstring; nothing is checked or copied."""
    p = object.__new__(Poly)
    p.dim = dim
    p._num = num
    p._den = den
    p._deg = -1
    return p


def _reduce(dim: int, num: Dict[MultiIndex, int], den: int) -> Poly:
    """The canonical Poly num / den, for nonzero int numerators and an int
    den > 0: one gcd pass over the numerators and the denominator."""
    if den == 1:
        return _wrap(dim, num, 1)
    g = gcd(den, *num.values())
    if g == 1:
        return _wrap(dim, num, den)
    return _wrap(dim, {e: n // g for e, n in num.items()}, den // g)


def lincomb(dim: int, pairs: Iterable[Tuple[object, Poly]]) -> Poly:
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
    out: Dict[MultiIndex, int] = {}
    get = out.get
    for cn, pd, p in scaled:
        f = cn * (den // pd)
        for e, n in p._num.items():
            out[e] = get(e, 0) + n * f
    return _reduce(dim, {e: n for e, n in out.items() if n}, den)


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
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

    result_terms: Dict[MultiIndex, Fraction] = {}
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
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
