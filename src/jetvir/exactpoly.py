"""Exact multivariate Laurent polynomials over the rationals.

A ``Poly`` is a sparse map from integer exponent tuples to ``Fraction``
coefficients.  Ordinary polynomials use non-negative exponents; negative
exponents are permitted so that field components along a closed loop
(Laurent series in the loop parameter) can be handled by the same class.
Operations that only make sense for genuine polynomials (truncation,
differentiation at negative powers never occurs in those paths) check
exponent signs where required.

All arithmetic is exact; no floats appear anywhere.

Every ``Poly`` keeps one invariant: ``terms`` is a plain dict whose keys are
tuples of ``dim`` ints and whose values are nonzero ``Fraction``s.  There
are two ways to build one:

* ``Poly(dim, terms)`` checks and normalises any input: it rejects a wrong
  dimension, non-int exponents and floats, wraps each coefficient in
  ``Fraction``, merges duplicate keys and drops zeros.  ``parse_poly`` and
  the ``constant``/``monomial``/``variable`` constructors go through it, as
  does every caller outside this module.
* ``_wrap(dim, terms)`` takes a dict that already holds the invariant and
  checks nothing.  Only the arithmetic and calculus of ``Poly`` use it, on
  results they compute from valid operands, so nothing built from outside
  input reaches it.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Sequence

from .multiindex import MultiIndex

_DEFAULT_MAX_DEGREE = 64


def _degree_overflow(cap: int) -> OverflowError:
    return OverflowError(f"product exceeds degree cap {cap}; "
                         "raise JETVIR_MAX_DEGREE to allow larger expressions")


def max_degree_cap() -> int:
    """Degree guard for products; configurable via JETVIR_MAX_DEGREE."""
    raw = os.environ.get("JETVIR_MAX_DEGREE")
    if raw is None:
        return _DEFAULT_MAX_DEGREE
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"JETVIR_MAX_DEGREE must be an integer, got {raw!r}") from exc
    if val < 1:
        raise ValueError(f"JETVIR_MAX_DEGREE must be positive, got {val}")
    return val


class Poly:
    """Sparse exact polynomial (Laurent allowed) in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Sequence[int], object] | None = None):
        if dim < 0:
            raise ValueError(f"dimension must be >= 0, got {dim}")
        self.dim = dim
        clean: Dict[MultiIndex, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                e = tuple(expo)
                if len(e) != dim:
                    raise ValueError(f"exponent {e} has wrong dimension (expected {dim})")
                if any(type(c) is not int for c in e):
                    raise ValueError(f"exponents must be integers: {e}")
                if isinstance(coeff, float):
                    raise ValueError(f"coefficients must be exact, got the float {coeff!r}")
                c = Fraction(coeff)
                if c != 0:
                    clean[e] = clean.get(e, Fraction(0)) + c
                    if clean[e] == 0:
                        del clean[e]
        self.terms = clean

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
        if not 0 <= i < dim:
            raise ValueError(f"variable index {i} out of range for dimension {dim}")
        return cls(dim, {tuple(1 if j == i else 0 for j in range(dim)): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_laurent(self) -> bool:
        """True if any exponent is negative."""
        return any(c < 0 for e in self.terms for c in e)

    def coeff(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.dim, Fraction(0))

    # -- arithmetic --------------------------------------------------------

    def _require_same_dim(self, other: "Poly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same_dim(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        return _wrap(self.dim, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._require_same_dim(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s:
                out[e] = s
            else:
                del out[e]
        return _wrap(self.dim, out)

    def __neg__(self) -> "Poly":
        return _wrap(self.dim, {e: -c for e, c in self.terms.items()})

    def scale(self, k) -> "Poly":
        if isinstance(k, float):
            raise ValueError(f"coefficients must be exact, got the float {k!r}")
        k = Fraction(k)
        if not k:
            return _wrap(self.dim, {})
        return _wrap(self.dim, {e: c * k for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._require_same_dim(other)
        cap = max_degree_cap()
        a, b = self.terms, other.terms
        # |e1 + e2| <= |e1| + |e2|: if the largest operand degrees sum to at
        # most the cap, no term pair exceeds it.  Otherwise check each pair,
        # since Laurent exponents can cancel.
        check = (max((sum(map(abs, e)) for e in a), default=0)
                 + max((sum(map(abs, e)) for e in b), default=0)) > cap
        out: Dict[MultiIndex, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                if check and sum(map(abs, e)) > cap:
                    raise _degree_overflow(cap)
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return _wrap(self.dim, {e: c for e, c in out.items() if c})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers of a general polynomial are undefined")
        result = _wrap(self.dim, {(0,) * self.dim: Fraction(1)})
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def deriv(self, mu: int) -> "Poly":
        """Partial derivative with respect to variable mu (Laurent-aware)."""
        if not 0 <= mu < self.dim:
            raise ValueError(f"direction {mu} out of range for dimension {self.dim}")
        # e -> e - e_mu is injective, so no two terms land on one key.
        return _wrap(self.dim, {e[:mu] + (e[mu] - 1,) + e[mu + 1:]: c * e[mu]
                                for e, c in self.terms.items() if e[mu]})

    def deriv_multi(self, m: Sequence[int]) -> "Poly":
        """Repeated partial derivative d^m, one non-negative order per variable."""
        if len(m) != self.dim or min(m, default=0) < 0:
            raise ValueError(f"derivative order {tuple(m)} needs {self.dim} entries >= 0")
        out = self
        for mu, k in enumerate(m):
            for _ in range(k):
                out = out.deriv(mu)
        return out

    def eval(self, point: Sequence) -> Fraction:
        """Evaluate at an exact rational point (no negative exponents at 0)."""
        if len(point) != self.dim:
            raise ValueError(f"point has wrong dimension: {len(point)} vs {self.dim}")
        if any(isinstance(v, float) for v in point):
            raise ValueError(f"coordinates must be exact, got {list(point)!r}")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for x, k in zip(pt, e):
                if k < 0 and x == 0:
                    raise ZeroDivisionError("negative exponent evaluated at zero")
                val *= x ** k
            # accumulate separately to keep the loop simple
            total += val
        return total

    def truncate(self, p: int) -> "Poly":
        """Drop all terms of total degree > p (requires a true polynomial)."""
        if self.is_laurent():
            raise ValueError("truncation is only defined for non-negative exponents")
        return _wrap(self.dim, {e: c for e, c in self.terms.items() if sum(e) <= p})

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
        result = _wrap(tdim, {})
        for e, c in self.terms.items():
            term = _wrap(tdim, {(0,) * tdim: c})
            for i, k in enumerate(e):
                if k >= 0:
                    term = term * (substitutions[i] ** k)
                else:
                    term = term * _monomial_inverse_power(substitutions[i], -k)
            result = result + term
        return result

    # -- formatting ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly(dim={self.dim}, {format_poly(self)!r})"


def _monomial_inverse_power(p: Poly, k: int) -> Poly:
    """(monomial)^(-k); raises if p is not a single monomial."""
    if len(p.terms) != 1:
        raise ValueError(
            "negative exponent composition requires a monomial substitution"
        )
    (e, c), = p.terms.items()
    cap = max_degree_cap()
    if k * sum(abs(x) for x in e) > cap:
        raise _degree_overflow(cap)
    return _wrap(p.dim, {tuple(-k * x for x in e): 1 / c ** k})


def _wrap(dim: int, terms: Dict[MultiIndex, Fraction]) -> Poly:
    """A Poly around ``terms``, which must already hold the invariant of the
    module docstring; nothing is checked or copied."""
    p = object.__new__(Poly)
    p.dim = dim
    p.terms = terms
    return p


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
    if any(sum(abs(c) for c in e) > max_degree_cap() for e in result_terms):
        raise OverflowError("parsed polynomial exceeds the degree cap")
    return Poly(dim, result_terms)


def format_poly(p: Poly, varname: str = "x") -> str:
    """Human-readable exact rendering, inverse-compatible with parse_poly."""
    if not p.terms:
        return "0"
    pieces = []
    for e in sorted(p.terms, key=lambda t: (sum(t), tuple(-c for c in t))):
        c = p.terms[e]
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
