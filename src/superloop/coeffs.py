"""Exact scalar arithmetic.

Scalars are rational functions in the quantum parameter ``q`` and two
evaluation parameters ``a``, ``b``, with integer polynomial numerator and
denominator kept in canonical reduced form (gcd cancelled, sign-normalised).
On top of the scalar field the module provides dense polynomials and
truncated one-sided Laurent series in a formal variable ``z``.

No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import sympy
from sympy.polys.domains import ZZ
from sympy.polys.fields import field
from sympy.polys.rings import ring

_FIELD, q, a, b = field("q,a,b", ZZ)
_ZRING, _Z, _RQ, _RA, _RB = ring("z,q,a,b", ZZ)

#: The type of every exact scalar in this package.
Scalar = type(q)

ZERO = _FIELD.zero
ONE = _FIELD.one

_ALLOWED_SYMBOLS = set(sympy.symbols("q a b"))


class NonExpandable(ValueError):
    """Raised when a ratio violates the preconditions of series expansion."""


def scalar(value) -> Scalar:
    """Coerce an int, Fraction, string or Scalar into the scalar field."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return scalar_from_str(value)
    return _FIELD(value)


def scalar_from_str(text: str) -> Scalar:
    """Parse a scalar from an expression string in q, a, b."""
    expr = sympy.sympify(text.replace("^", "**"), rational=True)
    if not expr.free_symbols <= _ALLOWED_SYMBOLS:
        bad = expr.free_symbols - _ALLOWED_SYMBOLS
        raise ValueError(f"unknown symbols in scalar: {sorted(map(str, bad))}")
    return _FIELD.from_expr(expr)


def scalar_str(x: Scalar) -> str:
    """Serialise a scalar as ``num/den`` with fixed (lex) monomial order."""
    num, den = x.numer, x.denom
    if den == _FIELD.ring.one:
        return str(num)
    return f"({num})/({den})"


def qint_base(n: int, base_exp: int) -> Scalar:
    """[n]_u for u = q^base_exp, i.e. (u^n - u^-n)/(u - u^-1)."""
    if base_exp == 0:
        raise ValueError("base q^0 = 1 has no q-integers")
    if n == 0:
        return ZERO
    return (q ** (base_exp * n) - q ** (-base_exp * n)) / (q**base_exp - q ** (-base_exp))


class ZPoly:
    """Dense polynomial in z over the scalar field, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [scalar(c) for c in coeffs]
        while cs and cs[-1] == ZERO:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "ZPoly":
        return cls(())

    @classmethod
    def one(cls) -> "ZPoly":
        return cls((ONE,))

    @classmethod
    def z(cls) -> "ZPoly":
        return cls((ZERO, ONE))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "ZPoly") -> "ZPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ZPoly(self.coeff(k) + other.coeff(k) for k in range(n))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ZPoly(self.coeff(k) - other.coeff(k) for k in range(n))

    def __neg__(self) -> "ZPoly":
        return ZPoly(-c for c in self.coeffs)

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        if self.is_zero() or other.is_zero():
            return ZPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == ZERO:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return ZPoly(out)

    def scale(self, s) -> "ZPoly":
        s = scalar(s)
        return ZPoly(s * c for c in self.coeffs)

    def scale_arg(self, s) -> "ZPoly":
        """P(s*z)."""
        s = scalar(s)
        return ZPoly(c * s**k for k, c in enumerate(self.coeffs))

    def compose(self, other: "ZPoly") -> "ZPoly":
        """P(other(z)) by Horner's rule."""
        out = ZPoly.zero()
        for c in reversed(self.coeffs):
            out = out * other + ZPoly((c,))
        return out

    def reciprocal(self) -> "ZPoly":
        """z^deg * P(1/z)."""
        return ZPoly(tuple(reversed(self.coeffs)))

    def divmod(self, other: "ZPoly") -> tuple["ZPoly", "ZPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [ZERO] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        while len(rem) >= len(other.coeffs) and rem:
            factor = rem[-1] / lead
            shift = len(rem) - len(other.coeffs)
            quot[shift] = factor
            for k, c in enumerate(other.coeffs):
                rem[shift + k] -= factor * c
            while rem and rem[-1] == ZERO:
                rem.pop()
        return ZPoly(quot), ZPoly(rem)

    def __repr__(self) -> str:
        if self.is_zero():
            return "ZPoly(0)"
        parts = [f"({scalar_str(c)})*z^{k}" for k, c in enumerate(self.coeffs) if c != ZERO]
        return "ZPoly(" + " + ".join(parts) + ")"

    def to_json(self) -> list[str]:
        return [scalar_str(c) for c in self.coeffs]


def _to_zring(p: ZPoly):
    """Clear denominators: a ZZ[z,q,a,b] representative of a scalar multiple."""
    den = _FIELD.ring.one
    for c in p.coeffs:
        g = den.gcd(c.denom)
        den = den * c.denom.exquo(g)
    out = _ZRING.zero
    for k, c in enumerate(p.coeffs):
        if c == ZERO:
            continue
        num = c.numer * den.exquo(c.denom)
        out += _ZRING.from_dict({(k,) + mono: coeff for mono, coeff in num.terms()})
    return out


def _from_zring(rp) -> ZPoly:
    coeffs: dict[int, dict] = {}
    for mono, coeff in rp.terms():
        coeffs.setdefault(mono[0], {})[mono[1:]] = coeff
    top = max(coeffs) if coeffs else -1
    out = []
    for k in range(top + 1):
        num = _FIELD.ring.from_dict(coeffs.get(k, {}))
        out.append(_FIELD.new(num, _FIELD.ring.one))
    return ZPoly(out)


def poly_gcd(p: ZPoly, r: ZPoly) -> ZPoly:
    """Monic-at-0 gcd over the scalar field.

    Computed integrally in ZZ[z,q,a,b] after clearing denominators, then
    normalised so the constant term is 1 when nonzero (else the leading
    coefficient is 1).  gcd(0, 0) is rejected.
    """
    if p.is_zero() and r.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero() or r.is_zero():
        x = r if p.is_zero() else p
    else:
        x = _from_zring(_to_zring(p).gcd(_to_zring(r)))
    c0 = x.coeff(0)
    unit = c0 if c0 != ZERO else x.coeffs[-1]
    return x.scale(ONE / unit)


def poly_coprime(p: ZPoly, r: ZPoly) -> bool:
    return poly_gcd(p, r).degree == 0


@dataclass(frozen=True)
class ZSeries:
    """Truncated power series in z (direction '+') or z^-1 (direction '-').

    ``coeffs[k]`` is the coefficient of z^k resp. z^-k; nothing beyond
    ``order`` is ever read or trusted.
    """

    direction: str
    order: int
    coeffs: tuple

    def __post_init__(self):
        if self.direction not in ("+", "-"):
            raise ValueError("direction must be '+' or '-'")
        if self.order < 0 or len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient list must cover exactly 0..order")

    def coeff(self, k: int) -> Scalar:
        """Coefficient of z^k (plus) or z^-k (minus), 0 <= k <= order."""
        if not 0 <= k <= self.order:
            raise IndexError(f"series truncated at order {self.order}")
        return self.coeffs[k]


def expand_ratio(c, Q: ZPoly, P: ZPoly, direction: str, order: int) -> ZSeries:
    """Truncated geometric expansion of c*Q(z)/P(z).

    Direction '+' expands in the power series ring in z and requires
    P(0) = 1; direction '-' expands in z^-1 and requires deg P = deg Q
    with nonzero leading coefficients.
    """
    c = scalar(c)
    if order < 0:
        raise NonExpandable("order must be nonnegative")
    if direction == "+":
        if P.coeff(0) != ONE:
            raise NonExpandable("plus-direction expansion needs P(0) = 1")
        out = []
        for n in range(order + 1):
            s = c * Q.coeff(n)
            for k in range(1, n + 1):
                s -= P.coeff(k) * out[n - k]
            out.append(s)
        return ZSeries("+", order, tuple(out))
    if direction == "-":
        if P.is_zero() or P.degree != Q.degree:
            raise NonExpandable("minus-direction expansion needs deg P = deg Q, both nonzero")
        d = P.degree
        prev = list(reversed(P.coeffs))
        qrev = list(reversed(Q.coeffs))
        lead = prev[0]
        out = []
        for n in range(order + 1):
            s = c * (qrev[n] if n <= d else ZERO)
            for k in range(1, n + 1):
                pk = prev[k] if k <= d else ZERO
                s -= pk * out[n - k]
            out.append(s / lead)
        return ZSeries("-", order, tuple(out))
    raise NonExpandable(f"unknown direction {direction!r}")
