"""Exact scalar arithmetic.

Scalars are elements of the rational function field Q(q, a, b) in the
quantum parameter ``q`` and two evaluation parameters ``a``, ``b``.  Almost
every scalar the program makes is a Laurent polynomial in q, a, b with
integer coefficients, and most others have an integer denominator, so
``Scalar`` holds each value in one of three forms:

* a Laurent polynomial, stored as ``{(i, j, k): int}`` for the terms
  c q^i a^j b^k with nonzero c; its arithmetic needs no gcd;
* a Q-Laurent value n/d: an integer Laurent dict n over an integer
  d >= 2 with gcd(content(n), d) = 1, the sign kept in the terms; its
  arithmetic needs integer gcds only;
* otherwise an element of sympy's field ``ZZ(q,a,b)`` with numerator and
  denominator in canonical reduced form (gcd cancelled, sign-normalised).

Every value has exactly one form: a field result whose reduced
denominator is one monomial is put back in Laurent form (coefficient
+-1) or Q-Laurent form (any other coefficient), so ``==``, ``hash`` and
dict keys compare values.  Division by a +-monomial stays in the ring.
``+``, ``-``, ``*`` and division by a single term keep Q-Laurent and
Laurent operands in Q-Laurent form (``_ratio_op``); any other division, a
negative power of a value that is not a +-monomial, any power of a
Q-Laurent value and every operation with a field operand go through the
field.  A value caches its field form, which mixed operations and
printing use.  On top of the scalars the module provides dense
polynomials in a formal variable ``z`` and truncated one-sided expansions
of their ratios.

The field path of ``+``, ``-``, ``*`` and ``/`` runs through ``_field_op``,
which neither the Laurent nor the Q-Laurent paths reach.  Nothing is
memoised.

sympy is imported by ``_sym`` at the first gcd, parse, print or value that
is neither Laurent nor Q-Laurent: ``appendix-a`` and ``verify-relations``
at an indeterminate ``a`` never load it; the other module suites do at a
content removal (``RowReducer.add``) and ``monoid`` at ``poly_gcd``.

No floating point is used anywhere.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace
from typing import Iterable

_new = object.__new__


@functools.cache
def _sym() -> SimpleNamespace:
    """sympy's ``sympify``, field ZZ(q,a,b), ring ZZ[z,q,a,b] and symbols q, a, b."""
    from sympy import sympify
    from sympy.polys.domains import ZZ
    from sympy.polys.fields import field
    from sympy.polys.rings import ring

    F = field("q,a,b", ZZ)[0]
    return SimpleNamespace(sympify=sympify, field=F, zring=ring("z,q,a,b", ZZ)[0], symbols=set(F.symbols))


class NonExpandable(ValueError):
    """Raised when a ratio violates the preconditions of series expansion."""


def _add(s: dict, t: dict) -> dict:
    if len(s) < len(t):
        s, t = t, s
    out = s.copy()
    get = out.get
    for e, c in t.items():
        c += get(e, 0)
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _sub(s: dict, t: dict) -> dict:
    out = s.copy()
    get = out.get
    for e, c in t.items():
        c = get(e, 0) - c
        if c:
            out[e] = c
        else:
            del out[e]
    return out


def _mul(s: dict, t: dict) -> dict:
    if len(s) > len(t):
        s, t = t, s
    if len(s) == 1:
        ((i, j, k), c), = s.items()
        if not (i or j or k):
            return t if c == 1 else {e: c * d for e, d in t.items()}
        return {(i + x, j + y, k + z): c * d for (x, y, z), d in t.items()}
    out: dict = {}
    get = out.get
    for (i, j, k), c in s.items():
        for (x, y, z), d in t.items():
            e = (i + x, j + y, k + z)
            out[e] = get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _pow(t: dict, n: int) -> dict:
    if len(t) == 1:
        ((i, j, k), c), = t.items()
        return {(i * n, j * n, k * n): c**n}
    out = {(0, 0, 0): 1}
    while n:
        if n & 1:
            out = _mul(out, t)
        n >>= 1
        if n:
            t = _mul(t, t)
    return out


def _unit(t: dict) -> tuple | None:
    """(exponent, sign) when the terms are one monomial with coefficient +-1."""
    if len(t) == 1:
        ((e, c),) = t.items()
        if c == 1 or c == -1:
            return e, c
    return None


class Scalar:
    """An exact element of Q(q, a, b): a Laurent polynomial, a Q-Laurent value or a field element.

    ``_terms`` is the Laurent dict, or None for the other two forms.  When
    it is None, ``_num`` and ``_den`` hold the numerator dict and the
    integer denominator of a Q-Laurent value, or None for a field element;
    a Laurent value leaves them unset.  ``_field`` is the field element, or
    the cached field form of the other two.  No dict or field element is
    ever mutated.
    """

    __slots__ = ("_terms", "_field", "_num", "_den")

    @property
    def numer(self):
        """Numerator of the reduced field form, in sympy's ``ZZ[q,a,b]``."""
        return _field_form(self).numer

    @property
    def denom(self):
        """Denominator of the reduced field form, in sympy's ``ZZ[q,a,b]``."""
        return _field_form(self).denom

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        t = self._terms
        if t is not None:
            return t == other._terms
        if other._terms is not None:
            return False
        n = self._num
        if n is not None:
            return n == other._num and self._den == other._den
        return other._num is None and self._field == other._field

    def __hash__(self) -> int:
        t = self._terms
        if t is not None:
            return hash(frozenset(t.items()))
        n = self._num
        if n is not None:
            return hash((frozenset(n.items()), self._den))
        # not sympy's hash, which some of its in-place products leave stale
        f = self._field
        return hash((frozenset(f.numer.items()), frozenset(f.denom.items())))

    def __bool__(self) -> bool:
        return self._terms != {}

    def __repr__(self) -> str:
        return str(_field_form(self))

    __str__ = __repr__

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        s, t = self._terms, other._terms
        if s is not None and t is not None:
            return _laurent(_add(s, t))
        return _ratio_op(operator.add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _subtract(self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _subtract(other, self)

    def __neg__(self):
        t = self._terms
        if t is not None:
            return _laurent({e: -c for e, c in t.items()})
        n = self._num
        if n is not None:
            return _ratio({e: -c for e, c in n.items()}, self._den)
        return _from_field(-self._field)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        s, t = self._terms, other._terms
        if s is not None and t is not None:
            return _laurent(_mul(s, t))
        return _ratio_op(operator.mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _divide(self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _divide(other, self)

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        t = self._terms
        if t is not None:
            if n > 0 or n == 0 and t:
                return _laurent(_pow(t, n))
            unit = _unit(t)
            if unit is not None:
                (i, j, k), c = unit
                return _laurent({(i * n, j * n, k * n): c**-n})
            if not t:
                raise ZeroDivisionError("zero to a negative power") if n else ValueError("0**0")
        return _from_field(_field_form(self) ** n)


def _laurent(terms: dict) -> Scalar:
    x = _new(Scalar)
    x._terms = terms
    x._field = None
    return x


def _ratio(terms: dict, d: int) -> Scalar:
    """The one form of terms/d, for an integer Laurent dict and an integer d >= 1."""
    g = math.gcd(d, *terms.values())
    if g == d:
        return _laurent({e: c // d for e, c in terms.items()} if d > 1 else terms)
    if g > 1:
        terms = {e: c // g for e, c in terms.items()}
        d //= g
    x = _new(Scalar)
    x._terms = None
    x._field = None
    x._num = terms
    x._den = d
    return x


def _from_field(f) -> Scalar:
    """The one form of a reduced field element.

    sympy cancels the gcd of every result, and makes the denominator's
    leading coefficient positive except after a negative power.
    """
    den = f.denom
    if len(den) == 1:
        ((i, j, k), c), = den.items()
        sign = 1 if c > 0 else -1
        terms = {(r - i, s - j, t - k): sign * v for (r, s, t), v in f.numer.items()}
        x = _laurent(terms) if c == sign else _ratio(terms, sign * c)
        if sign == 1:
            x._field = f
        return x
    if den.LC < 0:
        f = f.raw_new(-f.numer, -den)
    x = _new(Scalar)
    x._terms = None
    x._field = f
    x._num = None
    return x


def _field_form(x: Scalar):
    f = x._field
    if f is None:
        F = _sym().field
        t, d = x._terms, 1
        if t is None:
            t, d = x._num, x._den
        if not t:
            f = F.zero
        else:
            i0 = min(0, min(e[0] for e in t))
            j0 = min(0, min(e[1] for e in t))
            k0 = min(0, min(e[2] for e in t))
            # each shifted variable has an exponent 0 in the numerator and d is prime
            # to its content: coprime.  dtype: the raw constructors (a read of
            # ring.zero builds a polynomial)
            num = F.ring.dtype({(i - i0, j - j0, k - k0): c for (i, j, k), c in t.items()})
            f = F.dtype(num, F.ring.dtype({(-i0, -j0, -k0): d}))
        x._field = f
    return f


def _field_op(op, x: Scalar, y: Scalar) -> Scalar:
    """op(x, y) through the field."""
    return _from_field(op(_field_form(x), _field_form(y)))


def _ratio_parts(x: Scalar) -> tuple:
    """(numerator dict, integer denominator) of a Laurent or Q-Laurent value; (None, 0) else."""
    t = x._terms
    if t is not None:
        return t, 1
    n = x._num
    return (None, 0) if n is None else (n, x._den)


def _ratio_op(op, x: Scalar, y: Scalar) -> Scalar:
    """op(x, y) for operands that are not both Laurent.

    ``+``, ``-``, ``*`` and division by a single term of two Laurent or
    Q-Laurent operands stay in integer arithmetic; anything else goes
    through the field.
    """
    s, d = _ratio_parts(x)
    t, e = _ratio_parts(y)
    if s is not None and t is not None:
        if op is operator.mul:
            return _ratio(_mul(s, t), d * e)
        if op is not operator.truediv:
            g = math.gcd(d, e)
            s = s if e == g else {m: w * (e // g) for m, w in s.items()}
            t = t if d == g else {m: w * (d // g) for m, w in t.items()}
            return _ratio(_add(s, t) if op is operator.add else _sub(s, t), d // g * e)
        if len(t) == 1:
            ((i, j, k), c), = t.items()
            if c < 0:
                c, e = -c, -e
            return _ratio({(r - i, u - j, v - k): w * e for (r, u, v), w in s.items()}, d * c)
    return _field_op(op, x, y)


def _const(n: int) -> Scalar:
    return _laurent({(0, 0, 0): n} if n else {})


def _coerce(value) -> Scalar | None:
    """The scalar of an int operand; None for any other type."""
    return _const(value) if isinstance(value, int) else None


def _subtract(x: Scalar, y: Scalar) -> Scalar:
    s, t = x._terms, y._terms
    if s is not None and t is not None:
        return _laurent(_sub(s, t))
    return _ratio_op(operator.sub, x, y)


def _divide(x: Scalar, y: Scalar) -> Scalar:
    s, t = x._terms, y._terms
    if s is not None and t is not None:
        unit = _unit(t)
        if unit is not None:
            (i, j, k), c = unit
            return _laurent(_mul(s, {(-i, -j, -k): c}))
    return _ratio_op(operator.truediv, x, y)


def _shift(ts: list[dict]) -> tuple[tuple, list[dict]]:
    """The least exponents (i0, j0, k0) of q, a, b over the Laurent dicts ts,
    and ts divided by q^i0 a^j0 b^k0: polynomial terms, ready for sympy rings."""
    i0 = min(e[0] for t in ts for e in t)
    j0 = min(e[1] for t in ts for e in t)
    k0 = min(e[2] for t in ts for e in t)
    return (i0, j0, k0), [{(i - i0, j - j0, k - k0): c for (i, j, k), c in t.items()} for t in ts]


def remove_content(xs: list[Scalar]) -> list[Scalar]:
    """Primitive Laurent values in the ratios of xs.

    Values with denominators are first multiplied by the lcm of their
    reduced denominators; the Laurent values are then divided by their
    greatest common divisor.  Values that are all zero come back
    unchanged, and Laurent values whose gcd is a unit are not divided.
    """
    if any(x._terms is None for x in xs):
        F = _sym().field
        den = F.ring.one
        for x in xs:
            if x._terms is None:
                den = den.lcm(x.denom)
        m = _from_field(F.new(den, F.ring.one))
        xs = [x * m for x in xs]
    ts = [x._terms for x in xs]
    if not any(ts):
        return xs
    (i0, j0, k0), ts = _shift(ts)
    poly = _sym().field.ring.dtype
    polys = [poly(t) for t in ts]
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
        if _unit(g) is not None:  # a unit of the Laurent ring divides out nothing
            return xs
    return [_laurent({(i + i0, j + j0, k + k0): c for (i, j, k), c in p.exquo(g).items()}) for p in polys]


def unit_inverse(x: Scalar) -> Scalar | None:
    """1/x when x is a unit of the Laurent ring (a +-monomial), else None."""
    t = x._terms
    unit = None if t is None else _unit(t)
    if unit is None:
        return None
    (i, j, k), c = unit
    return _laurent({(-i, -j, -k): c})


ZERO = _laurent({})
ONE = _laurent({(0, 0, 0): 1})
q = _laurent({(1, 0, 0): 1})
a = _laurent({(0, 1, 0): 1})
b = _laurent({(0, 0, 1): 1})


def scalar(value) -> Scalar:
    """Coerce an int, Fraction, string or Scalar into the scalar field."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return scalar_from_str(value)
    if isinstance(value, int):
        return _const(value)
    return _from_field(_sym().field(value))


def scalar_from_str(text: str) -> Scalar:
    """Parse a scalar from an expression string in q, a, b."""
    sym = _sym()
    expr = sym.sympify(text.replace("^", "**"), rational=True)
    if not expr.free_symbols <= sym.symbols:
        bad = expr.free_symbols - sym.symbols
        raise ValueError(f"unknown symbols in scalar: {sorted(map(str, bad))}")
    return _from_field(sym.field.from_expr(expr))


def scalar_str(x: Scalar) -> str:
    """Serialise a scalar as ``num/den`` with fixed (lex) monomial order."""
    num, den = x.numer, x.denom
    if den == 1:
        return str(num)
    return f"({num})/({den})"


def qint_base(n: int, base_exp: int) -> Scalar:
    """[n]_u for u = q^base_exp, i.e. (u^n - u^-n)/(u - u^-1).

    Built as the Laurent polynomial sign(n) * sum_k u^(|n|-1-2k), k < |n|.
    """
    if base_exp == 0:
        raise ValueError("base q^0 = 1 has no q-integers")
    sign, m = (1, n) if n >= 0 else (-1, -n)
    return _laurent({(base_exp * (m - 1 - 2 * k), 0, 0): sign for k in range(m)})


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
    """A ZZ[z,q,a,b] representative of a nonzero scalar multiple of p."""
    _, ts = _shift([c._terms for c in remove_content(list(p.coeffs))])
    return _sym().zring.from_dict({(k, *e): c for k, t in enumerate(ts) for e, c in t.items()})


def _from_zring(rp) -> ZPoly:
    coeffs: dict[int, dict] = {}
    for (k, *e), c in rp.items():
        coeffs.setdefault(k, {})[tuple(e)] = c
    return ZPoly(_laurent(coeffs.get(k, {})) for k in range(max(coeffs, default=-1) + 1))


def poly_gcd(p: ZPoly, r: ZPoly) -> ZPoly:
    """Monic-at-0 gcd over the scalar field.

    Computed integrally in ZZ[z,q,a,b] on primitive Laurent multiples of
    both (``remove_content``), then normalised so the constant term is 1
    when nonzero (else the leading coefficient is 1).  gcd(0, 0) is
    rejected.
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


def expand_ratio(c, Q: ZPoly, P: ZPoly, direction: str, order: int) -> tuple:
    """Truncated geometric expansion of c*Q(z)/P(z).

    Direction '+' expands in the power series ring in z and requires
    P(0) = 1; direction '-' expands in z^-1 and requires deg P = deg Q
    with nonzero leading coefficients.  Returns the coefficients of
    z^0 .. z^order resp. z^0 .. z^-order.
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
        return tuple(out)
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
        return tuple(out)
    raise NonExpandable(f"unknown direction {direction!r}")
