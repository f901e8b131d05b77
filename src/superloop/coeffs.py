"""Exact scalar arithmetic.

Scalars are elements of the rational function field Q(q, a, b) in the
quantum parameter ``q`` and two evaluation parameters ``a``, ``b``.  Almost
every scalar the program makes is a Laurent polynomial in q, a, b with
integer coefficients, and most others have an integer denominator, so
``Scalar`` holds each value in one of two forms:

* a ring value n/d: an integer Laurent dict n, ``{(i, j, k): int}`` for
  the terms c q^i a^j b^k with nonzero c, over an integer d >= 1 with
  gcd(content(n), d) = 1, the sign kept in the terms.  d = 1 is a Laurent
  polynomial, whose arithmetic needs no gcd; any other d needs integer
  gcds only;
* otherwise an element of sympy's field ``ZZ(q,a,b)`` with numerator and
  denominator in canonical reduced form (gcd cancelled, sign-normalised).

Every value has exactly one form: a field result whose reduced
denominator is one monomial is put back in ring form, so ``==``, ``hash``
and dict keys compare values.  ``+``, ``-``, ``*``, powers (negative ones
of a single term) and every division whose quotient is a ring value keep
ring operands in the ring (``_ratio_op``, ``__pow__``).  A value caches its
field form, which mixed operations and printing use.  On top of the
scalars the module provides dense polynomials in a formal variable ``z``
and truncated expansions of their ratios in z^-1.

Division of ring values n/d by m/e is n e / (d m).  A single-term m
divides by shifting exponents.  Otherwise m = c p, c its integer content
and p primitive: the Laurent quotient n / p is read off the exact
quotient of the packed integers of n and p (``_laurent_exquo``), and c
joins the integer denominator, so 4096 m' / (18432 (q - q^-1)) with
m' = (q - q^-1) r is (2/9) r.  If p does not divide n, the quotient is
not a ring value (Gauss's lemma), and it goes through the field, as
do any other negative power and every operation with a field operand.

The field path of ``+``, ``-``, ``*`` and ``/`` runs through ``_field_op``,
which the ring paths never reach.  Nothing is memoised.

The gcds of ``remove_content`` and ``poly_gcd`` are taken on integers:
a list with a single-term entry by its integer content, and operands in
one or two live variables by a heuristic gcd on packed Python integers
(``_heugcd``).  Only operands in three or more variables go to sympy.

sympy is imported by ``_sym`` at the first print, value outside the
ring or gcd in three or more variables, so ``appendix-a`` and
``verify-relations`` at an indeterminate ``a`` never load it (README.md
says where each other suite does).  ``scalar_from_str`` reads a point
string by ``ast.parse`` and a whitelist walk in ring arithmetic, so it
needs sympy only for a value such as 1/(q + 1).

No floating point is used anywhere.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import warnings
from types import SimpleNamespace
from typing import Callable, Iterable

_new = object.__new__


@functools.cache
def _sym() -> SimpleNamespace:
    """sympy's field ZZ(q,a,b) and ring ZZ[z,q,a,b]."""
    from sympy.polys.domains import ZZ
    from sympy.polys.fields import field
    from sympy.polys.rings import ring

    F = field("q,a,b", ZZ)[0]
    return SimpleNamespace(field=F, zring=ring("z,q,a,b", ZZ)[0])


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
    """An exact element of Q(q, a, b): a ring value n/d or a field element.

    A ring value has ``_terms``, an integer Laurent dict n, and ``_den``, an
    integer d >= 1 prime to the content of n; the sign sits in the terms and
    d = 1 is a Laurent polynomial.  A field element has ``_terms`` None and
    ``_den`` 0.  ``_field`` is the field element, or the cached field form
    of a ring value.  No dict or field element is ever mutated.
    """

    __slots__ = ("_terms", "_den", "_field")

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
        if self._den != other._den:
            return False
        t = self._terms
        return t == other._terms if t is not None else self._field == other._field

    def __hash__(self) -> int:
        t = self._terms
        if t is not None:
            return hash((frozenset(t.items()), self._den))
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
        if self._den == 1 == other._den:
            return _ring(_add(self._terms, other._terms), 1)
        return _ratio_op(operator.add, self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self._den == 1 == other._den:
            return _ring(_sub(self._terms, other._terms), 1)
        return _ratio_op(operator.sub, self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _ratio_op(operator.sub, other, self)

    def __neg__(self):
        t = self._terms
        if t is not None:
            return _ring({e: -c for e, c in t.items()}, self._den)
        return _from_field(-self._field)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        if self._den == 1 == other._den:
            return _ring(_mul(self._terms, other._terms), 1)
        return _ratio_op(operator.mul, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _ratio_op(operator.truediv, self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else _ratio_op(operator.truediv, other, self)

    def __pow__(self, n):
        if type(n) is not int:
            return NotImplemented
        t, d = self._terms, self._den
        if t is not None:
            # (n/d)^k = n^k/d^k, and content(n^k) = content(n)^k is prime to d^k (Gauss)
            if n > 0 or n == 0 and t:
                return _ring(_pow(t, n), d**n)
            if len(t) == 1:  # (c/d m)^-k = (d/c)^k m^-k
                ((i, j, k), c), = t.items()
                return _ring({(i * n, j * n, k * n): (d if c > 0 else -d) ** -n}, abs(c) ** -n)
            if not t:
                raise ZeroDivisionError("zero to a negative power") if n else ValueError("0**0")
        return _from_field(_field_form(self) ** n)


def _ring(terms: dict, d: int) -> Scalar:
    """The ring value terms/d, for d >= 1 already prime to the content of terms."""
    x = _new(Scalar)
    x._terms = terms
    x._den = d
    x._field = None
    return x


def _ratio(terms: dict, d: int) -> Scalar:
    """The ring value terms/d, for an integer Laurent dict and an integer d >= 1."""
    if d > 1:
        g = math.gcd(d, *terms.values())
        if g > 1:
            terms = {e: c // g for e, c in terms.items()}
            d //= g
    return _ring(terms, d)


def _from_field(f) -> Scalar:
    """The one form of a reduced field element.

    sympy cancels the gcd of every result, and makes the denominator's
    leading coefficient positive except after a negative power.
    """
    den = f.denom
    if len(den) == 1:
        ((i, j, k), c), = den.items()
        sign = 1 if c > 0 else -1
        x = _ratio({(r - i, s - j, t - k): sign * v for (r, s, t), v in f.numer.items()}, sign * c)
        if sign == 1:
            x._field = f
        return x
    if den.LC < 0:
        f = f.raw_new(-f.numer, -den)
    x = _new(Scalar)
    x._terms = None
    x._den = 0
    x._field = f
    return x


def _field_form(x: Scalar):
    f = x._field
    if f is None:
        F = _sym().field
        t = x._terms
        if not t:
            f = F.zero
        else:
            i0, j0, k0 = (min(0, *(e[v] for e in t)) for v in range(3))
            # each shifted variable has an exponent 0 in the numerator and d is prime
            # to its content: coprime.  dtype: the raw constructors (a read of
            # ring.zero builds a polynomial)
            num = F.ring.dtype({(i - i0, j - j0, k - k0): c for (i, j, k), c in t.items()})
            f = F.dtype(num, F.ring.dtype({(-i0, -j0, -k0): x._den}))
        x._field = f
    return f


def _field_op(op, x: Scalar, y: Scalar) -> Scalar:
    """op(x, y) through the field."""
    return _from_field(op(_field_form(x), _field_form(y)))


def _ratio_op(op, x: Scalar, y: Scalar) -> Scalar:
    """op(x, y) for operands that are not both Laurent, and for every division.

    ``+``, ``-``, ``*`` and every exact division of two ring values stay in
    integer arithmetic: n/d over m/e is (n/m)(e/d), and n/m is read off the
    packed quotient of n by the primitive part of m, whose integer content
    joins the denominator (``_laurent_exquo``).  Anything else goes through
    the field.
    """
    s, t = x._terms, y._terms
    if s is not None and t is not None:
        d, e = x._den, y._den
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
        if not t:
            raise ZeroDivisionError("division by zero")
        if not s:
            return x
        found = _laurent_exquo(s, t)
        if found is not None:
            n, c = found
            return _ratio({m: w * e for m, w in n.items()}, d * c)
    return _field_op(op, x, y)


def _const(n: int) -> Scalar:
    return _ring({(0, 0, 0): n} if n else {}, 1)


def _coerce(value) -> Scalar | None:
    """The scalar of an int operand; None for any other type."""
    return _const(value) if isinstance(value, int) else None


def _shift(ts: list[dict]) -> tuple[tuple, list[dict]]:
    """The least exponents (i0, j0, k0) of q, a, b over the Laurent dicts ts,
    and ts divided by q^i0 a^j0 b^k0: polynomial terms, ready for sympy rings."""
    i0, j0, k0 = (min(e[v] for t in ts for e in t) for v in range(3))
    return (i0, j0, k0), [{(i - i0, j - j0, k - k0): c for (i, j, k), c in t.items()} for t in ts]


# -- GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989) on packed integers --
#
# A polynomial in its live variables (outermost first) is a flat coefficient
# list: the exponent of each inner variable is one digit of a mixed-radix
# index, in a radix above its degree (no radix: one variable).  Packing it
# at 2^s is evaluation of each variable at 2^s to the power of its index
# step times s: a ring homomorphism, so h | f implies pack(h) | pack(f).


def _pack(cs: list[int], s: int) -> int:
    """The value of the flat list cs at 2^s.

    Two halves are joined by one shift, so each level of the recursion
    touches every bit once (Horner's rule, one shift per entry, takes
    time quadratic in the length).
    """
    if len(cs) <= 32:
        return sum(c << i * s for i, c in enumerate(cs) if c)
    mid = len(cs) // 2
    return _pack(cs[:mid], s) + (_pack(cs[mid:], s) << mid * s)


def _digits(v: int, s: int) -> list[int]:
    """The balanced base-2^s digits of v, in [-2^(s-1), 2^(s-1)), least first: the inverse of _pack.

    Adding B = 2^(s-1) (1 + 2^s + ... + 2^(s(n-1))) shifts every one of n
    balanced digits into [0, 2^s), so they are read off the binary string
    of v + B without carries; n digits hold every |v| < 2^(s(n-1)-1).
    """
    if not v:
        return []
    half = 1 << (s - 1)
    n = abs(v).bit_length() // s + 2
    bits = format(v + half * ((1 << s * n) - 1) // ((1 << s) - 1), f"0{s * n}b")
    out = [int(bits[i - s:i], 2) - half for i in range(s * n, 0, -s)]
    while not out[-1]:
        out.pop()
    return out


def _steps(radices: tuple) -> list[int]:
    """The index step of each live variable, outermost first: the product of the radices after it."""
    steps = [1]
    for R in reversed(radices):
        steps.append(steps[-1] * R)
    return steps[::-1]


def _fits(h: list[int], cof: list[int], radices: tuple) -> bool:
    """deg h + deg cof stays below the radix in every inner variable: no index carries."""
    for R, step in zip(radices, _steps(radices)[1:]):
        if sum(max(i // step % R for i, c in enumerate(f) if c) for f in (h, cof)) >= R:
            return False
    return True


def _exquo(f: list[int], h: list[int], radices: tuple) -> list[int] | None:
    """f / h for nonzero flat polynomials when h divides f, else None.

    cof is read from the exact quotient of the packed values, so that
    pack(h) * pack(cof) == pack(f).  That identity is one of polynomials
    when the base cannot carry: 2^(t-1) exceeds |f| and the bound
    min(len) |h| |cof| on the coefficients of h * cof (max norms), and
    deg h + deg cof stays below the radix in every inner variable.  Only
    then is cof accepted.
    """
    nf, nh = max(map(abs, f)), max(map(abs, h))
    t = (max(nf, nh) * len(f)).bit_length() + 2
    for _ in range(4):
        quo, r = divmod(_pack(f, t), _pack(h, t))
        if r:
            return None
        cof = _digits(quo, t)
        bound = max(nf, min(len(h), len(cof)) * nh * max(map(abs, cof))).bit_length()
        if bound < t and _fits(h, cof, radices):
            return cof
        t = max(bound, t) + 2
    return None


def _heu(fs: list[list[int]], radices: tuple) -> tuple[list[int], list[list[int]]] | None:
    """The gcd of nonzero flat polynomials in at most two variables, leading
    coefficient positive, and their cofactors; None when six values of xi fail.

    The gcd is c v^m g: c the gcd of the integer contents, v the variable
    evaluated here (y, the inner one of radix R, or x with no radix), v^m
    the least power of v in the fs and g the gcd of the primitive parts p
    without their powers of v.  v is set to xi = 2^s > 2 |p| + 2 (max norm,
    of the p with the least); the images are integers, or with a radix
    polynomials in x whose gcd the one-variable lane gives, and g's
    candidate h is the primitive part of the balanced xi-adic digits of
    their gcd.  If h divides every p, h = g: g = h k, and k at v = xi
    divides the content of the digits, so it is a constant of size at most
    xi/2.  The lowest and the highest coefficients of k in x (k itself with
    no radix) divide those of a p, whose roots lie below 1 + |p| (Cauchy),
    so neither can exceed xi/2 at xi or vanish there: both are constants,
    and of x^0, so k is a constant, +-1 as g is primitive.  Without the
    contents and powers of v, a power of 2 in the constant term of a p
    stays below 2^s and cannot pose as a power of v.
    """
    R = radices[0] if radices else 1
    cs = [math.gcd(*f) for f in fs]
    c = math.gcd(*cs)
    vs = [min(i % R if R > 1 else i for i, x in enumerate(f) if x) for f in fs]
    m = min(vs)
    ps = [[x // k for x in f[v:]] for f, k, v in zip(fs, cs, vs)]
    s = (2 * min(max(map(abs, p)) for p in ps) + 29).bit_length()
    for _ in range(6):
        if R == 1:
            h = _digits(math.gcd(*(_pack(p, s) for p in ps)), s)
        else:
            images = [[_pack(p[i:i + R], s) for i in range(0, len(p), R)] for p in ps]
            found = _heu([g for g in images if any(g)], ())
            if found is None:
                return None
            blocks = [_digits(v, s) for v in found[0]]
            h = []
            for i, ds in enumerate(blocks):
                h += [0] * (i * R - len(h)) + ds
            if max(map(len, blocks)) > R:
                h = []  # the digits overrun the radix: no divisor
        if h:
            k = math.gcd(*h)
            if h == [k]:
                return [0] * m + [c], [[x // c for x in f[m:]] for f in fs]
            h = [0] * m + [c * x // k for x in h]
            cofs = []
            for f in fs:
                cof = _exquo(f, h, radices)
                if cof is None:
                    break
                cofs.append(cof)
            else:
                return h, cofs
        s += s // 4 + 2
    return None


def _flatten(ps: list[dict], live: list[int]) -> tuple[list[list[int]], tuple, Callable]:
    """Nonzero integer polynomial dicts as flat lists over the variables ``live``
    (outermost first, every other exponent 0), the radices of the inner ones,
    each 1 + the variable's greatest exponent, and the map of a flat list back
    to a dict."""
    n = len(next(iter(ps[0])))
    radices = tuple(1 + max(e[v] for p in ps for e in p) for v in live[1:])
    steps = dict(zip(live, _steps(radices)))
    weights = [steps.get(v, 0) for v in range(n)]
    fs = []
    for p in ps:
        keys = [sum(map(operator.mul, e, weights)) for e in p]
        f = [0] * (1 + max(keys))
        for i, c in zip(keys, p.values()):
            f[i] = c
        fs.append(f)

    def back(f: list[int]) -> dict:
        out = {}
        for i, c in enumerate(f):
            if c:
                e = [0] * n
                for v, step in steps.items():
                    e[v], i = divmod(i, step)
                out[tuple(e)] = c
        return out

    return fs, radices, back


def _heugcd(ps: list[dict]) -> tuple[dict, Iterable[dict]] | None:
    """The gcd of integer polynomial dicts, not all zero, and their cofactors by
    GCDHEU; None when three or more variables occur or the heuristic fails.

    The live variables x, y are those with a nonzero exponent; the gcd has
    a positive coefficient at its greatest exponent of x, and of y there.
    """
    n = len(next(iter(next(p for p in ps if p))))
    live = [v for v in range(n) if any(e[v] for p in ps for e in p)]
    if len(live) > 2:
        return None
    fs, radices, back = _flatten(list(filter(None, ps)), live)
    found = _heu(fs, radices)
    if found is None:
        return None
    g, cofs = found
    cofs = iter(cofs)
    return back(g), (back(next(cofs)) if p else {} for p in ps)  # read only when used


def _laurent_exquo(s: dict, t: dict) -> tuple[dict, int] | None:
    """(n, c) with s / t = n / c for nonzero integer Laurent dicts, c >= 1 the
    integer content of t, when t / c divides s in the Laurent ring; else None.

    Both are shifted to polynomials with no monomial factor, so t / c divides
    s exactly when it divides the shifted s as a polynomial (``_exquo``).
    """
    c = math.gcd(*t.values())
    (i0, j0, k0), (f,) = _shift([s])
    (i1, j1, k1), (h,) = _shift([{e: w // c for e, w in t.items()}])
    live = [v for v in range(3) if any(e[v] for p in (f, h) for e in p)]
    (f, h), radices, back = _flatten([f, h], live)
    cof = _exquo(f, h, radices)
    if cof is None:
        return None
    i0, j0, k0 = i0 - i1, j0 - j1, k0 - k1
    return {(i + i0, j + j0, k + k0): w for (i, j, k), w in back(cof).items()}, c


def _sympy_gcd(ps: list[dict]) -> tuple:
    """The gcd of integer polynomial dicts in sympy's ZZ[q,a,b], or ZZ[z,q,a,b] for
    four exponents, and the cofactors, None at a unit: the route for three or
    more live variables and for a failed heuristic."""
    sym = _sym()
    ring = sym.field.ring if len(next(iter(next(p for p in ps if p)))) == 3 else sym.zring
    polys = [ring.dtype(p) for p in ps]
    g = polys[0]
    for p in polys[1:]:
        g = g.gcd(p)
        if _unit(g) is not None:  # a unit of the Laurent ring divides out nothing
            return g, None
    return g, [p.exquo(g) for p in polys]


def remove_content(xs: list[Scalar]) -> list[Scalar]:
    """Primitive Laurent values in the ratios of xs.

    Values with denominators are first multiplied by the lcm of their
    reduced denominators, taken in integers unless one of them is a field
    element; the Laurent values are then divided by their
    greatest common divisor.  Values that are all zero come back
    unchanged, and Laurent values whose gcd is a unit are not divided.
    When one value is a single term the gcd is the integer content; other
    gcds in one or two variables are taken by ``_heugcd`` and the rest by
    sympy, so a quotient may differ from sympy's in sign.
    """
    dens = [x for x in xs if x._den != 1]
    if dens:
        if all(x._den for x in dens):
            # the field form of n/d has denominator d q^-i0 a^-j0 b^-k0 (i0 = min(0, the
            # least q exponent of n), ...), so the lcm is lcm(d) times the largest shifts
            shift = tuple(max(0, -min(e[v] for x in dens for e in x._terms)) for v in range(3))
            m = _ring({shift: math.lcm(*(x._den for x in dens))}, 1)
        else:
            F = _sym().field
            den = F.ring.one
            for x in dens:
                den = den.lcm(x.denom)
            m = _from_field(F.new(den, F.ring.one))
        xs = [x * m for x in xs]
    ts = [x._terms for x in xs]
    if not any(ts):
        return xs
    if any(len(t) == 1 for t in ts):  # a term c m among them: the Laurent gcd is the integer content
        g = math.gcd(*(c for t in ts for c in t.values()))
        return xs if g == 1 else [_ring({e: c // g for e, c in t.items()}, 1) for t in ts]
    (i0, j0, k0), ts = _shift(ts)
    g, cofs = _heugcd(ts) or _sympy_gcd(ts)
    if _unit(g) is not None:  # a unit of the Laurent ring divides out nothing
        return xs
    return [_ring({(i + i0, j + j0, k + k0): c for (i, j, k), c in p.items()}, 1) for p in cofs]


def unit_inverse(x: Scalar) -> Scalar | None:
    """1/x when x is a unit of the Laurent ring (a +-monomial), else None."""
    unit = _unit(x._terms) if x._den == 1 else None
    if unit is None:
        return None
    (i, j, k), c = unit
    return _ring({(-i, -j, -k): c}, 1)


def term_count(x: Scalar) -> int:
    """The number of terms x is written with: those of n for a ring value n/d, those of
    numerator and denominator for a field value.  Builds no field form."""
    t = x._terms
    if t is not None:
        return len(t)
    f = x._field
    return len(f.numer) + len(f.denom)


ZERO = _ring({}, 1)
ONE = _ring({(0, 0, 0): 1}, 1)
q = _ring({(1, 0, 0): 1}, 1)
a = _ring({(0, 1, 0): 1}, 1)
b = _ring({(0, 0, 1): 1}, 1)


def scalar(value) -> Scalar:
    """An int, a point string (``scalar_from_str``) or a Scalar as a scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, str):
        return scalar_from_str(value)
    if isinstance(value, int):
        return _const(value)
    raise TypeError(f"cannot make a scalar of {type(value).__name__}")


_MAX_TERMS, _MAX_BITS = 1000, 10_000  # 10,000 bits print as 3,011 digits, within str()'s limit


def _power(x: Scalar, y: Scalar) -> Scalar:
    """x^n for an integer y = n, refused unbuilt if for |n| >= 2 a part of x (numerator or
    denominator) can give prod_v (|n| span_v + 1) > _MAX_TERMS terms, span_v the exponent
    range of v, or coefficients of |n| bitlen(sum |c| - 1) > _MAX_BITS bits."""
    t = y._terms
    if t is None or y._den != 1 or t.keys() - {(0, 0, 0)}:
        raise ValueError("exponents in a scalar must be integers")
    n = t.get((0, 0, 0), 0)
    k = abs(n) if abs(n) >= 2 else 0  # x^0 and x^+-1 are no bigger than x
    for part in (x._terms, {(0, 0, 0): x._den}) if x._den else (x._field.numer, x._field.denom):
        if part and (math.prod(k * (max(e) - min(e)) + 1 for e in zip(*part)) > _MAX_TERMS
                     or k * (sum(map(abs, part.values())) - 1).bit_length() > _MAX_BITS):
            raise ValueError(f"the power {n} in scalar is too big to build")
    return x**n


_NAMES = {"q": q, "a": a, "b": b}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
        ast.Pow: _power, ast.UAdd: lambda x: x, ast.USub: operator.neg}


def _walk(node: ast.AST) -> Scalar:
    """The value of a parsed point string; a node off the whitelist is refused, by name."""
    op = _OPS.get(type(getattr(node, "op", None)))
    if op and type(node) is ast.BinOp:
        return op(_walk(node.left), _walk(node.right))
    if op and type(node) is ast.UnaryOp:
        return op(_walk(node.operand))
    if type(node) is ast.Constant and type(node.value) is int:
        return _const(node.value)
    if type(node) is ast.Name and node.id in _NAMES:
        return _NAMES[node.id]
    kind = type(getattr(node, "op", node)).__name__
    raise ValueError(f"unexpected {kind} {ast.unparse(node)!r} in scalar")


def scalar_from_str(text: str) -> Scalar:
    """Parse a point string, an expression in q, a and b with ``^`` meaning ``**``.

    ``ast.parse`` reads it without running anything, so precedence and
    literals are Python's; ``_walk`` evaluates integers, q, a, b, ``+ - * /
    **`` and unary ``+ -`` and refuses the rest.  A value with a coefficient
    or denominator larger than 2^``_MAX_BITS``, the power guard's bound, is
    refused too, so every value read can be printed.  Every bad string raises ``ValueError``, and
    parser warnings are not shown.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = _walk(ast.parse(text.strip().replace("^", "**"), mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as exc:  # the last two: nested too deeply
        raise ValueError(f"{getattr(exc, 'msg', 'nested too deeply')} in scalar") from exc
    except ZeroDivisionError as exc:
        raise ValueError(f"division by zero in scalar: {exc}") from exc
    parts = (x._terms.values(), (x._den,)) if x._den else (x._field.numer.values(), x._field.denom.values())
    if any(abs(c) > 1 << _MAX_BITS for part in parts for c in part):
        raise ValueError(f"a coefficient in scalar is larger than 2^{_MAX_BITS}")
    return x


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
    return _ring({(base_exp * (m - 1 - 2 * k), 0, 0): sign for k in range(m)}, 1)


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

    def __add__(self, other: "ZPoly") -> "ZPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return ZPoly(self.coeff(k) + other.coeff(k) for k in range(n))

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


def _zdict(p: ZPoly) -> dict:
    """{(k, i, j, l): c} for the terms c z^k q^i a^j b^l of a primitive
    polynomial multiple of p in Z[z, q, a, b]."""
    _, ts = _shift([c._terms for c in remove_content(list(p.coeffs))])
    return {(k, *e): c for k, t in enumerate(ts) for e, c in t.items()}


def poly_gcd(p: ZPoly, r: ZPoly) -> ZPoly:
    """Monic-at-0 gcd over the scalar field.

    Computed integrally in Z[z,q,a,b] on primitive Laurent multiples of
    both (``remove_content``), by ``_heugcd`` in one or two variables and
    by sympy otherwise, then normalised so the constant term is 1 when
    nonzero (else the leading coefficient is 1).  gcd(0, 0) is rejected.
    """
    if p.is_zero() and r.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero() or r.is_zero():
        x = r if p.is_zero() else p
    else:
        fs = [_zdict(p), _zdict(r)]
        coeffs: dict[int, dict] = {}
        for (k, *e), c in (_heugcd(fs) or _sympy_gcd(fs))[0].items():
            coeffs.setdefault(k, {})[tuple(e)] = c
        x = ZPoly(_ring(coeffs.get(k, {}), 1) for k in range(max(coeffs) + 1))
    c0 = x.coeff(0)
    unit = c0 if c0 != ZERO else x.coeffs[-1]
    return x.scale(ONE / unit)


def expand_ratio(c, Q: ZPoly, P: ZPoly, order: int) -> tuple:
    """Truncated expansion of c*Q(z)/P(z) in z^-1.

    Requires deg P = deg Q with nonzero leading coefficients.  Returns the
    coefficients of z^0 .. z^-order.
    """
    c = scalar(c)
    if order < 0:
        raise NonExpandable("order must be nonnegative")
    if P.is_zero() or P.degree != Q.degree:
        raise NonExpandable("expansion in z^-1 needs deg P = deg Q, both nonzero")
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
