import ast
import contextlib
import operator
import random
import warnings

import pytest
from helpers import SRC, count_field_ops, run_fresh
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.fields import field
from sympy.polys.rings import ring

from superloop import coeffs
from superloop.coeffs import (
    NonExpandable,
    ONE,
    ZERO,
    ZPoly,
    a,
    b,
    expand_ratio,
    poly_gcd,
    q,
    qint_base,
    remove_content,
    scalar,
    scalar_from_str,
    scalar_str,
    unit_inverse,
)


def test_qint_examples():
    assert qint_base(1, 1) == ONE
    assert qint_base(3, 1) == q**2 + 1 + q**-2
    assert qint_base(-2, 1) == -(q + q**-1)
    assert qint_base(0, 1) == ZERO


def test_qint_defining_identity():
    for n in range(-20, 21):
        assert qint_base(n, 1) * (q - q**-1) == q**n - q**-n


_scalars = st.sampled_from(
    [scalar(2), scalar(-3), q, q**-1, q + q**-1, a, q**2 - 1, a * q - 2]
)


@given(_scalars)
def test_scalar_inverse(x):
    assert x * x**-1 == ONE


@given(_scalars, _scalars, _scalars)
def test_scalar_field_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x


def test_scalar_string_roundtrip():
    for x in [scalar(5), q**3 - q**-1, (q + 1) / (a * q - 2), scalar("(q^2-1)/(q-1)")]:
        assert scalar_from_str(scalar_str(x)) == x
    assert scalar("(q^2-1)/(q-1)") == q + 1
    with pytest.raises(ValueError):
        scalar_from_str("q + t")


def test_scalar_from_str_two_routes():
    # precedence, signs and powers against sympy's parse of the same string
    from sympy import sympify

    field = coeffs._sym().field
    for text in [
        "-2**2", "2**-1", "q^-1", "q**2**2", "-q^2*a + 1", "+-q", "(q^2-1)/(q-1)",
        "a*b/(q - 1)", "-(q + a)^3/2", "2/3*q - q/3", "((b))^0", "1 - -1",
    ]:
        want = coeffs._from_field(field.from_expr(sympify(text.replace("^", "**"), rational=True)))
        assert scalar_from_str(text) == want, text
    # refused: unknown names, decimals, non-integer exponents, a zero
    # divisor and malformed strings
    for text in ["q + t", "2.5", "1e3", "q**q", "q^(1/2)", "1/(q - q)", "", "(q", "q)", "2q", "q +* 1"]:
        with pytest.raises(ValueError):
            scalar_from_str(text)


def test_point_string_language():
    # Python's integer literals and comments; a newline only inside parentheses
    assert scalar_from_str("0x1F + 1_000") == scalar(1031)
    assert scalar_from_str("q^2  # a comment") == q**2
    assert scalar_from_str("(q\n+ 1)") == q + 1
    assert scalar_from_str(" -q ") == -q
    for text in ["0777", "q\n+ 1", "True", "q//2", "~q", "q % 2", "(q, a)", "q.real", "'q'", "q if a else b",
                 "lambda: q", "f'{q}'", "[q]", "q and a", "q < a", "2j", "q = 1", "q; a"]:
        with pytest.raises(ValueError):
            scalar_from_str(text)
    with pytest.raises(ValueError, match="Name 't'"):
        scalar_from_str("q + t")
    with pytest.raises(ValueError, match="FloorDiv"):
        scalar_from_str("q // 2")
    with pytest.raises(TypeError):
        scalar(2.5)
    # an invalid escape warns in the parser; the warning neither shows nor, as an error, decides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Constant"):
            scalar_from_str("'\\d' + q")


def test_power_guard_bounds():
    # a +-monomial passes at any exponent; otherwise the term and bit bounds decide
    assert scalar_from_str("q^-2*a") == q**-2 * a
    assert scalar_from_str("q^(10^9)")._terms == {(10**9, 0, 0): 1}
    assert scalar_from_str("-(a*b)^-(10^6)") == -((a * b) ** -(10**6))
    # (q + a + b)^9 has at most 10^3 terms, ^10 at most 11^3; (q + 1)^999 has 1,000;
    # 2^10000 is 10,000 bits
    assert scalar_from_str("(q+a+b)^9") == (q + a + b) ** 9
    assert scalar_from_str("2^10000") == scalar(2**10000)
    assert scalar_from_str("(1/2)^-10000") == scalar(2**10000)
    assert scalar_from_str("1/(q+1)^9") == ONE / (q + 1) ** 9
    assert scalar_from_str("(q+1)^999") == (q + 1) ** 999
    for text in ["(q+a+b)^10", "2^10001", "3^-5001", "(q+1)^1000 / (q-1)", "(1/(q+1))^1000", "9^9^9"]:
        with pytest.raises(ValueError, match="too big"):
            scalar_from_str(text)


def test_point_value_bound():
    # a value read may have coefficients and denominator up to 2^10000, the power guard's bound
    assert scalar_from_str("(2^10000*q - 2^10000)/(2^10000 - 1)") == (2**10000 * q - 2**10000) / (2**10000 - 1)
    for text in ["2^10000 + 1", "q/(2^10000 + 1)", "1/(q + 2^10000 + 1)", "-(2^5000)*(2^5000+1)"]:
        with pytest.raises(ValueError, match="larger than 2"):
            scalar_from_str(text)


_POINT_TEXT = st.text(alphabet="qab0123456789+-*/^() t._#,", max_size=40)


@settings(deadline=None)
@given(_POINT_TEXT)
def test_point_strings_return_a_scalar_or_refuse(text):
    try:
        x = scalar_from_str(text)
    except ValueError:
        return
    assert type(x) is coeffs.Scalar


@given(_scalars, _scalars, st.integers(-3, 3))
def test_point_string_roundtrip(x, y, n):
    # ring values, integer denominators and field values such as x / (y + q)
    for v in (x, x**n, x / y, x / (y + q)):
        assert scalar_from_str(scalar_str(v)) == v


# each expression is the first call to need sympy in a fresh interpreter; the
# gcds need it only with three or more live variables (q, a, b, and z for poly_gcd)
FIELD_ENTRY_POINTS = {
    "divide": "ONE / (q + 1)",
    "parse": "scalar_from_str('1/(q+1)')",
    "print": "scalar_str(q**-1 + a)",
    "numer": "(q + 1).numer",
    "remove_content": "remove_content([(q + a) * (b + 1), (q + a) * (q * b - 2)])",
    "poly_gcd": "poly_gcd(ZPoly([1, q]), ZPoly([1, q]) * ZPoly([1, a]))",
}


@pytest.mark.parametrize("expr", FIELD_ENTRY_POINTS.values(), ids=FIELD_ENTRY_POINTS)
def test_field_entry_point_loads_the_field(expr):
    # sys.modules is read before the value is printed, since printing loads sympy itself
    lines = run_fresh(
        "import sys\n"
        "from superloop.coeffs import ONE, ZPoly, a, b, poly_gcd, q, remove_content, scalar, scalar_from_str, scalar_str\n"
        "print('sympy' in sys.modules)\n"
        f"x = {expr}\n"
        "print('sympy' in sys.modules)\n"
        "print(repr(x))\n"
    )
    assert lines == ["False", "True", repr(eval(expr))]


def test_gcds_in_two_variables_do_not_load_the_field():
    lines = run_fresh(
        "import sys\n"
        "from superloop.coeffs import ZPoly, a, b, poly_gcd, q, remove_content\n"
        "# one live variable (q), then two (q and a; z and q)\n"
        "terms = lambda xs: [x._terms for x in xs]\n"
        "print(terms(remove_content([q**2 + q, a * q + a])) == terms([q, a]))\n"
        "print(terms(remove_content([2 * q**3 - 2, 4 * q**2 - 4 * q**-1])) == terms([q**0, 2 * q**-1]))\n"
        "g = ZPoly([1, q + 2])\n"
        "print(terms(poly_gcd(g * ZPoly([1, q]), g * ZPoly([2, q**-2])).coeffs) == terms(g.coeffs))\n"
        "print(terms(poly_gcd(ZPoly([1, -1]), ZPoly([1, 0, -1])).coeffs) == terms(ZPoly([1, -1]).coeffs))\n"
        "print('sympy' in sys.modules)\n"
        "remove_content([(q + a) * (b + 1), (q + a) * (q * b - 2)])\n"
        "print('sympy' in sys.modules)\n"
    )
    assert lines == ["True"] * 4 + ["False", "True"]


def test_integer_denominators_do_not_load_the_field():
    # +, -, *, division by a single term and powers (negative ones of a single
    # term) keep integer denominators off sympy
    lines = run_fresh(
        "import sys\n"
        "from superloop.coeffs import ONE, a, b, q\n"
        "x = (q + a) / 6 - ONE / (2 * q) + 4 / (6 * a * b)\n"
        "print(x * 6 == q + a - 3 * q**-1 + 4 * a**-1 * b**-1, x / (-2 * a) == x * (-ONE / (2 * a)))\n"
        "y = (q / 2)**3 + ((q + a) / 6)**2 + (ONE / (2 * q))**-2\n"
        "print(y * 72 == 9 * q**3 + 2 * (q + a)**2 + 288 * q**2)\n"
        "print('sympy' in sys.modules)\n"
    )
    assert lines == ["True True", "True", "False"]


def test_sympy_not_imported_at_module_level():
    """Only ``coeffs._sym`` imports sympy, on first use; no module imports it when loaded."""

    def imports_at_load(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                yield child, [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                yield child, [child.module or ""]
            yield from imports_at_load(child)

    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted((SRC / "superloop").rglob("*.py"))
        for node, names in imports_at_load(ast.parse(path.read_text()))
        if any(name.split(".")[0] == "sympy" for name in names)
    ]
    assert found == []


def test_poly_gcd_examples():
    one_minus_z = ZPoly([1, -1])
    prod = one_minus_z * ZPoly([1, -q])
    assert poly_gcd(one_minus_z, prod) == one_minus_z
    assert poly_gcd(ZPoly([1, -1]), ZPoly([1, -q])).degree == 0
    p = ZPoly([1, q, 3])
    assert poly_gcd(p, p).degree == 2
    with pytest.raises(ValueError):
        poly_gcd(ZPoly.zero(), ZPoly.zero())


def test_poly_gcd_of_field_multiples():
    # g has a q^-1 coefficient and u a coefficient 1/2: both conversions to ZZ[z,q,a,b] matter
    g = ZPoly([1, q**-1, a])
    u = ZPoly([1, ONE / 2])
    v = ZPoly([1, q + a])
    assert poly_gcd((g * u).scale(3 * q), g * v) == g
    assert poly_gcd(g * v, (g * u).scale(ONE / (q + 1))) == g


def test_poly_gcd_builds_no_field_form_of_laurent_inputs():
    g = ZPoly([1, q**-1, a])
    p, r = g * ZPoly([1, q + 1]), g * ZPoly([q**-2, a - 2])
    coeffs = p.coeffs + r.coeffs
    assert all(c._den == 1 and c._field is None for c in coeffs)
    assert poly_gcd(p, r) == g
    assert all(c._field is None for c in coeffs)


def test_remove_content_clears_denominators():
    # the lcm of the denominators is 2 (q - 1); the cleared values share q + 1
    xs = [(q + 1) / 2, q**-1 - q, (q + 1) / (q - 1)]
    assert [x._den for x in xs] == [2, 1, 0]  # over 2, Laurent, field
    ys = remove_content(xs)
    assert all(y._den == 1 for y in ys)
    assert all(x * ys[0] == y * xs[0] for x, y in zip(xs, ys))
    content = ys[0].numer
    for y in ys[1:]:
        content = content.gcd(y.numer)
    assert len(content) == 1  # a monomial: a unit of the Laurent ring
    assert ys == [q - 1, -2 * q**-1 * (q - 1) ** 2, scalar(2)]


def test_remove_content_ring_denominators_two_routes(monkeypatch):
    """Ring values n/d, d >= 2: the integer multiplier gives what sympy's lcm of
    the field denominators gives, and builds no field form."""
    rng = random.Random(19)

    def laurent():
        return sum(
            (rng.choice([-3, -1, 1, 2, 5]) * q ** rng.randint(-2, 2) * a ** rng.randint(-1, 2) * b ** rng.randint(-2, 1)
             for _ in range(rng.randint(1, 3))),
            ZERO,
        )

    corpus = []
    for _ in range(40):
        xs = [laurent() / rng.randint(2, 12) for _ in range(rng.randint(1, 4))]
        xs += [laurent() for _ in range(rng.randint(0, 2))] + [ZERO] * rng.randint(0, 1)
        rng.shuffle(xs)
        corpus.append([x for x in xs if x] or [ONE / 2])
    corpus += [[ONE / 2, q / 3], [q**-2 / 4, a / 6, b**-1 * q**3], [(q + a**-1) / 5]]
    assert all(any(x._den >= 2 for x in xs) and all(x._den for x in xs) for xs in corpus)

    def no_field(*args):
        raise AssertionError("field form built")

    with monkeypatch.context() as m:
        m.setattr(coeffs, "_field_form", no_field)
        m.setattr(coeffs, "_from_field", no_field)
        got = [remove_content(xs) for xs in corpus]
    for xs, ys in zip(corpus, got):
        F = coeffs._sym().field
        den = F.ring.one
        for x in xs:
            if x._den != 1:
                den = den.lcm(x.denom)
        mult = coeffs._from_field(F.new(den, F.ring.one))
        assert ys == remove_content([x * mult for x in xs])
        assert all(y._den == 1 for y in ys)


# -- the packed GCDHEU kernel against sympy's gcd --


@contextlib.contextmanager
def _sympy_route_calls():
    """The operand lists ``coeffs._sympy_gcd`` receives inside the block."""
    route = coeffs._sympy_gcd
    calls = []

    def counted(ps):
        calls.append(ps)
        return route(ps)

    coeffs._sympy_gcd = counted
    try:
        yield calls
    finally:
        coeffs._sympy_gcd = route


def _laurent_in(draw, gens, max_terms, coeff):
    """A Laurent polynomial in the generators ``gens`` with 1..max_terms drawn terms."""
    x = ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        m = scalar(draw(coeff))
        for g in gens:
            m = m * g ** draw(st.integers(-2, 4))
        x += m
    return x


_coeff = st.one_of(st.integers(-9, 9), st.integers(-2**40, 2**40), st.sampled_from([2**31, -3 * 2**20]))


@st.composite
def _content_lists(draw):
    """1-5 Laurent values in 0, 1 or 2 of q, a, b, most sharing a drawn factor, some zero."""
    gens = draw(st.permutations([q, a, b]))[: draw(st.integers(0, 2))]
    common = _laurent_in(draw, gens, 3, st.integers(-6, 6))
    xs = []
    for _ in range(draw(st.integers(1, 5))):
        x = _laurent_in(draw, gens, 4, _coeff)
        xs.append(draw(st.sampled_from([ZERO, x, x * common, x * common])))
    return xs


def _sympy_remove_content(xs):
    """xs shifted into ZZ[q,a,b], divided by sympy's gcd of them all, and shifted back."""
    ts = [x._terms for x in xs]
    low = [min(e[v] for t in ts for e in t) for v in range(3)]
    polys = [_F.ring({tuple(i - m for i, m in zip(e, low)): c for e, c in t.items()}) for t in ts]
    g = _F.ring.zero
    for p in polys:
        g = g.gcd(p)
    return [
        sum((c * q ** (i + low[0]) * a ** (j + low[1]) * b ** (k + low[2]) for (i, j, k), c in p.exquo(g).items()), ZERO)
        for p in polys
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_content_lists())
def test_remove_content_kernel_two_routes(xs):
    """With at most two live variables the packed lane answers, and its quotients
    are sympy's up to a unit of the Laurent ring."""
    if not any(xs):
        return
    with _sympy_route_calls() as calls:
        ys = remove_content(xs)
    assert calls == []
    zs = _sympy_remove_content(xs)
    j = next(i for i, z in enumerate(zs) if z)
    unit = ys[j] / zs[j]
    assert unit_inverse(unit) is not None
    assert ys == [unit * z for z in zs]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_content_lists(), st.integers(-12, 12).filter(bool), st.tuples(*[st.integers(-2, 3)] * 3))
def test_remove_content_monomial_lane_is_sympys(xs, c, e):
    """A single-term entry sends the list to the integer content: sympy's monomial gcd exactly."""
    xs = xs + [c * q ** e[0] * a ** e[1] * b ** e[2]]
    assert remove_content(xs) == _sympy_remove_content(xs)


@st.composite
def _zpolys(draw, var):
    """A z-polynomial of degree 0-3 with Laurent coefficients in ``var`` (some zero)."""
    return ZPoly(
        draw(st.sampled_from([ZERO, _laurent_in(draw, [var], 3, st.integers(-5, 5))]))
        for _ in range(draw(st.integers(0, 3)))
    ) + ZPoly([_laurent_in(draw, [var], 2, st.integers(-5, 5))])


_ZR = ring("z,q,a,b", ZZ)[0]


def _sympy_poly_gcd(p, r):
    """The monic-at-0 gcd from sympy's ZZ[z,q,a,b] gcd of p and r shifted to polynomials."""
    def zring(P):
        ts = {(k, *e): c for k, x in enumerate(P.coeffs) for e, c in x._terms.items()}
        low = [min(e[v] for e in ts) for v in range(4)]
        return _ZR({(k, *(i - m for i, m in zip(e, low[1:]))): c for (k, *e), c in ts.items()})

    g = zring(p).gcd(zring(r))
    coeffs = [ZERO] * (1 + max(e[0] for e in g))
    for (k, i, j, l), c in g.items():
        coeffs[k] += c * q**i * a**j * b**l
    x = ZPoly(coeffs)
    return x.scale(ONE / (x.coeff(0) if x.coeff(0) != ZERO else x.coeffs[-1]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([q, a, b]).flatmap(lambda v: st.tuples(_zpolys(v), _zpolys(v), _zpolys(v))))
def test_poly_gcd_two_routes(polys):
    g, u, v = polys
    p, r = g * u, g * v
    if p.is_zero() or r.is_zero():
        return
    with _sympy_route_calls() as calls:
        got = poly_gcd(p, r)
    assert calls == []  # z and one of q, a, b: two live variables
    assert got == _sympy_poly_gcd(p, r)


def _flat_mul(f, h):
    out = [0] * (len(f) + len(h) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(h):
            out[i + j] += x * y
    return out


def test_packed_product_check_needs_a_carry_free_base():
    # negative control: at 2^1 the packed quotient of f = x^2 - 2x - 3 by the
    # wrong candidate h = x - 1 is exact, and its digits give a cofactor whose
    # packed product with h equals f's, though h * cof = 1 - x^2
    f, h = [-3, -2, 1], [-1, 1]
    quo, r = divmod(coeffs._pack(f, 1), coeffs._pack(h, 1))
    cof = coeffs._digits(quo, 1)
    assert r == 0 and coeffs._pack(h, 1) * coeffs._pack(cof, 1) == coeffs._pack(f, 1)
    assert _flat_mul(h, cof) == [1, 0, -1] != f
    # the kernel's base exceeds twice every coefficient of f and of h * cof
    assert coeffs._exquo(f, h, ()) is None
    assert coeffs._exquo(f, [1, 1], ()) == [-3, 1]
    # in two variables (index R e_x + e_y, radices (R,)) deg_y h + deg_y cof must stay below R: at
    # R = 2, f = 1 - x packs as 1 - y^2 would, and h = 1 + y would divide it
    assert coeffs._exquo([1, 0, -1], [1, 1], ()) == [1, -1]  # 1 - x^2 = (1 + x)(1 - x)
    assert coeffs._exquo([1, 0, -1], [1, 1], (2,)) is None
    fy = _flat_mul([1, 1, 0, 2], [1, -1, 0, 1])  # R = 3: (1 + y + 2x)(1 - y + x)
    assert coeffs._exquo(fy, [1, 1, 0, 2], (3,)) == [1, -1, 0, 1]


def _horner_pack(cs, s):
    v = 0
    for c in reversed(cs):
        v = (v << s) + c
    return v


def _horner_digits(v, s):
    out = []
    half, mask = 1 << (s - 1), (1 << s) - 1
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> s
    return out


def test_pack_and_digits_match_horner():
    # the shifted-sum pack and the offset readout against the Horner routines
    rng = random.Random(22)
    for _ in range(300):
        s = rng.randint(2, 70)
        n = rng.randint(0, 200)  # above 32 entries _pack halves the list
        big = rng.choice([4, s - 1, s, 3 * s])  # digits and coefficients beyond the base
        cs = [rng.randint(-(1 << big), 1 << big) if rng.random() < 0.6 else 0 for _ in range(n)]
        v = coeffs._pack(cs, s)
        assert v == _horner_pack(cs, s)
        assert coeffs._digits(v, s) == _horner_digits(v, s)
        w = rng.randint(-(1 << rng.randint(0, 400)), 1 << rng.randint(0, 400))
        assert coeffs._digits(w, s) == _horner_digits(w, s)
    for s in (2, 3, 8):  # every digit at the edges of [-2^(s-1), 2^(s-1))
        half = 1 << (s - 1)
        for ds in ([-half] * 5, [half - 1] * 5, [1, -half, 0, half - 1, -1]):
            assert coeffs._digits(coeffs._pack(ds, s), s) == ds
    assert coeffs._pack([], 5) == 0 and coeffs._digits(0, 5) == []


def _ring_value(rng, live, den, terms=4):
    """A nonzero Laurent polynomial in the variables ``live`` over the integer ``den``."""
    x = ZERO
    while x == ZERO:
        for _ in range(rng.randint(1, terms)):
            e = [rng.randint(-2, 2) if v in live else 0 for v in range(3)]
            x += rng.randint(-6, 6) * q ** e[0] * a ** e[1] * b ** e[2]
    return x / den


def test_laurent_division_two_routes():
    # x / y on packed integers against sympy's field (_field_op), on ring
    # values in q, a and b over d in {1, 2, 3, 6}
    rng = random.Random(2022)
    div = operator.truediv
    seen = {"exact": 0, "denominator": 0, "field": 0}
    for _ in range(150):
        live = rng.choice([(0,), (1, 2), (0, 1, 2)])
        d1, d2, d3 = (rng.choice([1, 2, 3, 6]) for _ in range(3))
        u = _ring_value(rng, live, d1)
        v = _ring_value(rng, live, d2)
        if len(v._terms) < 2:
            continue
        c = rng.choice([1, 2, 9, -4])
        for x, y in ((u * v, v), (u * v, c * v / d3), (u, v)):
            with count_field_ops() as calls:
                got = x / y
            want = coeffs._field_op(div, x, y)
            assert got == want and repr(got) == repr(want)
            assert (got._den, got._terms) == (want._den, want._terms)
            if want._terms is None:
                assert calls == [div]  # not a ring value: the field divides
                seen["field"] += 1
            else:
                assert calls == []
                seen["denominator" if got._den > 1 else "exact"] += 1
    assert min(seen.values()) >= 20, seen
    # the torsion quotient 4096 m / (18432 (q - q^-1)) with m = a (q^2 - 1) is (2/9) a q
    m = a * (q**2 - 1)
    with count_field_ops() as calls:
        got = 4096 * m / (18432 * (q - q**-1))
    assert calls == [] and got == 2 * a * q / 9 and got._den == 9
    assert got == coeffs._field_op(div, 4096 * m, 18432 * (q - q**-1))
    for x in (ONE, q + a, (q + a) / 6, ZERO):
        for y in (ZERO, q - q):
            with pytest.raises(ZeroDivisionError):
                x / y
    assert ZERO / (q + a) == ZERO


def test_monoid_pass_takes_no_sympy_route_gcd():
    from superloop import cli

    with _sympy_route_calls() as calls:
        report = cli.run(cli.RunConfig(suite="monoid", count=3, degree_bound=4, seed=19))
    assert report["passed"] and calls == []


def test_poly_divmod():
    p = ZPoly([1, 2, 1])
    d = ZPoly([1, 1])
    quot, rem = p.divmod(d)
    assert rem.is_zero() and quot == d
    quot, rem = ZPoly([1, 0, q]).divmod(ZPoly([1, 1]))
    assert quot * ZPoly([1, 1]) + rem == ZPoly([1, 0, q])


def _longdiv_oracle(c, Q, P, order):
    """Independent expansion of c Q/P in z: repeated subtraction."""
    rem = [c * Q.coeff(k) for k in range(order + 1)]
    out = []
    for n in range(order + 1):
        s = rem[n]
        out.append(s)
        for k in range(n, order + 1):
            rem[k] -= s * P.coeff(k - n)
    return out


def _reflect(p):
    """z^deg p(1/z): c Q/P expands in z as c Q~/P~ does in z^-1."""
    return ZPoly(reversed(p.coeffs))


def test_expand_ratio_trivial():
    s = expand_ratio(1, ZPoly.one(), ZPoly.one(), 5)
    assert list(s) == [ONE] + [ZERO] * 5


def test_expand_ratio_plus_frozen():
    # the expansion in z, read off the reflected ratio in z^-1
    Q = ZPoly([1, -(q**-2)])
    P = ZPoly([1, -1])
    s = expand_ratio(q, _reflect(Q), _reflect(P), 3)
    assert s[0] == q
    for k in (1, 2, 3):
        assert s[k] == q - q**-1
    assert list(s) == _longdiv_oracle(q, Q, P, 3)


def test_expand_ratio_minus_frozen():
    Q = ZPoly([1, -(q**-2)])
    P = ZPoly([1, -1])
    s = expand_ratio(q, Q, P, 3)
    assert s[0] == q**-1
    for k in (1, 2, 3):
        assert s[k] == -(q - q**-1)


def test_expand_ratio_product_invariant():
    rng = random.Random(7)
    pool = [scalar(1), scalar(-2), q, -q, q**-1]
    for _ in range(10):
        d = rng.randint(0, 3)
        Q = ZPoly([pool[rng.randrange(len(pool))] for _ in range(d + 1)])
        P = ZPoly([pool[rng.randrange(len(pool))] for _ in range(d + 1)])
        c = pool[rng.randrange(len(pool))]
        order = 6
        s = expand_ratio(c, Q, P, order)
        # series * P == c*Q coefficientwise at z^d .. z^(d - order)
        for n in range(order + 1):
            lhs = sum((s[k] * P.coeff(d - n + k) for k in range(n + 1)), start=ZERO)
            assert lhs == c * Q.coeff(d - n)


def test_expand_ratio_preconditions():
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.one(), ZPoly([1, 1]), 2)
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.zero(), ZPoly.zero(), 2)
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.one(), ZPoly.one(), -1)


# -- two routes: every scalar operation against sympy's field ZZ(q,a,b) --

_F = field("q,a,b", ZZ)[0]
_Fq, _Fa, _Fb = _F.gens


def _canonical(f):
    """The reduced form sympy's field gives every result but a negative power."""
    return _F.new(f.numer, f.denom)


def _field_str(f) -> str:
    num, den = f.numer, f.denom
    return str(num) if den == _F.ring.one else f"({num})/({den})"


def _check(x, f):
    """x is the scalar route's result, f the field's."""
    f = _canonical(_F(f))  # sympy's zero plus an int is that int
    assert x.numer == f.numer and x.denom == f.denom
    assert scalar_str(x) == _field_str(f)
    # one form per value: the reduced denominator c * monomial (c > 0) picks it
    monomial = len(f.denom) == 1
    assert (x._den == 1) == (monomial and f.denom.LC == 1)
    assert (x._den >= 2) == (monomial and f.denom.LC >= 2)
    assert (x._terms is None) == (x._den == 0) == (not monomial)
    again = coeffs._from_field(f)
    assert x == again and hash(x) == hash(again)


@st.composite
def _laurent(draw, max_terms=4):
    """A Laurent polynomial built on both routes from the same terms."""
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-4, 4).filter(bool), max_size=max_terms
    ))
    x, f = ZERO, _F.zero
    for (i, j, k), c in terms.items():
        x += c * q**i * a**j * b**k
        f += c * _Fq**i * _Fa**j * _Fb**k
    return x, f


# denominators that fall back to the field (q - 1, 2 - q, ...), stay in the
# ring over an integer d >= 2 (2, 3, 2q, 6, 3ab as integer times monomial) or
# come back to it over d = 1 with a sign flip (-q, and -q/(q+1) to a negative power)
_SPECIAL = [
    (ONE / 2, _F(1) / 2),
    (q / 3, _Fq / 3),
    (-ONE / (2 * q), -_F(1) / (2 * _Fq)),
    ((q + a) / 6, (_Fq + _Fa) / 6),
    (4 / (6 * a * b), _F(4) / (6 * _Fa * _Fb)),
    (q**-1, _Fq**-1),
    (-q, -_Fq),
    (2 * q, 2 * _Fq),
    (-2 * q, -2 * _Fq),
    (scalar(2), _F(2)),
    (q - 1, _Fq - 1),
    (-q / (q + 1), -_Fq / (_Fq + 1)),
    (q * a / (2 - q), _Fq * _Fa / (2 - _Fq)),
    (b / (a * b + 3), _Fb / (_Fa * _Fb + 3)),
]


@st.composite
def _any_scalar(draw):
    kind = draw(st.sampled_from(["laurent", "special", "ratio"]))
    if kind == "laurent":
        return draw(_laurent())
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL))
    (x, f), (y, g) = draw(_laurent(2)), draw(_laurent(3).filter(lambda p: p[1] != 0))
    return x / y, f / g


_ints = st.integers(-3, 3)


@settings(max_examples=200, deadline=None)
@given(_any_scalar(), _any_scalar(), _ints, st.integers(-3, 3))
def test_scalar_ops_two_routes(xf, yg, n, e):
    (x, f), (y, g) = xf, yg
    _check(x, f)
    assert scalar_from_str(scalar_str(x)) == x
    _check(x + y, f + g)
    _check(n + x, n + f)
    _check(x + n, f + n)
    _check(x - y, f - g)
    _check(n - x, n - f)
    _check(x - n, f - n)
    _check(-x, -f)
    _check(x * y, f * g)
    _check(n * x, n * f)
    _check(x * n, f * n)
    if g != 0:
        _check(x / y, f / g)
    if f != 0:
        _check(n / x, n / f)
    if n:
        _check(x / n, f / n)
    if f != 0 or e > 0:
        _check(x**e, f**e)
    else:
        with pytest.raises(ZeroDivisionError if e < 0 else ValueError):
            x**e
    assert (x == y) == (_canonical(f) == _canonical(g))
    assert (x == n) == (_canonical(f) == n)
    if x == y:
        assert hash(x) == hash(y)


def test_scalar_forms_examples():
    assert (ONE / (-q))._terms == {(-1, 0, 0): -1} and (ONE / (-q))._den == 1
    assert ((-q / (q + 1)) ** -1) == -1 - q**-1
    assert (2 * q + 4) / 2 == q + 2 and ((2 * q + 4) / 2)._den == 1
    assert (ONE / (2 * q))._terms == {(-1, 0, 0): 1} and (ONE / (2 * q))._den == 2
    assert (-ONE / (2 * q))._terms == {(-1, 0, 0): -1}  # the sign sits in the terms
    assert q / 2 != q  # the same terms over another denominator
    assert (4 / (6 * a * b))._terms == {(0, -1, -1): 2} and (4 / (6 * a * b))._den == 3
    assert (q + a) / 6 + (q + a) / 3 == (q + a) / 2 and ((q + a) / 6) * 6 == q + a
    assert ((q + a) / 6 * 6)._den == 1
    assert scalar_str(ONE / (2 * q)) == "(1)/(2*q)"
    assert scalar_str(scalar(-2) ** -1) == "(-1)/(2)"
    x = scalar("(q^2-1)/(q-1)")
    assert x._terms == {(1, 0, 0): 1, (0, 0, 0): 1} and x._den == 1
    assert remove_content([q**2 + q, a * q + a]) == [q, a]  # content q + 1
    assert remove_content([q**2, a * q]) == [q**2, a * q]  # a unit divides out nothing
    assert remove_content([ZERO, ZERO]) == [ZERO, ZERO]  # no content to divide out
    assert remove_content([]) == []
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO**-1
    with pytest.raises(ValueError, match="0\\*\\*0"):
        ZERO**0


@pytest.mark.parametrize("e", [1, 2, 3, -1, -2, -3])
def test_qint_closed_form_two_routes(e):
    u = _Fq**e
    for n in range(-6, 7):
        x = qint_base(n, e)
        assert x._den == 1
        _check(x, (u**n - u**-n) / (u - u**-1))
    with pytest.raises(ValueError):
        qint_base(2, 0)
