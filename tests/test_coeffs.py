import random

import pytest
from hypothesis import given, strategies as st

from superloop.coeffs import (
    NonExpandable,
    ONE,
    ZERO,
    ZPoly,
    a,
    expand_ratio,
    poly_coprime,
    poly_gcd,
    q,
    qint_base,
    scalar,
    scalar_from_str,
    scalar_str,
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


def test_poly_gcd_examples():
    one_minus_z = ZPoly([1, -1])
    prod = one_minus_z * ZPoly([1, -q])
    assert poly_gcd(one_minus_z, prod) == one_minus_z
    assert poly_coprime(ZPoly([1, -1]), ZPoly([1, -q]))
    p = ZPoly([1, q, 3])
    assert not poly_coprime(p, p)
    with pytest.raises(ValueError):
        poly_gcd(ZPoly.zero(), ZPoly.zero())


def test_poly_divmod():
    p = ZPoly([1, 2, 1])
    d = ZPoly([1, 1])
    quot, rem = p.divmod(d)
    assert rem.is_zero() and quot == d
    quot, rem = ZPoly([1, 0, q]).divmod(ZPoly([1, 1]))
    assert quot * ZPoly([1, 1]) + rem == ZPoly([1, 0, q])


def _longdiv_oracle(c, Q, P, order):
    """Independent plus-direction expansion: repeated subtraction."""
    rem = [c * Q.coeff(k) for k in range(order + 1)]
    out = []
    for n in range(order + 1):
        s = rem[n]
        out.append(s)
        for k in range(n, order + 1):
            rem[k] -= s * P.coeff(k - n)
    return out


def test_expand_ratio_trivial():
    s = expand_ratio(1, ZPoly.one(), ZPoly.one(), "+", 5)
    assert list(s.coeffs) == [ONE] + [ZERO] * 5


def test_expand_ratio_plus_frozen():
    Q = ZPoly([1, -(q**-2)])
    P = ZPoly([1, -1])
    s = expand_ratio(q, Q, P, "+", 3)
    assert s.coeff(0) == q
    for k in (1, 2, 3):
        assert s.coeff(k) == q - q**-1
    assert list(s.coeffs) == _longdiv_oracle(q, Q, P, 3)


def test_expand_ratio_minus_frozen():
    Q = ZPoly([1, -(q**-2)])
    P = ZPoly([1, -1])
    s = expand_ratio(q, Q, P, "-", 3)
    assert s.coeff(0) == q**-1
    for k in (1, 2, 3):
        assert s.coeff(k) == -(q - q**-1)


def test_expand_ratio_product_invariant():
    rng = random.Random(7)
    pool = [scalar(1), scalar(-2), q, -q, q**-1]
    for _ in range(10):
        dq = rng.randint(0, 3)
        dp = rng.randint(0, 3)
        Q = ZPoly([ONE] + [pool[rng.randrange(len(pool))] for _ in range(dq)])
        P = ZPoly([ONE] + [pool[rng.randrange(len(pool))] for _ in range(dp)])
        c = pool[rng.randrange(len(pool))]
        order = 6
        s = expand_ratio(c, Q, P, "+", order)
        # series * P == c*Q coefficientwise up to the order
        for n in range(order + 1):
            lhs = sum((s.coeff(k) * P.coeff(n - k) for k in range(n + 1)), start=ZERO)
            assert lhs == c * Q.coeff(n)


def test_expand_ratio_preconditions():
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.one(), ZPoly([2]), "+", 2)
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.one(), ZPoly([1, 1]), "-", 2)
    with pytest.raises(NonExpandable):
        expand_ratio(1, ZPoly.one(), ZPoly.one(), "+", -1)


def test_zpoly_compose_reciprocal():
    p = ZPoly([1, 2, q])
    assert p.reciprocal() == ZPoly([q, 2, 1])
    # p(z - 3) = 1 + 2(z - 3) + q(z - 3)^2
    shifted = p.compose(ZPoly([scalar(-3), ONE]))
    assert shifted == ZPoly([9 * q - 5, 2 - 6 * q, q])
