import functools
import random

import pytest

from superloop import coeffs, weyl
from superloop.cli import random_torsion_triple
from superloop.coeffs import ONE, ZERO, ZPoly, a, b, expand_ratio, q, scalar
from superloop.linalg import solve_span
from superloop.modrep import evaluation_pullback, fundamental, highest_weight, odd_slice, tensor
from superloop.weyl import (
    HighestWeight,
    TorsionError,
    TorsionTriple,
    identity_triple,
    monoid_product,
    series_to_torsion,
    star_product_window,
    torsion_to_series,
)

WORKED = TorsionTriple(q, ZPoly([1, -(q**-2)]), ZPoly([1, -1]))


def f_window(t, order):
    """The f-window {n: g_n / s} of the scaled pair (g, s)."""
    g, s = torsion_to_series(t, order)
    return {n: v / s for n, v in g.items()}


def test_triple_invariants():
    with pytest.raises(TorsionError):
        TorsionTriple(ZERO, ZPoly.one(), ZPoly.one())
    with pytest.raises(TorsionError):
        TorsionTriple(ONE, ZPoly([2]), ZPoly.one())
    with pytest.raises(TorsionError):
        TorsionTriple(ONE, ZPoly([1, 1]), ZPoly.one())
    with pytest.raises(TorsionError):
        # equal degree but not coprime
        TorsionTriple(ONE, ZPoly([1, 2]), ZPoly([1, 2]))
    with pytest.raises(TorsionError):
        # leading coefficients must match c^-2 lead(P)
        TorsionTriple(q, ZPoly([1, 1]), ZPoly([1, 2]))
    with pytest.raises(TorsionError, match="constant term 1"):
        HighestWeight({1: ZPoly([2])}, WORKED, {1: 1})


def test_identity_series_is_zero():
    # the degree-0 triples: c Q/P is the unit c = +-1, whose f-series is 0
    for t in (identity_triple(), TorsionTriple(-ONE, ZPoly.one(), ZPoly.one())):
        win, s = torsion_to_series(t, 6)
        assert sorted(win) == list(range(-6, 7))
        assert all(v == ZERO for v in win.values())
        assert series_to_torsion(win, t.c, 3, s) == t


def _plus(t, order):
    """The expansion of c Q/P in z: that of c z^d Q(1/z) / z^d P(1/z) in z^-1."""
    return expand_ratio(t.c, ZPoly(reversed(t.Q.coeffs)), ZPoly(reversed(t.P.coeffs)), order)


def test_worked_example_series():
    plus = _plus(WORKED, 6)
    minus = expand_ratio(WORKED.c, WORKED.Q, WORKED.P, 6)
    assert plus[0] == q and minus[0] == q**-1
    win, s = torsion_to_series(WORKED, 6)
    assert all(v == s for v in win.values())
    assert series_to_torsion(win, q, 4, s) == WORKED
    assert series_to_torsion(f_window(WORKED, 6), q, 4) == WORKED


def _field_f_window(t, order):
    """f by the field formula: (q - q^-1) f = iota_+(c Q/P) - iota_-(c Q/P)."""
    plus = _plus(t, order)
    minus = expand_ratio(t.c, t.Q, t.P, order)
    u = q - q**-1
    win = {0: (plus[0] - minus[0]) / u}
    for n in range(1, order + 1):
        win[n], win[-n] = plus[n] / u, -minus[n] / u
    return win


def test_scaled_window_two_routes():
    # the first five triples the monoid suite draws on seeds 0-3 at its default degree bound
    triples = []
    for seed in range(4):
        rng = random.Random(seed)
        triples += [random_torsion_triple(rng, 4) for _ in range(5)]
    for t in triples:
        for order in (10, 13):
            g, s = torsion_to_series(t, order)
            assert s._den == 1 and all(v._den == 1 for v in g.values())
            assert {n: v / s for n, v in g.items()} == _field_f_window(t, order)


def test_f0_constraint():
    for t in (WORKED, identity_triple(), TorsionTriple(scalar(2), ZPoly([1, scalar(3)]), ZPoly([1, scalar(12)]))):
        win, s = torsion_to_series(t, 5)
        assert win[0] / s == (t.c - t.c**-1) / (q - q**-1)
    win, s = torsion_to_series(WORKED, 5)
    assert s != ONE
    for c in (scalar(2), q**-1, -q):
        with pytest.raises(TorsionError, match="f_0 must equal"):
            series_to_torsion(win, c, 2, s)
        with pytest.raises(TorsionError, match="f_0 must equal"):
            series_to_torsion(f_window(WORKED, 5), c, 2)


def test_annihilation_property():
    rng = random.Random(11)
    for _ in range(6):
        t = random_torsion_triple(rng, 3)
        win = f_window(t, 8)
        d = t.P.degree
        for m in range(-8 + d, 9):
            acc = sum((t.P.coeff(s) * win[m - s] for s in range(d + 1)), start=ZERO)
            assert acc == ZERO


def test_series_to_torsion_errors():
    win = f_window(WORKED, 6)
    with pytest.raises(TorsionError, match="window too short"):
        series_to_torsion(win, q, 7)  # window shorter than 2*bound+1
    with pytest.raises(TorsionError, match="f_0 must equal"):
        series_to_torsion(win, ONE, 2)  # c = 1 needs f_0 = 0, the window has f_0 = 1
    # 0, 1, 1, ... on n >= 0 has f_0 = 0 as c = 1 needs, but the window
    # 0, ..., 0, 1, 1, ... obeys no recurrence of degree <= 2
    step = {n: ONE if n > 0 else ZERO for n in range(-6, 7)}
    with pytest.raises(TorsionError, match="no annihilator of degree <= 2"):
        series_to_torsion(step, ONE, 2)


def _annihilator_by_elimination(window, degree_bound):
    """The per-degree route: one exact solve of the Hankel system for d = 0, 1, ...

    The systems are solved on the window times the lcm of its denominators:
    an annihilator does not change under a nonzero scalar, and the scaled
    entries are polynomials, which the elimination handles without the field.
    """
    lcm = functools.reduce(lambda x, y: x.lcm(y), {v.denom for v in window.values()})
    lcm = coeffs._from_field(coeffs._sym().field(lcm))
    window = {m: v * lcm for m, v in window.items()}
    lo, hi = min(window), max(window)
    for d in range(degree_bound + 1):
        ms = range(lo + d, hi + 1)
        if len(ms) < d + 1:
            return None
        cols = [{i: window[m - s] for i, m in enumerate(ms) if window[m - s] != ZERO} for s in range(1, d + 1)]
        target = {i: -window[m] for i, m in enumerate(ms) if window[m] != ZERO}
        sol = solve_span(cols, target)
        if sol is not None:
            cand = ZPoly([ONE] + sol)
            if weyl._annihilates(cand, window):
                return cand
    return None


def test_annihilator_two_routes():
    rng = random.Random(73)  # draws triples of degrees 2, 1, 4, 0, 3
    bound = 4
    windows = []
    for _ in range(5):
        t = random_torsion_triple(rng, bound)
        for order in (2 * bound + 2, 2 * bound + 5):
            win = f_window(t, order)
            windows += [win, {**win, order: win[order] + ONE}]
    # recurrences of degree exactly bound and bound + 1: (1 - z)^d annihilates
    # the polynomial sequence n^(d-1) and nothing of lower degree does
    windows += [{n: scalar(n ** (d - 1)) for n in range(-6, 7)} for d in (bound, bound + 1)]
    # 1, 0, 0, ...: Berlekamp-Massey ends at L = 1 with the connection polynomial 1
    windows.append({n: ONE if n == -6 else ZERO for n in range(-6, 7)})
    # 1, 1 has L = 1, but two terms do not pin a degree-1 recurrence down
    windows.append({-1: ONE, 0: ONE})
    found = 0
    for win in windows:
        fast = weyl._minimal_annihilator(win, bound)
        assert fast == _annihilator_by_elimination(win, bound)
        found += fast is not None
    assert 0 < found < len(windows)


def test_roundtrip_random_triples():
    rng = random.Random(5)
    for _ in range(8):
        t = random_torsion_triple(rng, 4)
        win, s = torsion_to_series(t, 10)
        assert series_to_torsion(win, t.c, 4, s) == t


def _hw(t):
    return HighestWeight({}, t, {})


def test_monoid_identity_and_inverse_pair():
    t1 = WORKED
    t2 = TorsionTriple(q**-1, ZPoly([1, -1]), ZPoly([1, -(q**-2)]))
    prod = monoid_product(_hw(t1), _hw(t2)).torsion
    assert prod == identity_triple()  # gcd reduction collapses both factors
    assert monoid_product(_hw(t1), _hw(identity_triple())).torsion == t1


def test_monoid_star_formula_window():
    cases = [
        (WORKED, TorsionTriple(scalar(2), ZPoly([1, scalar(3)]), ZPoly([1, scalar(12)])), 6),
        (
            TorsionTriple(q, ZPoly([1, 2, -1, q, -(q**-2)]), ZPoly([1, -1, q, 1, -1])),
            TorsionTriple(scalar(2), ZPoly([1, q, 1, -2, scalar(3) / 4]), ZPoly([1, 1, -q, 2, 3])),
            2 * 4 + 2,
        ),
    ]
    for t1, t2, order in cases:
        w1 = torsion_to_series(t1, 2 * order)
        w2 = torsion_to_series(t2, 2 * order)
        direct, s = star_product_window(w1, w2, t1.c, t2.c, order)
        prod = monoid_product(_hw(t1), _hw(t2)).torsion
        assert prod.P.degree == t1.P.degree + t2.P.degree
        assert {n: v / s for n, v in direct.items()} == f_window(prod, order)


def test_monoid_node_mismatch():
    h1 = HighestWeight({1: ZPoly.one()}, identity_triple(), {1: 1})
    h2 = HighestWeight({}, identity_triple(), {})
    with pytest.raises(ValueError):
        monoid_product(h1, h2)


def _ev(M, N, point):
    return evaluation_pullback(fundamental(M, N), point)


def test_odd_slice_degree_one():
    # X-_{1,n} v = (q^2 a)^n X-_{1,0} v on the vector module of (1,N)
    for N in (2, 3):
        for point in (a, scalar(1) / 2, q**-1):
            assert odd_slice(_ev(1, N, point)) == (1, ZPoly([ONE, -(q**2) * point]), True)


def test_zero_dimensional_slice():
    # for M >= 2 the odd triple is the identity and X-_{M,n} kills v
    for lm in (_ev(2, 1, a), _ev(3, 1, scalar(2)), tensor(_ev(2, 1, a), _ev(2, 1, b))):
        assert odd_slice(lm) == (0, ZPoly.one(), True)


def test_odd_slice_from_highest_weight():
    # the slice of ev(a) (x) ev(b) is a plane with P the monoid product's P
    hws = [highest_weight(_ev(1, 2, x)) for x in (a, b)]
    d, P, annihilates = odd_slice(tensor(_ev(1, 2, a), _ev(1, 2, b)))
    assert (d, annihilates) == (2, True)
    assert P == monoid_product(*hws).torsion.P == ZPoly([ONE, -(q**2) * (a + b), q**4 * a * b])
    # at b = q^2 a the product's Q and P share 1 - q^2 a z: the reduced P, and
    # with it the slice, has degree 1
    d, P, annihilates = odd_slice(tensor(_ev(1, 2, a), _ev(1, 2, q**2 * a)))
    assert (d, P, annihilates) == (1, ZPoly([ONE, -(q**4) * a]), True)


def test_slice_dimension_and_spectrum_random():
    # d = deg P and P's recurrence on tensor products at random rational points
    rng = random.Random(3)
    pool = [scalar(2), scalar(-3), scalar(1) / 2, scalar(2) / 3, q, q**-1 + 1]
    for _ in range(4):
        x, y = rng.sample(pool, 2)
        d, P, annihilates = odd_slice(tensor(_ev(1, 2, x), _ev(1, 2, y)), degree_bound=3)
        assert (d, P.degree, annihilates) == (2, 2, True)


def test_json_forms():
    blob = WORKED.to_json()
    assert blob["c"] == "q"
    hw = HighestWeight({1: ZPoly([1, -3])}, WORKED, {1: 1})
    out = hw.to_json()
    assert out["Q"] == ["1", "(-1)/(q**2)"] and out["P_odd"] == ["1", "-1"]
