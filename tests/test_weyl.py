import functools
import random

import pytest

from superloop import weyl
from superloop.cli import random_torsion_triple
from superloop.coeffs import ONE, ZERO, ZPoly, expand_ratio, q, scalar
from superloop.linalg import solve_span
from superloop.weyl import (
    HighestWeight,
    TorsionError,
    TorsionTriple,
    charpoly,
    identity_triple,
    monoid_product,
    series_to_torsion,
    slice_spectrum_identity,
    star_product_window,
    torsion_to_series,
    weyl_odd_slice,
)

WORKED = TorsionTriple(q, ZPoly([1, -(q**-2)]), ZPoly([1, -1]))


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


def test_identity_series_is_zero():
    # the degree-0 triples: c Q/P is the unit c = +-1, whose f-series is 0
    for t in (identity_triple(), TorsionTriple(-ONE, ZPoly.one(), ZPoly.one())):
        win = torsion_to_series(t, 6)
        assert sorted(win) == list(range(-6, 7))
        assert all(v == ZERO for v in win.values())
        assert series_to_torsion(win, t.c, 3) == t


def test_worked_example_series():
    plus = expand_ratio(WORKED.c, WORKED.Q, WORKED.P, "+", 6)
    minus = expand_ratio(WORKED.c, WORKED.Q, WORKED.P, "-", 6)
    assert plus[0] == q and minus[0] == q**-1
    win = torsion_to_series(WORKED, 6)
    assert all(v == ONE for v in win.values())
    assert series_to_torsion(win, q, 4) == WORKED


def test_f0_constraint():
    for t in (WORKED, identity_triple(), TorsionTriple(scalar(2), ZPoly([1, scalar(3)]), ZPoly([1, scalar(12)]))):
        win = torsion_to_series(t, 5)
        assert win[0] == (t.c - t.c**-1) / (q - q**-1)
    win = torsion_to_series(WORKED, 5)
    with pytest.raises(TorsionError):
        series_to_torsion(win, scalar(2), 2)


def test_annihilation_property():
    rng = random.Random(11)
    for _ in range(6):
        t = random_torsion_triple(rng, 3)
        win = torsion_to_series(t, 8)
        d = t.P.degree
        for m in range(-8 + d, 9):
            acc = sum((t.P.coeff(s) * win[m - s] for s in range(d + 1)), start=ZERO)
            assert acc == ZERO


def test_series_to_torsion_errors():
    win = torsion_to_series(WORKED, 6)
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
    lcm = scalar(functools.reduce(lambda x, y: x.lcm(y), {v.denom for v in window.values()}))
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
            win = torsion_to_series(t, order)
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
        win = torsion_to_series(t, 10)
        assert series_to_torsion(win, t.c, 4) == t


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
        direct = star_product_window(w1, w2, t1.c, t2.c, order)
        prod = monoid_product(_hw(t1), _hw(t2)).torsion
        assert prod.P.degree == t1.P.degree + t2.P.degree
        assert direct == torsion_to_series(prod, order)


def test_monoid_node_mismatch():
    h1 = HighestWeight({1: ZPoly.one()}, identity_triple(), {1: 1})
    h2 = HighestWeight({}, identity_triple(), {})
    with pytest.raises(ValueError):
        monoid_product(h1, h2)


def test_odd_slice_degree_one():
    alpha = scalar(7)
    sl = weyl_odd_slice(ZPoly([ONE, alpha]), ZPoly.one())
    assert sl.d == 1
    assert sl.theta == ZERO
    assert sl.hM1 == ((-alpha,),)


def test_theta_from_neighbour_polynomial():
    sl = weyl_odd_slice(ZPoly([1, 1]), ZPoly([1, -3]))
    assert sl.theta == scalar(3)
    assert sl.hM1 == ((scalar(3) - ONE,),)


def test_zero_dimensional_slice():
    sl = weyl_odd_slice(ZPoly.one(), ZPoly([1, -2]))
    assert sl.d == 0 and sl.hM1 == ()
    assert slice_spectrum_identity(ZPoly.one(), sl)


def test_slice_dimension_and_spectrum_random():
    rng = random.Random(3)
    pool = [scalar(1), scalar(-2), q, -q, q**-1, q + q**-1]
    for _ in range(8):
        d = rng.randint(1, 5)
        Q = ZPoly([ONE] + [pool[rng.randrange(len(pool))] for _ in range(d)])
        if Q.degree != d:
            continue
        Pprev = ZPoly([ONE] + [pool[rng.randrange(len(pool))] for _ in range(rng.randint(0, 3))])
        sl = weyl_odd_slice(Q, Pprev)
        assert sl.d == d
        assert sl.theta == -Pprev.coeff(1)
        assert slice_spectrum_identity(Q, sl)


def test_charpoly_companion():
    rows = ((scalar(0), scalar(-6)), (scalar(1), scalar(5)))
    # companion of z^2 - 5z + 6
    assert charpoly(rows) == ZPoly([scalar(6), scalar(-5), ONE])


def test_odd_slice_from_highest_weight():
    hw = HighestWeight({1: ZPoly([1, -3])}, WORKED, {1: 1})
    assert hw.odd_node == 2
    sl = weyl.odd_slice_of_highest_weight(hw)
    assert sl.d == 1 and sl.theta == scalar(3)
    # recurrence comes from the annihilator 1 - z: shift eigenvalue 1
    assert sl.hM1 == ((scalar(4),),)
    with pytest.raises(ValueError):
        weyl.odd_slice_of_highest_weight(HighestWeight({2: ZPoly.one()}, WORKED, {2: 1}))
    with pytest.raises(TorsionError):
        HighestWeight({1: ZPoly([2])}, WORKED, {1: 1})


def test_json_forms():
    blob = WORKED.to_json()
    assert blob["c"] == "q"
    hw = HighestWeight({1: ZPoly([1, -3])}, WORKED, {1: 1})
    out = hw.to_json()
    assert out["Q"] == ["1", "(-1)/(q**2)"] and out["P_odd"] == ["1", "-1"]
    sl = weyl_odd_slice(ZPoly([1, -2, 1]), ZPoly([1, -3]))
    out = sl.to_json()
    assert out["d"] == 2 and out["theta"] == "3"
