"""Acceptance suite: the exit criteria, exact arithmetic, zero tolerance.

Each criterion prints one pass/fail line (run pytest with -s to see them
inline).  Everything here is checked with exact scalars; no tolerances
are involved anywhere.
"""

import itertools
import random

import pytest

from superloop import modrep, pbw, weyl
from superloop.cli import random_torsion_triple
from superloop.coeffs import ONE, ZPoly, a, b, q, qint_base, scalar
from superloop.linalg import RowReducer
from superloop.modrep import (
    evaluation_pullback,
    fundamental,
    highest_weight,
    odd_slice,
    pi_pullback,
    relation_report,
    tensor,
)
from superloop.superfree import Elem, appendixA_check, kay, kinv
from superloop.weyl import (
    TorsionTriple,
    identity_triple,
    monoid_product,
    series_to_torsion,
    torsion_to_series,
)

WINDOW = 2
SEED = 20240 + 6


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def modules():
    mods = {}
    for M, N in [(2, 1), (1, 2), (3, 1), (1, 3)]:
        mods[M, N] = evaluation_pullback(fundamental(M, N), a)
    mods["tensor"] = tensor(mods[2, 1], evaluation_pullback(fundamental(2, 1), b))
    return mods


def test_criterion_1_relation_suite(modules):
    """Every defining-relation instance with loop indices in [-2,2] is the
    zero matrix on each constructed evaluation module.

    No (2,2) module exists at this scale (evaluation needs M != N), so the
    (2,2) oscillation family is exercised symbolically by criterion 6.
    """
    ok = True
    for key in [(2, 1), (1, 2), (3, 1), (1, 3)]:
        rep = relation_report(modules[key], window=WINDOW)
        ok &= rep["passed"]
    _report(1, "relation suite, evaluation modules, window [-2,2]", ok)


def test_criterion_1_supplement_tensor(modules):
    """Supplementary coverage: the tensor module passes the catalog too."""
    rep = relation_report(modules["tensor"], window=1)
    _report(1, "supplement: tensor module, window [-1,1]", rep["passed"])


def test_criterion_2_evaluation_highest_weight(modules):
    ok = True
    for M, N in [(2, 1), (3, 1)]:
        hw = highest_weight(modules[M, N])
        for i in hw.P:
            want = ZPoly([ONE, -q * a]) if i == 1 else ZPoly.one()
            ok &= hw.P[i] == want
            ok &= hw.epsilon[i] == 1
        ok &= hw.c == ONE and hw.torsion == identity_triple()
    # (1,2): the evaluation module is the Dynkin-flip pullback; the flip
    # inverts loop degrees, so the evaluation point transports to q^-2 a^-1
    # and the nontrivial polynomial sits at the flipped node 2.
    flipped = pi_pullback(evaluation_pullback(fundamental(2, 1), q**-2 * a**-1))
    hw = highest_weight(flipped)
    ok &= hw.P[2] == ZPoly([ONE, -q * a])
    ok &= hw.epsilon[2] == 1
    ok &= hw.c == ONE and hw.torsion == identity_triple()
    _report(2, "evaluation highest weights match the fundamental data", ok)


def test_criterion_3_tensor_monoid_compatibility(modules):
    m1 = modules[2, 1]
    m2 = evaluation_pullback(fundamental(2, 1), b)
    hw1, hw2 = highest_weight(m1), highest_weight(m2)
    hwt = highest_weight(modules["tensor"])
    prod = monoid_product(hw1, hw2)
    ok = (
        hwt.P == prod.P
        and hwt.torsion == prod.torsion
        and hwt.epsilon == prod.epsilon
        and hwt.P[1] == ZPoly([ONE, -q * a]) * ZPoly([ONE, -q * b])
    )
    _report(3, "tensor highest weight = monoid product (incl. torsion)", ok)


def test_criterion_4_odd_slice_spectrum():
    """The odd slice w_n = X-_{1,n} v of a module is read off the module.

    Its rank is deg P, P the odd triple extracted from the phi eigenvalues,
    and P annihilates the sequence, so the shift acts on the slice with
    characteristic polynomial z^d P(1/z).  Negative control: a copy with
    X-_{1,1} or X-_{1,2} scaled by q breaks the recurrence.
    """

    def ev(M, N, point):
        return evaluation_pullback(fundamental(M, N), point)

    ok = True
    for x, y in ((a, b), (scalar(1) / 2, scalar(3))):
        builds = [
            (1, lambda: ev(1, 2, x)),
            (1, lambda: ev(1, 3, x)),
            (2, lambda: tensor(ev(1, 2, x), ev(1, 2, y))),
        ]
        for degree, build in builds:
            d, P, annihilates = odd_slice(build())
            ok &= d == P.degree == degree and annihilates
            for n in (1, 2):
                lm = build()
                lm._cache["X-", 1, n] = lm.gen(("X-", 1, n)).scale(q)
                ok &= not odd_slice(lm)[2]
    _report(4, "odd slice of ev(1,2), ev(1,3), ev(1,2)^2: rank deg P and P's recurrence", ok)


def test_criterion_5_torsion_roundtrip_and_monoid():
    rng = random.Random(SEED)
    triples = [random_torsion_triple(rng, 4) for _ in range(20)]
    ok = True
    for t in triples:
        win, s = torsion_to_series(t, 10)
        ok &= series_to_torsion(win, t.c, 4, s) == t
    worked = TorsionTriple(q, ZPoly([ONE, -(q**-2)]), ZPoly([ONE, -ONE]))
    win, s = torsion_to_series(worked, 9)
    ok &= all(v / s == ONE for v in win.values())
    ok &= series_to_torsion(win, q, 4, s) == worked
    hw = lambda t: weyl.HighestWeight({}, t, {})
    ident = identity_triple()
    for t in triples[:8]:
        ok &= monoid_product(hw(t), hw(ident)).torsion == t
    for t1, t2, t3 in list(zip(triples, triples[1:], triples[2:]))[:6]:
        p12 = monoid_product(hw(t1), hw(t2))
        p21 = monoid_product(hw(t2), hw(t1))
        ok &= p12.torsion == p21.torsion
        left = monoid_product(p12, hw(t3)).torsion
        right = monoid_product(hw(t1), monoid_product(hw(t2), hw(t3))).torsion
        ok &= left == right
    _report(5, "torsion-series roundtrip x20, worked example, monoid laws", ok)


def test_criterion_6_oscillation_replay():
    rep = appendixA_check(4, range(-WINDOW, WINDOW + 1))
    _report(6, "oscillation recursions replay to exact zero, n <= 4", rep["passed"])


def test_criterion_7_pbw_rank_saturation(modules):
    ok = True
    window = range(-WINDOW, WINDOW + 1)
    for label in [(2, 1), "tensor"]:
        lm = modules[label]
        sig = lm.sig
        for wt in itertools.product(range(4), repeat=sig.n_nodes):
            if not 1 <= sum(wt) <= 3:
                continue
            red_pbw = RowReducer()
            for mono in pbw.enumerate_pbw(sig, list(wt), window):
                red_pbw.add(lm.elem_matrix(pbw.monomial_elem(sig, mono)).flatten())
            red_words = RowReducer()
            for word in pbw.all_words(sig, list(wt), window):
                red_words.add(lm.elem_matrix(Elem.monomial(word)).flatten())
            ok &= red_pbw.rank == red_words.rank
    _report(7, "PBW monomial images saturate word images, height <= 3", ok)


def test_criterion_8_two_route_currents(modules):
    ok = True
    ladder_pairs = 0
    for key in [(2, 1), (1, 2), (3, 1), (1, 3), "tensor"]:
        lm = modules[key]
        sig = lm.sig
        for i in range(1, sig.n_nodes + 1):
            qi = sig.q_node(i)
            ok &= lm.gen(("H", i, 1)).scale(qi - qi**-1) == lm.gen(kinv(i)) * lm.gen(
                ("phi", 1, i, 1)
            )
            ok &= lm.gen(("H", i, -1)).scale(-(qi - qi**-1)) == lm.gen(kay(i)) * lm.gen(
                ("phi", -1, i, -1)
            )
        for j in range(1, sig.n_nodes + 1):
            for step in (1, -1):
                routes = []
                for i in range(max(1, j - 1), min(sig.n_nodes, j + 1) + 1):
                    if sig.c(i, j) == 0:
                        continue
                    div = qint_base(step * sig.l(i) * sig.c(i, j), sig.l(i)) / scalar(step)
                    h = lm.gen(("H", i, step))
                    x = lm.gen(("X+", j, 0))
                    routes.append((h * x - x * h).scale(ONE / div))
                if len(routes) > 1:
                    ladder_pairs += 1
                    ok &= all(r == routes[0] for r in routes)
    ok &= ladder_pairs > 0
    _report(8, f"two-route Cartan loops and ladder independence ({ladder_pairs} multi-route nodes)", ok)


def test_criterion_9_coproduct_membership(modules):
    m1 = modules[2, 1]
    m2 = evaluation_pullback(fundamental(2, 1), b)
    tm = modules["tensor"]
    ok = True
    for part in ("x+", "x-", "phi"):
        for j in (1, 2):
            for n in (-1, 0, 1):
                ok &= modrep.check_coproduct_formula(j, n, m1, m2, part=part, product=tm)
    for s in (1, -1):
        res = modrep.cartan_coproduct_constants(1, m1, m2, sign=s, product=tm)
        ok &= bool(res.get("solvable")) and bool(res.get("z_matches"))
    _report(9, "coproduct correction membership and z = +-(q_i - q_i^-1)", ok)
