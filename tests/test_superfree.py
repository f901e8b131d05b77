import itertools

import pytest

from superloop.coeffs import ONE, q, scalar
from superloop.linalg import RowReducer
from superloop.superfree import (
    AlgebraSignature,
    Elem,
    GenSym,
    NotHomogeneous,
    RelRule,
    aitch,
    appendixA_check,
    ceil_bracket,
    chevalley_instances,
    e0p,
    floor_bracket,
    kay,
    kinv,
    lambda_elem,
    mu_elem,
    mu_recursion_certificate,
    phi_coeff,
    phi_push_past,
    qbracket,
    reduce_lambda_step,
    relation_elem,
    relation_instances,
    xm,
    xp,
    _MU_PAIRS,
    _normalize_commuting,
)

SIG21 = AlgebraSignature(2, 1)
SIG22 = AlgebraSignature(2, 2)
SIG31 = AlgebraSignature(3, 1)


def mono(*syms):
    return Elem.monomial(tuple(syms))


def test_signature_cartan_data():
    assert [SIG21.l(i) for i in (1, 2, 3)] == [1, 1, -1]
    assert SIG21.c(1, 1) == 2 and SIG21.c(2, 2) == 0 and SIG21.c(1, 2) == -1
    assert SIG22.c(2, 3) == 1 and SIG22.c(1, 3) == 0
    assert SIG21.parity_node(2) == 1 and SIG21.parity_node(1) == 0
    with pytest.raises(ValueError):
        SIG21.c(0, 1)


def test_gensym_validation():
    with pytest.raises(ValueError):
        GenSym("K", 1, 2)
    with pytest.raises(ValueError):
        GenSym("H", 1, 0)
    with pytest.raises(ValueError):
        GenSym("E0+", 1, 1)
    SIG21.check_symbol(aitch(1, 8))
    with pytest.raises(ValueError):
        SIG21.check_symbol(aitch(1, 9))
    with pytest.raises(ValueError):
        SIG21.check_symbol(kay(0))  # K_0 is a product of the K_i, not a symbol


def test_elem_algebra():
    e = mono(xp(1, 0)) + mono(xp(1, 0))
    assert e == mono(xp(1, 0)).scale(2)
    assert (e - e).is_zero()
    prod = mono(xp(1, 0)) * mono(xp(2, 1))
    assert prod.words() == [(xp(1, 0), xp(2, 1))]
    assert SIG21.elem_weight(prod) == (1, 1)
    assert SIG21.elem_parity(prod) == 1
    mixed = mono(xp(1, 0)) + mono(xp(2, 0))
    assert SIG21.elem_weight(mixed) is None


def test_weight_parity_additivity():
    w1 = (xp(1, 2), xp(2, -1))
    w2 = (xm(2, 0), xp(1, 1))
    e1, e2 = mono(*w1), mono(*w2)
    prod = e1 * e2
    wt = tuple(
        x + y for x, y in zip(SIG21.word_weight(w1), SIG21.word_weight(w2))
    )
    assert SIG21.elem_weight(prod) == wt
    assert SIG21.elem_parity(prod) == (SIG21.word_parity(w1) + SIG21.word_parity(w2)) % 2


def test_qbracket_signs():
    x, y = mono(xp(1, 0)), mono(xp(1, 1))  # both even
    assert qbracket(SIG21, x, y, ONE) == x * y - y * x
    u, v = mono(xp(2, 0)), mono(xp(2, 1))  # both odd
    assert qbracket(SIG21, u, v, ONE) == u * v + v * u
    with pytest.raises(NotHomogeneous):
        qbracket(SIG21, x + u, y, ONE)


def test_qbracket_anticommutativity():
    for x, y in [(mono(xp(1, 0)), mono(xp(2, 1))), (mono(xp(2, 0)), mono(xm(2, 1)))]:
        for u in (q, q**-2, scalar(3)):
            px = SIG21.elem_parity(x)
            py = SIG21.elem_parity(y)
            sgn = -ONE if (px and py) else ONE
            lhs = qbracket(SIG21, x, y, u)
            rhs = qbracket(SIG21, y, x, u**-1).scale(sgn * u)
            assert lhs == -rhs


def test_floor_bracket_is_weight_twisted_qbracket():
    u, v = mono(xp(1, 0)), mono(xp(2, 0))
    alpha = SIG21.elem_weight(u)
    beta = SIG21.elem_weight(v)
    tw = q ** (-SIG21.bilinear(alpha, beta))
    assert floor_bracket(SIG21, [u, v]) == qbracket(SIG21, u, v, tw)
    assert floor_bracket(SIG21, [u]) == u
    assert floor_bracket(SIG22, [mono(xp(2, 0)), mono(xp(3, 0))]).nterms() == 2


def test_floor_bracket_h11_word():
    # the level-one Cartan word at (2,1) expands to 4 words
    word = floor_bracket(SIG21, [mono(xp(1, 0)), mono(xp(2, 0)), mono(e0p())]).scale(-1)
    assert word.nterms() == 4


def test_ceil_bracket_nesting():
    items = [mono(xm(2, 0)), mono(xm(1, 0))]
    alpha = SIG21.elem_weight(items[0])
    beta = SIG21.elem_weight(items[1])
    tw = q ** (SIG21.bilinear(alpha, beta))
    assert ceil_bracket(SIG21, items) == qbracket(SIG21, items[0], items[1], tw)


def test_phi_coeff():
    qi = SIG21.q_node(1)
    assert phi_coeff(SIG21, 1, 1, 0) == mono(kay(1))
    assert phi_coeff(SIG21, 1, -1, 0) == mono(kinv(1))
    assert phi_coeff(SIG21, 1, 1, 1) == mono(kay(1), aitch(1, 1)).scale(qi - qi**-1)
    expected2 = mono(kay(1), aitch(1, 2)).scale(qi - qi**-1) + mono(
        kay(1), aitch(1, 1), aitch(1, 1)
    ).scale((qi - qi**-1) ** 2 / scalar(2))
    assert phi_coeff(SIG21, 1, 1, 2) == expected2
    with pytest.raises(ValueError):
        phi_coeff(SIG21, 1, 1, -1)
    with pytest.raises(ValueError):
        phi_coeff(SIG21, 1, -1, 2)


def test_relation_elem_cartan_and_kx():
    rel = relation_elem(SIG21, RelRule("cartan", ("inv", 1)))
    assert rel == mono(kay(1), kinv(1)) - Elem.one()
    rel = relation_elem(SIG21, RelRule("kx", (1, 2, 0), 1))
    assert rel == mono(kay(1), xp(2, 0)) - mono(xp(2, 0), kay(1)).scale(q**-1)


def test_relation_elem_deg2_zero_is_supercommutator():
    # both factors odd at the isotropic node: anticommutator
    rel = relation_elem(SIG21, RelRule("deg2-zero", (2, 0, 2, 1), 1))
    assert rel == mono(xp(2, 0), xp(2, 1)) + mono(xp(2, 1), xp(2, 0))


def test_relation_elem_hx():
    # [h_{i,s}, X_{j,n}^+] = ([s l_i c_ij]_{q_i}/s) X_{j,n+s}^+
    rel = relation_elem(SIG21, RelRule("hx", (1, 1, 1, 0), 1))
    coeff = (q**2 - q**-2) / (q - q**-1)
    expected = (
        mono(aitch(1, 1), xp(1, 0))
        - mono(xp(1, 0), aitch(1, 1))
        - mono(xp(1, 1)).scale(coeff)
    )
    assert rel == expected


def test_relation_elem_pm_mixed_offdiag():
    rel = relation_elem(SIG21, RelRule("pm-mixed", (1, 0, 2, 0)))
    assert rel == mono(xp(1, 0), xm(2, 0)) - mono(xm(2, 0), xp(1, 0))
    # on the diagonal at total degree 0 both phi series correct by K and K^-1
    rel = relation_elem(SIG21, RelRule("pm-mixed", (1, 1, 1, -1)))
    correction = mono(kay(1)) - mono(kinv(1))
    assert rel == mono(xp(1, 1), xm(1, -1)) - mono(xm(1, -1), xp(1, 1)) - correction.scale(
        ONE / (q - q**-1)
    )


def test_relation_elem_invalid_instances():
    with pytest.raises(ValueError):
        relation_elem(SIG21, RelRule("deg2-zero", (1, 0, 2, 0), 1))  # pairing != 0
    with pytest.raises(ValueError):
        relation_elem(SIG21, RelRule("oscillation4", (0, 0, 0, 0), 1))  # needs M,N > 1
    with pytest.raises(ValueError):
        relation_elem(SIG21, RelRule("serre3", (2, 0, 0, 1, 0), 1))  # i = M
    with pytest.raises(ValueError):
        relation_elem(SIG21, RelRule("no-such-family", (), 1))


def test_relation_instances_enumeration():
    rules = relation_instances(SIG21, range(-1, 2))
    fams = {r.family for r in rules}
    assert fams == {"cartan", "kx", "hx", "pm-mixed", "deg2-zero", "deg2-shift", "serre3"}
    # no oscillation family below M, N > 1
    assert not [r for r in rules if r.family == "oscillation4"]
    assert [r for r in relation_instances(SIG22, [0]) if r.family == "oscillation4"]
    chev = chevalley_instances(SIG21)
    assert any(r.family == "chev-deg5" for r in chev)
    with pytest.raises(ValueError):
        chevalley_instances(SIG22)


def test_phi_push_past_adjacent_node_coefficients():
    # K_1 h_1(z) past X^+_{2,b}: overall q^{-1}, shifts a_s = q^{-s} - q^{-s+2}
    e = mono(xp(2, 5))
    out = phi_push_past(SIG22, 1, e, 2)
    assert out[0] == mono(xp(2, 5)).scale(q**-1)
    assert out[1] == mono(xp(2, 6)).scale(q**-1 * (q**-1 - q))
    assert out[2] == mono(xp(2, 7)).scale(q**-1 * (q**-2 - 1))
    # orthogonal node commutes
    out3 = phi_push_past(SIG22, 1, mono(xp(3, 4)), 2)
    assert out3[0] == mono(xp(3, 4)) and out3[1].is_zero() and out3[2].is_zero()
    with pytest.raises(ValueError):
        phi_push_past(SIG22, 1, mono(xm(2, 0)), 1)
    with pytest.raises(ValueError):
        phi_push_past(SIG22, 1, e, -1)


def test_degree4_twist_orders_differ_by_deg2_zero_ideal():
    # T(x, y) = [[[a, b]_x, c]_y, b] with b the odd node: the two twist
    # orders differ by an element of the ideal of b^2 and [a, c]
    a, b, c = mono(xp(1, 0)), mono(xp(2, 0)), mono(xp(3, 0))

    def T(x, y):
        return qbracket(SIG22, qbracket(SIG22, qbracket(SIG22, a, b, x), c, y), b, ONE)

    ideal = c * a * b * b - b * b * a * c - b * (a * c - c * a) * b
    assert T(q, q**-1) - T(q**-1, q) == ideal.scale(q - q**-1)
    assert not ideal.is_zero()


def test_lambda_base_case():
    for b in (-1, 0, 2):
        for c in (-2, 0, 1):
            assert _normalize_commuting(lambda_elem(0, b, c)).is_zero()


def test_lambda_recursion_explicit():
    diff = lambda_elem(1, 0, 0) - lambda_elem(0, 0, 1)
    assert not diff.is_zero()
    assert reduce_lambda_step(diff, 0).is_zero()
    # the step rewrites X_{2,b} X_{3,c} by the deg2-shift instance (2, b-1, 3, c):
    # q X_{3,c} X_{2,b} + q X_{2,b-1} X_{3,c+1} - X_{3,c+1} X_{2,b-1}
    b, c = 0, 0
    rel = relation_elem(SIG22, RelRule("deg2-shift", (2, b - 1, 3, c), 1))
    expected = (
        mono(xp(3, c), xp(2, b)).scale(q)
        + mono(xp(2, b - 1), xp(3, c + 1)).scale(q)
        - mono(xp(3, c + 1), xp(2, b - 1))
    )
    assert mono(xp(2, b), xp(3, c)) - rel == expected


def test_mu_base_case():
    for idx in [(-1, 0, 1), (0, 0, 0), (2, -1, 1)]:
        aa, cc, dd = idx
        assert _normalize_commuting(mu_elem(aa, cc, 0, dd)).is_zero()


def test_normalize_commuting_mixed_word():
    # the even 3-1 pair sorts without a sign, the odd 2-2 pair with -1
    word = mono(xp(3, 0), xp(1, 0), xp(2, 1), xp(2, 0))
    assert _normalize_commuting(word) == mono(xp(1, 0), xp(3, 0), xp(2, 0), xp(2, 1)).scale(-ONE)
    assert _normalize_commuting(mono(xp(3, 0), xp(1, 0), xp(2, 0), xp(2, 0))).is_zero()
    # (alpha_2, alpha_3) != 0: that pair is left alone
    assert _normalize_commuting(mono(xp(3, 0), xp(2, 0))) == mono(xp(3, 0), xp(2, 0))


def test_mu_recursion_certificate():
    diff = mu_elem(0, 0, 1, 0) - mu_elem(0, 0, 0, 1)
    assert not diff.is_zero()
    assert mu_recursion_certificate(diff)
    # perturbed differences have no certificate: a word of loop degree 0 is
    # rejected by its degree alone, a word of diff's own degree 1 only by
    # the elimination
    for extra in (mono(xp(1, 0), xp(2, 0), xp(3, 0)), mono(xp(2, 0), xp(1, 1), xp(3, 0))):
        assert not mu_recursion_certificate(diff + extra)


def _certificate_full_box(diff):
    """Reference route: every candidate in the index boxes, of every loop degree."""
    indices = {1: set(), 2: set(), 3: set()}
    for word in diff.terms:
        for g in word:
            indices[g.node].add(g.index)
    boxes = {node: range(min(vals) - 1, max(vals) + 2) for node, vals in indices.items()}
    red = RowReducer()
    for i, j in [(2, 3), (3, 2), (1, 2), (2, 1), (1, 3), (3, 1)]:
        fam = "deg2-zero" if SIG22.c(i, j) == 0 else "deg2-shift"
        other = ({1, 2, 3} - {i, j}).pop()
        for m in boxes[i]:
            for n in boxes[j]:
                rel = relation_elem(SIG22, RelRule(fam, (i, m, j, n), 1))
                for t in boxes[other]:
                    g = mono(xp(other, t))
                    red.add(dict((g * rel).terms))
                    red.add(dict((rel * g).terms))
    return red.contains(dict(diff.terms))


def test_mu_certificate_two_routes():
    diffs = [mu_elem(0, 0, n, 0) - mu_elem(0, 0, n - 1, 1) for n in range(1, 5)]
    cases = [(diff, True) for diff in diffs]
    cases.append((mu_elem(-1, 2, 2, 1) - mu_elem(-1, 2, 1, 2), True))
    # negative controls at n = 2: one coefficient scaled by q, and an extra
    # word of diff's own loop degree 2
    diff = diffs[1]
    word = next(iter(diff.terms))
    cases.append((diff + Elem.monomial(word, diff.terms[word] * (q - 1)), False))
    cases.append((diff + mono(xp(2, 0), xp(1, 2), xp(3, 0)), False))
    for elem, want in cases:
        assert mu_recursion_certificate(elem) is want
        assert _certificate_full_box(elem) is want


def test_mu_certificate_relations_are_homogeneous():
    # the certificate builds only candidates of diff's loop degrees; that is
    # exact because each of its relations has a single loop degree
    for i, j in _MU_PAIRS:
        shift = SIG22.c(i, j) != 0
        fam = "deg2-shift" if shift else "deg2-zero"
        for m, n in itertools.product(range(-3, 4), repeat=2):
            rel = relation_elem(SIG22, RelRule(fam, (i, m, j, n), 1))
            assert {sum(g.index for g in w) for w in rel.terms} == {m + n + shift}


def test_appendix_a_report_small():
    rep = appendixA_check(1, [0])
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "lambda(0,0,0) = 0" in names
    assert "mu(0,0,1,0) = mu(0,0,0,1)" in names
    with pytest.raises(ValueError):
        appendixA_check(0, [0])
