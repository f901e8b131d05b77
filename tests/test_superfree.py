import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

from superloop import superfree
from superloop.coeffs import ONE, q, scalar
from superloop.linalg import RowReducer
from superloop.modrep import ModuleError
from superloop.superfree import (
    AlgebraSignature,
    Elem,
    GenSym,
    RelRule,
    aitch,
    appendixA_check,
    chevalley_instances,
    e0m,
    e0p,
    kay,
    kinv,
    lambda_elem,
    mu_elem,
    mu_recursion_certificate,
    phi_coeff,
    phi_push_past,
    relation_elem,
    relation_instances,
    super_comm,
    xm,
    xp,
    _deg2_zero_normal_form,
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


def test_signature_tables_match_the_cartan_formula():
    # c and parity_node read tables built with the signature; compare them with
    # (alpha_i, alpha_j) = l_i + l_{i+1} on the diagonal, -l_max(i,j) next to it
    for sig in (SIG21, SIG22, SIG31, AlgebraSignature(1, 3), AlgebraSignature(3, 0)):
        nodes = range(1, sig.n_nodes + 1)
        for i, j in itertools.product(nodes, nodes):
            want = sig.l(i) + sig.l(i + 1) if i == j else -sig.l(max(i, j)) * (abs(i - j) == 1)
            assert sig.c(i, j) == want
        assert [sig.parity_node(i) for i in nodes] == [int(i == sig.M) for i in nodes]
        # a lookup miss is a node off the signature, with the node-check message
        top = sig.n_nodes + 1
        msg = rf"node {top} out of range for \({sig.M},{sig.N}\)"
        for call in (lambda: sig.c(1, top), lambda: sig.c(top, 1), lambda: sig.parity_node(top)):
            with pytest.raises(ValueError, match=msg):
                call()


def test_parity_of_checks_the_node():
    # every kind of symbol must sit on a node of the signature (E0+- on node 0)
    for g in (kay(7), kinv(0), aitch(5, 1), xp(3, 0), xm(0, 1)):
        with pytest.raises(ValueError, match=f"node {g.node} out of range for \\(2,1\\)"):
            SIG21.parity_of(g)
    assert [SIG21.parity_of(g) for g in (xp(2, 0), xm(1, 1), kay(2), aitch(2, -3), e0p())] == [
        1, 0, 0, 0, 1
    ]
    assert SIG31.parity_of(e0m()) == 1 and AlgebraSignature(3, 0).parity_of(e0m()) == 0


def test_gensym_validation(ev21):
    with pytest.raises(ValueError):
        GenSym("K", 1, 2)
    with pytest.raises(ValueError):
        GenSym("H", 1, 0)
    with pytest.raises(ValueError):
        GenSym("E0+", 1, 1)
    # a symbol off the signature's nodes names no current: K_0 is a product of the K_i
    for g in (kay(0), kinv(7), aitch(5, 1)):
        with pytest.raises(ModuleError):
            ev21.gen(g)
    with pytest.raises(ValueError, match="node 3 out of range"):
        ev21.gen(xp(3, 1))


def test_gensym_make_and_replace_validate():
    # namedtuple's _make and _replace go through the same checks as GenSym(...)
    with pytest.raises(ValueError, match="K symbols carry loop index 0"):
        xp(1, 0)._replace(kind="K", index=2)
    with pytest.raises(ValueError, match="nonzero loop index"):
        GenSym._make(("H", 1, 0))
    assert xp(1, 0)._replace(index=3) == xp(1, 3)
    assert type(GenSym._make(("X-", 2, 1))) is GenSym
    for g in (xp(1, 0), kay(2), aitch(1, -2), e0m()):
        for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert back == g and type(back) is GenSym


# a spread of symbols with the repr each had as a frozen, ordered dataclass
GENSYM_REPRS = {
    xp(1, 0): "GenSym(kind='X+', node=1, index=0)",
    xm(2, -1): "GenSym(kind='X-', node=2, index=-1)",
    kay(3): "GenSym(kind='K', node=3, index=0)",
    kinv(1): "GenSym(kind='Kinv', node=1, index=0)",
    aitch(2, -3): "GenSym(kind='H', node=2, index=-3)",
    e0p(): "GenSym(kind='E0+', node=0, index=1)",
    e0m(): "GenSym(kind='E0-', node=0, index=-1)",
    xp(1, -2): "GenSym(kind='X+', node=1, index=-2)",
    xp(10, 1): "GenSym(kind='X+', node=10, index=1)",
    aitch(1, 8): "GenSym(kind='H', node=1, index=8)",
    xm(1, 0): "GenSym(kind='X-', node=1, index=0)",
    xp(2, 0): "GenSym(kind='X+', node=2, index=0)",
}


def test_gensym_hashes_and_compares_as_a_tuple():
    # a word's hash, == and < then run in C, with no Python call per symbol
    assert GenSym.__hash__ is tuple.__hash__
    assert GenSym.__eq__ is tuple.__eq__ and GenSym.__lt__ is tuple.__lt__


def test_gensym_keeps_the_dataclass_behaviour():
    syms = list(GENSYM_REPRS)
    assert [repr(g) for g in syms] == list(GENSYM_REPRS.values())
    assert [str(g) for g in syms] == [
        "X+_{1,0}", "X-_{2,-1}", "K_3", "Kinv_1", "H_{2,-3}", "E0+", "E0-",
        "X+_{1,-2}", "X+_{10,1}", "H_{1,8}", "X-_{1,0}", "X+_{2,0}",
    ]
    # the dataclass ordered by its field tuple, and hashed it
    assert [syms.index(g) for g in sorted(syms)] == [5, 6, 9, 4, 2, 3, 7, 0, 11, 8, 10, 1]
    for g, h in itertools.product(syms, syms):
        assert (g == h) == (g is h) and (g < h) == ((g.kind, g.node, g.index) < (h.kind, h.node, h.index))
    for g in syms:
        assert hash(g) == hash((g.kind, g.node, g.index))
        assert g == GenSym(g.kind, g.node, g.index) and hash(g) == hash(GenSym(g.kind, g.node, g.index))
    with pytest.raises(AttributeError):
        xp(1, 0).node = 2
    with pytest.raises(AttributeError):
        xp(1, 0).extra = 1
    for args, message in [
        (("Y", 1, 0), "unknown generator kind 'Y'"),
        (("K", 1, 2), "K symbols carry loop index 0"),
        (("H", 1, 0), "H symbols need a nonzero loop index"),
        (("E0-", 0, 1), "E0 symbols live at node 0 with loop index"),
    ]:
        with pytest.raises(ValueError, match=message):
            GenSym(*args)


def test_elem_rejects_a_bare_symbol_as_a_word():
    # a symbol is a tuple, but never a 3-letter word
    with pytest.raises(TypeError):
        Elem.monomial(xp(1, 0))
    with pytest.raises(TypeError):
        Elem({xp(1, 0): ONE})
    assert Elem.monomial([xp(1, 0)]) == mono(xp(1, 0))


def test_elem_arithmetic_matches_the_coercing_constructor():
    """Sums, differences, products, scales, negations and substitutions give the
    terms the coercing constructor gives, in the same order, with no zero term."""
    rng = random.Random(7)
    letters = [xp(1, 0), xp(1, 1), xp(2, 0), xm(2, -1), kay(1)]

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
            terms[word] = scalar(rng.choice([-2, -1, 1, 3])) * q ** rng.randint(-1, 1)
        return Elem(terms)

    def coerced(terms: dict) -> Elem:
        return Elem({word: coeff for word, coeff in terms.items()})

    def add(x, y, sign):
        terms = dict(x.terms)
        for word, coeff in y.terms.items():
            terms[word] = terms.get(word, scalar(0)) + sign * coeff
        return coerced(terms)

    def mul(x, y):
        terms = {}
        for (w1, c1), (w2, c2) in itertools.product(x.terms.items(), y.terms.items()):
            terms[w1 + w2] = terms.get(w1 + w2, scalar(0)) + c1 * c2
        return coerced(terms)

    def subst(x, fn):
        terms = {}
        for word, coeff in x.terms.items():
            key = tuple(map(fn, word))
            terms[key] = terms.get(key, scalar(0)) + coeff
        return coerced(terms)

    flatten = lambda g: xp(g.node, 0) if g.kind == "X+" else g
    cancelled = 0
    for _ in range(200):
        x, y = rand_elem(), rand_elem()
        y = y - x.scale(rng.choice([0, 1]))  # x + y then cancels x's words
        s = rng.choice([0, 1, -1, 2, q, q**-1 - q])
        cases = [
            (x + y, add(x, y, 1)),
            (x - y, add(x, y, -1)),
            (x * y, mul(x, y)),
            (y * x - x * y, add(mul(y, x), mul(x, y), -1)),
            (x.scale(s), coerced({w: scalar(s) * c for w, c in x.terms.items()})),
            (-x, coerced({w: -c for w, c in x.terms.items()})),
            (subst(x, flatten) - x.map_symbols(flatten), Elem()),
            (x.map_symbols(flatten), subst(x, flatten)),
        ]
        for got, want in cases:
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(w) is tuple and c for w, c in got.terms.items())
        cancelled += len((x + y).terms) < len(set(x.terms) | set(y.terms))
    assert cancelled > 20  # zero coefficients were dropped, not merely absent


def test_elem_algebra():
    e = mono(xp(1, 0)) + mono(xp(1, 0))
    assert e == mono(xp(1, 0)).scale(2)
    assert (e - e).is_zero()
    prod = mono(xp(1, 0)) * mono(xp(2, 1))
    assert prod.words() == [(xp(1, 0), xp(2, 1))]


def test_qbracket_signs():
    # [x, y]_u = xy - (-1)^{px py} u yx, the parities stated by the caller
    x, y = mono(xp(1, 0)), mono(xp(1, 1))  # both even
    assert super_comm(x, 0, y, 0) == x * y - y * x
    u, v = mono(xp(2, 0)), mono(xp(2, 1))  # both odd
    assert super_comm(u, 1, v, 1) == u * v + v * u
    assert super_comm(x, 0, u, 1, q) == x * u - (u * x).scale(q)


def test_qbracket_anticommutativity():
    for x, y in [(xp(1, 0), xp(2, 1)), (xp(2, 0), xm(2, 1))]:
        px, py = SIG21.parity_of(x), SIG21.parity_of(y)
        x, y = mono(x), mono(y)
        sgn = -ONE if (px and py) else ONE
        for u in (q, q**-2, scalar(3)):
            lhs = super_comm(x, px, y, py, u)
            rhs = super_comm(y, py, x, px, u**-1).scale(sgn * u)
            assert lhs == -rhs


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
    # s [h_{i,s}, X_{j,n}^+] = [s l_i c_ij]_{q_i} X_{j,n+s}^+
    rel = relation_elem(SIG21, RelRule("hx", (1, 1, 1, 0), 1))
    coeff = (q**2 - q**-2) / (q - q**-1)
    expected = (
        mono(aitch(1, 1), xp(1, 0))
        - mono(xp(1, 0), aitch(1, 1))
        - mono(xp(1, 1)).scale(coeff)
    )
    assert rel == expected
    # at s = 2 the bracket is stated times 2
    rel = relation_elem(SIG21, RelRule("hx", (1, 2, 1, 0), 1))
    coeff = (q**4 - q**-4) / (q - q**-1)
    bracket = mono(aitch(1, 2), xp(1, 0)) - mono(xp(1, 0), aitch(1, 2))
    assert rel == bracket.scale(2) - mono(xp(1, 2)).scale(coeff)


def test_relation_elem_pm_mixed_offdiag():
    rel = relation_elem(SIG21, RelRule("pm-mixed", (1, 0, 2, 0)))
    assert rel == mono(xp(1, 0), xm(2, 0)) - mono(xm(2, 0), xp(1, 0))
    # on the diagonal at total degree 0 both phi series correct by K and K^-1;
    # the bracket is stated times q - q^-1
    rel = relation_elem(SIG21, RelRule("pm-mixed", (1, 1, 1, -1)))
    bracket = mono(xp(1, 1), xm(1, -1)) - mono(xm(1, -1), xp(1, 1))
    assert rel == bracket.scale(q - q**-1) - (mono(kay(1)) - mono(kinv(1)))


def test_relation_elem_chev_mixed_diagonal():
    # (q_i - q_i^-1) [E_i, F_i] - (K_i - K_i^-1); E0+- are odd on (2,1)
    rel = relation_elem(SIG21, RelRule("chev-mixed", (1, 1)))
    bracket = mono(xp(1, 0), xm(1, 0)) - mono(xm(1, 0), xp(1, 0))
    assert rel == bracket.scale(q - q**-1) - (mono(kay(1)) - mono(kinv(1)))
    # K_0 = (K_1 K_2)^-1
    rel = relation_elem(SIG21, RelRule("chev-mixed", (0, 0)))
    bracket = mono(e0p(), e0m()) + mono(e0m(), e0p())
    k0 = mono(kinv(1), kinv(2)) - mono(kay(1), kay(2))
    assert rel == bracket.scale(q - q**-1) - k0


def test_relation_elem_invalid_instances():
    # one instance outside each family's domain
    outside = [
        (SIG21, RelRule("cartan", ("kh", 1, 2, 0))),  # h index 0
        (SIG21, RelRule("cartan", ("kq", 1, 2))),  # no such subfamily
        (SIG21, RelRule("hx", (1, 0, 1, 0), 1)),  # h index 0
        (SIG21, RelRule("deg2-zero", (1, 0, 2, 0), 1)),  # pairing != 0
        (SIG21, RelRule("deg2-shift", (2, 0, 2, 0), 1)),  # pairing = 0
        (SIG21, RelRule("serre3", (2, 0, 0, 1, 0), 1)),  # i = M
        (SIG21, RelRule("oscillation4", (0, 0, 0, 0), 1)),  # needs M, N > 1
        (SIG21, RelRule("chev-zero", (1, 1), 1)),  # pairing 2
        (SIG21, RelRule("chev-serre3", (0, 1), 1)),  # i = 0
        (SIG21, RelRule("chev-deg4", (0,), 1)),  # needs M + N > 3
        (SIG31, RelRule("chev-deg5", (), 1)),  # (2,1) only
    ]
    # every family: nodes on the signature (0..2 for the affine ones on (2,1)),
    # enough indices to name them, and h_{i,s} with |s| <= H_BOUND = 8
    outside += [
        (SIG21, rule)
        for rule in (
            RelRule("hx", (1, 9, 1, 0)),  # h_{1,9}
            RelRule("hx", (1, -9, 2, 0), -1),
            RelRule("cartan", ("kh", 1, 2, 9)),
            RelRule("cartan", ("hh", 1, 1, 2, -9)),
            RelRule("pm-mixed", (1, 5, 1, 4)),  # the phi coefficient reads h_{1,9}
            RelRule("cartan", ("kk", 1, 7)),  # node 7
            RelRule("cartan", ("inv", 0)),
            RelRule("kx", (0, 1, 0)),
            RelRule("hx", (3, 1, 1, 0)),
            RelRule("pm-mixed", (1, 0, 3, 0)),
            RelRule("deg2-zero", (0, 0, 1, 0)),
            RelRule("serre3", (1, 0, 0, 3, 0)),
            RelRule("chev-kx", (0, 3)),
            RelRule("chev-mixed", (-1, 1)),
            RelRule("kx", (1,)),
            RelRule("serre3", (1, 0, 0)),
            # a cartan subfamily with the wrong number of indices
            RelRule("cartan", ("inv", 1, 2)),
            RelRule("cartan", ("vni",)),
            RelRule("cartan", ("kk", 1)),
            RelRule("cartan", ("kh", 1, 2)),
            RelRule("cartan", ("hh", 1, 1, 2)),
            # one index too many, or a chev-deg4/chev-deg5 index that names nothing
            RelRule("hx", (1, 1, 1, 0, 5)),
            RelRule("kx", (1, 1, 0, 5)),
            RelRule("pm-mixed", (1, 0, 2, 0, 5)),
            RelRule("serre3", (1, 0, 0, 2, 0, 5)),
            RelRule("chev-kx", (0, 1, 5)),
            RelRule("chev-zero", (0, 2, 5)),
            RelRule("chev-deg5", (1,)),
        )
    ]
    outside += [
        (SIG22, RelRule("oscillation4", (0, 0, 0, 0, 5))),
        (SIG22, RelRule("deg2-shift", (2, 0, 3, 0, 5))),
        (SIG31, RelRule("chev-deg4", (0, 5))),
        (SIG31, RelRule("chev-deg4", (2,))),
    ]
    for sig, rule in outside:
        with pytest.raises(ValueError, match="is not a relation instance"):
            relation_elem(sig, rule)
    assert superfree.H_BOUND == 8
    for rule in (RelRule("hx", (1, 8, 1, 0)), RelRule("pm-mixed", (1, 4, 1, 4)),
                 RelRule("pm-mixed", (1, 5, 2, 4)), RelRule("chev-kx", (0, 2))):
        assert not relation_elem(SIG21, rule).is_zero()
    with pytest.raises(ValueError, match="unknown relation family"):
        relation_elem(SIG21, RelRule("no-such-family", (), 1))


def test_relation_instances_enumeration():
    rules = relation_instances(SIG21, range(-1, 2))
    # no oscillation family below M, N > 1
    assert Counter(r.family for r in rules) == {
        "cartan": 19, "kx": 24, "hx": 48, "pm-mixed": 36,
        "deg2-zero": 18, "deg2-shift": 54, "serre3": 36,
    }
    assert [r for r in relation_instances(SIG22, [0]) if r.family == "oscillation4"]
    assert Counter(r.family for r in chevalley_instances(SIG21)) == {
        "chev-kx": 18, "chev-mixed": 9, "chev-zero": 4, "chev-serre3": 4, "chev-deg5": 2,
    }
    assert Counter(r.family for r in chevalley_instances(SIG31)) == {
        "chev-kx": 32, "chev-mixed": 16, "chev-zero": 8, "chev-serre3": 8, "chev-deg4": 4,
    }
    with pytest.raises(ValueError):
        chevalley_instances(SIG22)


def test_oscillation4_domain_is_decided_once(monkeypatch):
    # the family's domain reads only the signature: one question per enumeration, not one per index
    asked = []
    admissible = superfree._admissible

    def counting(sig, family, indices):
        asked.extend([indices] if family == "oscillation4" else [])
        return admissible(sig, family, indices)

    monkeypatch.setattr(superfree, "_admissible", counting)
    assert Counter(r.family for r in relation_instances(SIG21, range(-2, 3)))["oscillation4"] == 0
    assert len(asked) == 1
    assert Counter(r.family for r in relation_instances(SIG22, range(-1, 2)))["oscillation4"] == 2 * 54
    assert len(asked) == 2 + 54


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
    assert [SIG22.parity_node(k) for k in (1, 2, 3)] == [0, 1, 0]

    def T(x, y):
        # [a, b]_x and [[a, b]_x, c]_y are odd
        return super_comm(super_comm(super_comm(a, 0, b, 1, x), 1, c, 0, y), 1, b, 1)

    ideal = c * a * b * b - b * b * a * c - b * (a * c - c * a) * b
    assert T(q, q**-1) - T(q**-1, q) == ideal.scale(q - q**-1)
    assert not ideal.is_zero()


def test_lambda_base_case():
    for b in (-1, 0, 2):
        for c in (-2, 0, 1):
            assert _deg2_zero_normal_form(lambda_elem(0, b, c)).is_zero()


def test_perturbed_base_cases_stay_nonzero():
    # negative controls: a mu coefficient times q, and an extra lambda word
    # whose adjacent pairs no deg2-zero rewrite touches (every lambda(0,b,c)
    # word holds an odd square, so scaling one of its coefficients would not bite)
    base = mu_elem(0, 0, 0, 0)
    word = next(iter(base.terms))
    perturbed = base + Elem.monomial(word, base.terms[word] * (q - 1))
    assert not _deg2_zero_normal_form(perturbed).is_zero()
    extra = mono(xp(2, 0), xp(3, 0), xp(2, 1))
    assert _deg2_zero_normal_form(lambda_elem(0, 0, 0) + extra) == extra


def test_lambda_recursion_explicit():
    diff = lambda_elem(1, 0, 0) - lambda_elem(0, 0, 1)
    assert not diff.is_zero()
    assert mu_recursion_certificate(diff)
    # X_{2,b} X_{3,c} enters the deg2-shift instance (2, b-1, 3, c) with
    # coefficient 1, the rest of which is
    # q X_{3,c} X_{2,b} + q X_{2,b-1} X_{3,c+1} - X_{3,c+1} X_{2,b-1}
    b, c = 0, 0
    rel = relation_elem(SIG22, RelRule("deg2-shift", (2, b - 1, 3, c), 1))
    expected = (
        mono(xp(3, c), xp(2, b)).scale(q)
        + mono(xp(2, b - 1), xp(3, c + 1)).scale(q)
        - mono(xp(3, c + 1), xp(2, b - 1))
    )
    assert mono(xp(2, b), xp(3, c)) - rel == expected


def test_lambda_step_leaves_a_foreign_word():
    # negative control: one more X2 X3 X2 word of diff's loop degree 1 has no certificate
    diff = lambda_elem(1, 0, 0) - lambda_elem(0, 0, 1)
    extra = mono(xp(2, 0), xp(3, 0), xp(2, 1))
    assert not mu_recursion_certificate(diff + extra)
    assert mu_recursion_certificate(diff)


def _lambda_by_products(n, b, c, a_coeff=superfree._a_coeff):
    """Reference route: lambda as Elem products of one-word elements."""
    ser = [mono(xp(2, b))] + [mono(xp(2, b + s)).scale(a_coeff(s)) for s in range(1, n + 1)]
    x3, x2 = mono(xp(3, c)), mono(xp(2, b))
    out = Elem.zero()
    for s in range(0, n + 1):
        out += ser[s].scale(q**-2) * x3 * ser[n - s]
    out += (x3 * x2 * ser[n]).scale(q**-1)
    out += (x2 * ser[n] * x3).scale(q**-1)
    if n == 0:
        out += x2 * x3 * x2
    out -= (x2 * x3 * ser[n]).scale((q + q**-1) * q**-1)
    return out


def _mu_by_products(a, c, n, d, a_coeff=superfree._a_coeff):
    """Reference route: mu as Elem products of one-word elements."""
    x1 = lambda k: mono(xp(1, k))
    x3 = lambda k: mono(xp(3, k))
    x2 = mono(xp(2, d))
    if n == 0:
        comm = x1(a) * x3(c) - x3(c) * x1(a)
        return (comm * x2 - x2 * comm).scale(q**-1)
    an, bn = a_coeff(n), superfree._b_coeff(n)
    out = Elem.zero()
    out -= (x1(a) * x3(c + n) * x2).scale(q * bn)
    out -= (x3(c) * x1(a + n) * x2).scale(q**-1 * an)
    out += (x2 * x1(a) * x3(c + n)).scale(q * bn)
    out -= (x1(a) * x2 * x3(c + n)).scale(bn)
    out -= (x1(a + n) * x2 * x3(c)).scale(an)
    out -= (x3(c) * x2 * x1(a + n)).scale(an)
    out -= (x3(c + n) * x2 * x1(a)).scale(bn)
    out += (x2 * x3(c) * x1(a + n)).scale(q**-1 * an)
    for s in range(1, n):
        t = n - s
        ab = a_coeff(s) * superfree._b_coeff(t)
        out += (x1(a + s) * x3(c + t) * x2).scale((q + q**-1) * ab)
        out -= (x1(a + s) * x2 * x3(c + t)).scale(ab)
        out -= (x3(c + t) * x2 * x1(a + s)).scale(ab)
    out += (x1(a) * x3(c + n) * x2).scale((q + q**-1) * bn)
    out += (x1(a + n) * x3(c) * x2).scale((q + q**-1) * an)
    return out


def test_lambda_mu_builders_two_routes():
    # the term-dict builders against the product forms, n = 0..4, negative indices included
    detuned = lambda s: q * superfree._a_coeff(s)  # a_s -> q a_s
    for n in range(5):
        for b, c in itertools.product((-2, -1, 0, 1), repeat=2):
            assert lambda_elem(n, b, c) == _lambda_by_products(n, b, c)
            if n:  # a_s enters from n = 1 on
                assert lambda_elem(n, b, c) != _lambda_by_products(n, b, c, detuned)
        for a, c, d in itertools.product((-2, 0, 1), repeat=3):
            assert mu_elem(a, c, n, d) == _mu_by_products(a, c, n, d)
            if n:
                assert mu_elem(a, c, n, d) != _mu_by_products(a, c, n, d, detuned)


def test_mu_base_case():
    for idx in [(-1, 0, 1), (0, 0, 0), (2, -1, 1)]:
        aa, cc, dd = idx
        assert _deg2_zero_normal_form(mu_elem(aa, cc, 0, dd)).is_zero()


def test_deg2_zero_normal_form_mixed_word():
    # the even 3-1 pair sorts without a sign, the odd 2-2 pair with -1
    word = mono(xp(3, 0), xp(1, 0), xp(2, 1), xp(2, 0))
    assert _deg2_zero_normal_form(word) == mono(xp(1, 0), xp(3, 0), xp(2, 0), xp(2, 1)).scale(-ONE)
    assert _deg2_zero_normal_form(mono(xp(3, 0), xp(1, 0), xp(2, 0), xp(2, 0))).is_zero()
    # (alpha_2, alpha_3) != 0: that pair is left alone
    assert _deg2_zero_normal_form(mono(xp(3, 0), xp(2, 0))) == mono(xp(3, 0), xp(2, 0))


def test_mu_recursion_certificate():
    diff = mu_elem(0, 0, 1, 0) - mu_elem(0, 0, 0, 1)
    assert not diff.is_zero()
    assert mu_recursion_certificate(diff)
    # perturbed differences have no certificate: a word of loop degree 0 is
    # rejected by its degree alone, a word of diff's own degree 1 only by
    # the elimination, and a word with an X^- letter, which no candidate
    # touches, because the walk from diff's words never reaches it
    for extra in (
        mono(xp(1, 0), xp(2, 0), xp(3, 0)),
        mono(xp(2, 0), xp(1, 1), xp(3, 0)),
        mono(xm(1, 0), xp(2, 1), xp(3, 0)),
    ):
        assert not mu_recursion_certificate(diff + extra)


def _certificate_full_box(diff):
    """Reference route: every candidate in the index boxes, of every loop degree.

    The ordered pairs are read off the positions of the node multiset of
    diff's first word, with the node at the third position as the extra letter.
    """
    nodes = sorted(g.node for g in next(iter(diff.terms)))
    indices = {node: set() for node in nodes}
    for word in diff.terms:
        for g in word:
            indices[g.node].add(g.index)
    boxes = {node: range(min(vals) - 1, max(vals) + 2) for node, vals in indices.items()}
    red = RowReducer()
    for x, y in itertools.permutations(range(3), 2):
        i, j, other = nodes[x], nodes[y], nodes[3 - x - y]
        fam = "deg2-zero" if SIG22.c(i, j) == 0 else "deg2-shift"
        for m in boxes[i]:
            for n in boxes[j]:
                rel = relation_elem(SIG22, RelRule(fam, (i, m, j, n), 1))
                for t in boxes[other]:
                    g = mono(xp(other, t))
                    red.add(dict((g * rel).terms))
                    red.add(dict((rel * g).terms))
    return red.contains(dict(diff.terms))


def test_mu_certificate_two_routes():
    mu_diffs = [mu_elem(0, 0, n, 0) - mu_elem(0, 0, n - 1, 1) for n in range(1, 5)]
    lambda_diffs = [lambda_elem(n, 0, 0) - lambda_elem(n - 1, 0, 1) for n in range(1, 5)]
    cases = [(diff, True) for diff in mu_diffs + lambda_diffs]
    cases.append((mu_elem(-1, 2, 2, 1) - mu_elem(-1, 2, 1, 2), True))
    cases.append((lambda_elem(2, -1, 2) - lambda_elem(1, -1, 3), True))
    # negative controls at n = 2: one coefficient scaled by q, and an extra
    # word of diff's own loop degree 2
    for diff, extra in (
        (mu_diffs[1], mono(xp(2, 0), xp(1, 2), xp(3, 0))),
        (lambda_diffs[1], mono(xp(2, 0), xp(2, 1), xp(3, 1))),
    ):
        word = next(iter(diff.terms))
        cases.append((diff + Elem.monomial(word, diff.terms[word] * (q - 1)), False))
        cases.append((diff + extra, False))
    for elem, want in cases:
        assert mu_recursion_certificate(elem) is want
        assert _certificate_full_box(elem) is want


def test_mu_certificate_relations_are_homogeneous():
    # the certificate builds only candidates of diff's loop degrees; that is
    # exact because each of its relations has a single loop degree
    # the ordered pairs of the mu nodes [1, 2, 3] and the lambda nodes [2, 2, 3]
    pairs = {(i, j) for nodes in ((1, 2, 3), (2, 2, 3)) for i, j, _ in itertools.permutations(nodes)}
    assert len(pairs) == 7
    for i, j in sorted(pairs):
        shift = SIG22.c(i, j) != 0
        fam = "deg2-shift" if shift else "deg2-zero"
        for m, n in itertools.product(range(-3, 4), repeat=2):
            rel = relation_elem(SIG22, RelRule(fam, (i, m, j, n), 1))
            assert {sum(g.index for g in w) for w in rel.terms} == {m + n + shift}


def test_replay_counts(monkeypatch):
    # one replay at nmax 3, window 1 from an empty relation cache: one
    # certificate per lambda and mu step n, each relation built once and only
    # when one of its candidates has a degree of diff, no Elem product
    # anywhere, and the walks fed 381 vectors before diff's span was reached
    superfree._relation_terms.cache_clear()
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(superfree, "relation_elem", counted("relation_elem", relation_elem))
    monkeypatch.setattr(
        superfree, "mu_recursion_certificate", counted("certificate", mu_recursion_certificate)
    )
    monkeypatch.setattr(Elem, "__mul__", counted("elem_mul", Elem.__mul__))
    monkeypatch.setattr(RowReducer, "add", counted("reducer_add", RowReducer.add))
    assert appendixA_check(3, range(-1, 2))["passed"]
    assert counts == {"relation_elem": 153, "certificate": 6, "reducer_add": 381}


def test_appendix_a_reports_failed_claims(monkeypatch):
    # an extra word in every lambda(0, b, c) fails the lambda base cases and
    # the first lambda step, each decided at the base indices, and leaves
    # every other claim alone
    build = superfree.lambda_elem

    def perturbed(n, b, c):
        extra = mono(xp(2, b), xp(3, c), xp(2, b + 1))
        return build(n, b, c) + extra if n == 0 else build(n, b, c)

    monkeypatch.setattr(superfree, "lambda_elem", perturbed)
    rep = appendixA_check(2, [0, 1])
    failed = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    pairs = list(itertools.product((0, 1), repeat=2))
    assert failed == {
        **{f"lambda(0,{b},{c}) = 0": "" for b, c in pairs},
        **{f"lambda(1,{b},{c}) = lambda(0,{b},{c + 1})": "no degree-2 certificate found" for b, c in pairs},
    }
    assert not rep["passed"] and len(rep["checks"]) == 4 * 3 + 8 * 3
    # the same word at lambda(0, 1, 1) alone: the base indices still pass, and
    # the two claims that read it fail by the comparison with the translate
    monkeypatch.setattr(
        superfree, "lambda_elem", lambda n, b, c: (perturbed if (n, b, c) == (0, 1, 1) else build)(n, b, c)
    )
    rep = appendixA_check(2, [0, 1])
    failed = {c["name"]: c["detail"] for c in rep["checks"] if c["status"] == "fail"}
    assert failed == {
        "lambda(0,1,1) = 0": "",
        "lambda(1,1,0) = lambda(0,1,1)": "no degree-2 certificate found",
    }


def test_appendix_a_report_small():
    rep = appendixA_check(1, [0])
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "lambda(0,0,0) = 0" in names
    assert "mu(0,0,1,0) = mu(0,0,0,1)" in names
    with pytest.raises(ValueError):
        appendixA_check(0, [0])
