import pytest

from superloop import pbw
from superloop.coeffs import ONE, q
from superloop.linalg import RowReducer
from superloop.superfree import AlgebraSignature, Elem, kay, xm, xp

SIG21 = AlgebraSignature(2, 1)
SIG31 = AlgebraSignature(3, 1)


def mono(*syms):
    return Elem.monomial(tuple(syms))


def test_root_order():
    roots = pbw.positive_roots(SIG31)
    assert roots == sorted(roots)
    assert roots[0] == pbw.Root(1, 1)
    assert pbw.Root(1, 3) < pbw.Root(2, 2)
    with pytest.raises(ValueError):
        pbw.Root(2, 1)


def test_root_vector_convention():
    assert pbw.root_vector(SIG21, pbw.Root(1, 1), 5) == mono(xp(1, 5))


def test_root_vector_single_bracket():
    # (2,1): alpha_1 even, alpha_2 odd, twist q_2 = q
    got = pbw.root_vector(SIG21, pbw.Root(1, 2), 0)
    expected = mono(xp(1, 0), xp(2, 0)) - mono(xp(2, 0), xp(1, 0)).scale(q)
    assert got == expected


def test_root_vector_word_count():
    assert pbw.root_vector(SIG31, pbw.Root(1, 3), 1).nterms() == 4


def test_enumerate_pbw_counts():
    assert len(pbw.enumerate_pbw(SIG21, [1, 0], [0])) == 1
    assert len(pbw.enumerate_pbw(SIG21, [1, 1], [0])) == 2
    assert len(pbw.enumerate_pbw(SIG21, [1, 1], [-1, 0, 1])) == 12
    assert pbw.enumerate_pbw(SIG21, [-1, 0], [0]) == []


def test_enumerate_pbw_ordering_and_json():
    monos = pbw.enumerate_pbw(SIG21, [2, 1], [0, 1])
    for m in monos:
        roots = [r for r, _ in m.factors]
        assert roots == sorted(roots)
    with pytest.raises(ValueError):
        pbw.PBWMonomial(((pbw.Root(2, 2), 0), (pbw.Root(1, 1), 0)))


def test_all_words():
    words = pbw.all_words(SIG21, [1, 1], [0])
    assert len(words) == 2
    assert pbw.all_words(SIG21, [0, 2], [0, 1]) == sorted(
        pbw.all_words(SIG21, [0, 2], [0, 1])
    )


def test_tau1():
    assert pbw.tau1(mono(xp(1, 3))) == mono(xm(1, -3))
    # algebra map: word order kept
    e = mono(xp(1, 1), xp(2, 0)).scale(q)
    assert pbw.tau1(e) == mono(xm(1, -1), xm(2, 0)).scale(q)
    with pytest.raises(ValueError):
        pbw.tau1(mono(kay(1)))


def test_tau1_of_root_vector_is_negative_root_vector():
    # X_beta^-(n) := tau1(X_beta(-n)) lands in the minus subalgebra
    el = pbw.tau1(pbw.root_vector(SIG21, pbw.Root(1, 2), -1))
    for word in el.terms:
        assert all(g.kind == "X-" for g in word)
    assert SIG21.elem_weight(el) == (-1, -1)


def test_pbw_spanning_on_vector(ev21):
    # module-level spanning with a chosen vector: PBW images span word images
    v = {0: ONE, 1: ONE, 2: ONE}
    window = [-1, 0, 1]
    for wt in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        red_words = RowReducer()
        for word in pbw.all_words(SIG21, list(wt), window):
            red_words.add(ev21.elem_matrix(Elem.monomial(word)).apply(v))
        red_pbw = RowReducer()
        for m in pbw.enumerate_pbw(SIG21, list(wt), window):
            red_pbw.add(ev21.elem_matrix(pbw.monomial_elem(SIG21, m)).apply(v))
        assert red_pbw.rank == red_words.rank
