import pytest
from helpers import count_field_ops, mat_from_rows, vector_reference

from superloop import cli, modrep, pbw, superfree, weyl
from superloop.coeffs import ONE, ZERO, ZPoly, a, b, q, qint_base, scalar
from superloop.linalg import Mat, RowReducer, kron_super
from superloop.modrep import (
    LoopModule,
    ModuleError,
    check_relation,
    evaluation_pullback,
    fundamental,
    highest_weight,
    pi_pullback,
    relation_report,
    tensor,
)
from superloop.superfree import (
    AlgebraSignature,
    Elem,
    GenSym,
    RelRule,
    chevalley_instances,
    e0m,
    e0p,
    kay,
    kinv,
    phi_coeff,
    phi_push_past,
    relation_elem,
    relation_instances,
    relation_value,
    super_comm,
    xm,
    xp,
)

SIG21 = AlgebraSignature(2, 1)


def test_fundamental_shape(fund21):
    assert fund21.dim == 3
    assert fund21.parity == [0, 0, 1]
    # K_1 = t_1 t_2^-1 and K_2 = t_2 t_3 with t_i = q^{E_ii} (certified by the gate)
    assert fund21.gen(kay(1)) == mat_from_rows([[q, 0, 0], [0, q**-1, 0], [0, 0, 1]])
    assert fund21.gen(kay(2)) == mat_from_rows([[1, 0, 0], [0, q, 0], [0, 0, q]])

    def parities(m):
        """The parities row + column over the nonzero entries: one for a homogeneous map."""
        return {(fund21.parity[r] + fund21.parity[c]) % 2 for r, c in m.data}

    # X^+-_{j,0} is odd exactly at the odd node j = M; every K_i^{+-1} is even
    for j in (1, 2):
        ep, em = fund21.gen(("X+", j, 0)), fund21.gen(("X-", j, 0))
        assert parities(ep) == parities(em) == {1 if j == fund21.sig.M else 0}
        assert parities(fund21.gen(kay(j))) == parities(fund21.gen(kinv(j))) == {0}


def test_fundamental_requires_positive_ranks():
    with pytest.raises(ModuleError):
        fundamental(0, 2)


def _finite_failures(lm):
    """The failing checks of the gate of ``fundamental`` on ``lm``."""
    report = relation_report(lm, window=0, families=modrep._FINITE_FAMILIES)
    return {c["name"] for c in report["checks"] if c["status"] == "fail"}


def test_fundamental_11_passes():
    mod = fundamental(1, 1)
    report = relation_report(mod, window=0, families=modrep._FINITE_FAMILIES)
    assert report["passed"]
    assert {"cartan(+)", "kx(+)", "kx(-)", "pm-mixed(+)"} <= {c["name"] for c in report["checks"]}


def _with_current(lm, key, mat):
    """A copy of the finite module ``lm`` whose current ``key`` acts by ``mat``."""
    return LoopModule(lm.sig, lm.parity, {**lm._cache, key: mat})


def test_corrupted_raising_operator_fails(fund21):
    # wrong matrix-unit support: the K_i conjugation of the catalog detects it
    bad = _with_current(fund21, ("X+", 1, 0), mat_from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]))
    assert "kx(+)" in _finite_failures(bad)


def test_rescaled_lowering_operator_fails_pm_mixed(fund21):
    # a rescaled e_1^- keeps every torus twist but breaks [e_1^+, e_1^-]
    bad = _with_current(fund21, ("X-", 1, 0), fund21.gen(("X-", 1, 0)).scale(q))
    assert _finite_failures(bad) == {"pm-mixed(+)"}


@pytest.mark.parametrize(("M", "N"), [(2, 1), (1, 2), (3, 1), (1, 3), (2, 3), (3, 2)])
def test_vector_module_matches_torus_construction(M, N):
    # the Chevalley level and E0+- against the construction from t_i = q^{E_ii}
    lm = evaluation_pullback(fundamental(M, N), a)
    sig = lm.sig
    t, tinv, eplus, eminus = vector_reference(M + N)

    def tpow(i, power):
        return t[i - 1] if power > 0 else tinv[i - 1]

    for i in range(1, sig.n_nodes + 1):
        li, li1 = sig.l(i), sig.l(i + 1)
        assert lm.gen(kay(i)) == tpow(i, li) * tpow(i + 1, -li1)
        assert lm.gen(kinv(i)) == tpow(i, -li) * tpow(i + 1, li1)
        assert lm.gen(("X+", i, 0)) == eplus[i - 1]
        assert lm.gen(("X-", i, 0)) == eminus[i - 1]

    def bracket_word(es):
        """[...[[e_1, e_2]_{q_2}, e_3]_{q_3}, ..., e_{M+N-1}]_{q_{M+N-1}}."""
        out, par = es[0], sig.parity_node(1)
        for k in range(2, sig.n_nodes + 1):
            out = super_comm(out, par, es[k - 1], sig.parity_node(k), sig.q_node(k))
            par = (par + sig.parity_node(k)) % 2
        return out

    sign = -((-ONE) ** (N - M)) * q ** (N - M)
    e0_plus = (bracket_word(eminus) * t[0] * tinv[M + N - 1]).scale(sign * a)
    e0_minus = (tinv[0] * t[M + N - 1] * bracket_word(eplus)).scale(a**-1)
    assert lm.gen(e0p()) == e0_plus
    assert lm.gen(e0m()) == e0_minus


def test_evaluation_requires_distinct_ranks():
    with pytest.raises(ModuleError):
        evaluation_pullback(fundamental(1, 1), a)
    with pytest.raises(ModuleError):
        evaluation_pullback(fundamental(2, 1), 0)


def test_evaluation_takes_the_vector_module(ev21, ev21b, tensor21):
    with pytest.raises(ModuleError, match="vector module"):
        evaluation_pullback(tensor21, a)
    # an evaluation module pulled back again keeps only its Chevalley level
    ev21.gen(("X+", 1, 2))
    again = evaluation_pullback(ev21, b)
    assert all(again.gen(key) == ev21b.gen(key) for key in [("X+", 1, 2), ("H", 2, -1), e0p()])


def test_evaluation_node1_currents_closed_form(ev21):
    # the node-1 currents are a^n t_1^{2n} e_1^+ and e_1^- t_1^{2n} a^n
    t, tinv, eplus, eminus = vector_reference(3)
    t1sq = t[0] * t[0]
    t1sqinv = tinv[0] * tinv[0]
    for n in range(-2, 3):
        pw = Mat.identity(3)
        for _ in range(abs(n)):
            pw = pw * (t1sq if n > 0 else t1sqinv)
        assert ev21.gen(("X+", 1, n)) == (pw * eplus[0]).scale(a**n)
        assert ev21.gen(("X-", 1, n)) == (eminus[0] * pw).scale(a**n)


def test_evaluation_h1_formula(ev21):
    # ev'(h_{1,+-1}) = (1 - q^{+-2}) e_1^- (t_1 t_2)^{+-1} e_1^+ +- (t_1^{+-2}-t_2^{+-2})/(q-q^-1)
    t, tinv, eplus, eminus = vector_reference(3)
    for s in (1, -1):
        t1, t2 = (t[0], t[1]) if s > 0 else (tinv[0], tinv[1])
        expected = (eminus[0] * t1 * t2 * eplus[0]).scale(1 - q ** (2 * s)) + (
            t1 * t1 - t2 * t2
        ).scale(scalar(s) / (q - q**-1))
        assert ev21.gen(("H", 1, s)) == expected.scale(a**s)


def test_phi0_is_k(ev21):
    assert ev21.gen(("phi", 1, 1, 0)) == ev21.gen(kay(1))
    assert ev21.gen(("phi", -1, 2, 0)) == ev21.gen(kinv(2))
    with pytest.raises(ModuleError):
        ev21.gen(("phi", 1, 1, -2))


def test_relation_suite_21(ev21):
    rep = relation_report(ev21, window=2)
    assert rep["passed"], [c for c in rep["checks"] if c["status"] != "pass"]


def test_chevalley_suite_21(ev21):
    rep = relation_report(ev21, window=1, families=[], include_chevalley=True)
    assert rep["passed"]
    names = {r.family for r in chevalley_instances(SIG21)}
    assert "chev-deg5" in names


def test_unknown_relation_family_rejected(ev21):
    # a misspelled family would otherwise list no instances and pass vacuously
    with pytest.raises(ValueError, match=r"unknown relation families: \['deg2-zeros'\]"):
        relation_report(ev21, window=1, families=["deg2-zero", "deg2-zeros"])


def test_single_relation_check(ev21):
    assert check_relation(ev21, RelRule("deg2-shift", (1, 0, 2, 1), -1))
    assert check_relation(ev21, RelRule("pm-mixed", (2, 2, 2, -2)))


def _route_failures(lm, chevalley):
    """Failing rules by the matrix route and by evaluating the free element."""
    rules = relation_instances(lm.sig, range(-1, 2))
    if chevalley:
        rules += chevalley_instances(lm.sig)
    by_matrix = {r for r in rules if not check_relation(lm, r)}
    by_elem = {r for r in rules if not lm.elem_matrix(relation_elem(lm.sig, r)).is_zero()}
    return by_matrix, by_elem


def test_two_route_relation_verdicts(ev21, ev12, ev31, tensor21):
    for lm, chevalley in ((ev21, True), (ev12, True), (ev31, True), (tensor21, False)):
        by_matrix, by_elem = _route_failures(lm, chevalley)
        assert by_matrix == by_elem == set()


def _vacuous_families(lm):
    """Families of the window-1 and Chevalley instances whose every word acts as zero.

    Such a check passes whatever the module's coefficients are.
    """
    rules = relation_instances(lm.sig, range(-1, 2)) + chevalley_instances(lm.sig)
    live = {
        r.family
        for r in rules
        if any(not lm._word_matrix(w).is_zero() for w in relation_elem(lm.sig, r).terms)
    }
    return {r.family for r in rules} - live


def test_tensor_relation_checks_not_vacuous(ev21, ev31, tensor21):
    # on evaluation modules these families act as zero word by word
    assert _vacuous_families(ev21) == {"serre3", "deg2-zero", "chev-zero", "chev-serre3", "chev-deg5"}
    assert "chev-deg4" in _vacuous_families(ev31)
    # on the tensor square serre3, chev-serre3 and chev-deg5 act; chev-zero does not
    assert _vacuous_families(tensor21) == {"chev-zero"}


@pytest.mark.parametrize("key", [("X+", 1, 1), ("X-", 2, -1), e0p(), e0m()])
def test_two_route_corrupted_current(fund21, key):
    # negative control: one current scaled by q breaks the same relations on both routes
    lm = evaluation_pullback(fund21, a)
    lm._cache[key] = lm.gen(key).scale(q)
    by_matrix, by_elem = _route_failures(lm, chevalley=True)
    assert by_matrix == by_elem
    # a scaled E0+- also breaks the affine Chevalley relation
    families = {"deg2-shift", "hx", "pm-mixed"} | ({"chev-mixed"} if key in (e0p(), e0m()) else set())
    assert {r.family for r in by_matrix} == families


def _from_key(lm, key):
    """(value, parity) of a bracket memo key rebuilt from the key alone, with no memo."""
    if isinstance(key, GenSym):
        return lm.gen(key), lm.sig.parity_of(key)
    if key == "K0":
        return lm.gen(("K0",)), 0
    x, y, twist = key
    (vx, px), (vy, py) = _from_key(lm, x), _from_key(lm, y)
    return super_comm(vx, px, vy, py, twist), (px + py) % 2


def _memo_module(kind, M, N):
    """A freshly built evaluation module ev(M,N), or the tensor of two of them."""
    mod = fundamental(M, N)
    if kind == "ev":
        return evaluation_pullback(mod, a)
    return tensor(evaluation_pullback(mod, a), evaluation_pullback(mod, b))


@pytest.mark.parametrize(
    ("kind", "M", "N", "window"),
    [("ev", 2, 1, 2), ("ev", 1, 2, 2), ("ev", 3, 1, 1), ("tensor", 2, 1, 1)],
)
def test_bracket_memo_two_routes(kind, M, N, window):
    # the report with the module's memo, empty and then full, against every
    # instance evaluated with no memo on a freshly built module
    lm, plain = _memo_module(kind, M, N), _memo_module(kind, M, N)
    first = relation_report(lm, window=window, include_chevalley=True)
    assert lm._memo
    again = relation_report(lm, window=window, include_chevalley=True)
    assert first == again and first["passed"]
    rules = relation_instances(lm.sig, range(-window, window + 1)) + chevalley_instances(lm.sig)
    verdicts = {r: check_relation(lm, r) for r in rules}
    assert verdicts == {r: relation_value(plain.sig, r, plain._word_matrix).is_zero() for r in rules}
    assert len(verdicts) == sum(c["instances"] for c in first["checks"])
    # the memo leaves the derived currents as they are
    assert set(lm._cache) == set(plain._cache)
    # every kept value is what its symbolic key names, rebuilt on the other module:
    # a phi coefficient by its tag, a bracket by its operands' keys
    for key, kept in lm._memo.items():
        if key[0] == "phi":
            _, i, sign, n = key
            assert kept == phi_coeff(plain.sig, i, sign, n, plain._word_matrix)
        else:
            assert kept == (*_from_key(plain, key), key)


@pytest.mark.parametrize("key", [("X+", 1, 1), ("X-", 2, -1), e0p(), e0m()])
def test_filled_bracket_memo_rejects_scaled_current(fund21, key):
    # negative control: with a module's memo full, a copy with one current scaled by q
    # fails the relations test_two_route_corrupted_current expects, memo empty or full
    lm = evaluation_pullback(fund21, a)
    base = dict(lm._cache)
    assert relation_report(lm, window=2, include_chevalley=True)["passed"]
    scaled = lm.gen(key).scale(q)
    # copies of the base: every other current is derived again from the scaled one
    bad, twin = (LoopModule(lm.sig, lm.parity, {**base, key: scaled}) for _ in range(2))
    assert not bad._memo
    by_matrix, by_elem = _route_failures(bad, chevalley=True)
    assert bad._memo
    assert _route_failures(bad, chevalley=True) == (by_matrix, by_elem)
    families = {"deg2-shift", "hx", "pm-mixed"} | ({"chev-mixed"} if key in (e0p(), e0m()) else set())
    assert by_matrix == by_elem and {r.family for r in by_matrix} == families
    # the failing values, as matrices, against a twin copy with no memo
    for r in by_matrix:
        value = relation_value(bad.sig, r, bad._word_matrix, bad.memo)
        assert not value.is_zero() and value == relation_value(twin.sig, r, twin._word_matrix)


def test_two_route_cartan_loops(ev21, ev31):
    for lm in (ev21, ev31):
        for i in range(1, lm.sig.n_nodes + 1):
            qi = lm.sig.q_node(i)
            assert lm.gen(("H", i, 1)).scale(qi - qi**-1) == lm.gen(kinv(i)) * lm.gen(
                ("phi", 1, i, 1)
            )
            assert lm.gen(("H", i, -1)).scale(-(qi - qi**-1)) == lm.gen(kay(i)) * lm.gen(
                ("phi", -1, i, -1)
            )


def _h_one_words(sig: AlgebraSignature, i: int, s: int, detune: int = 0) -> Elem:
    """H_{i,+-1} as a free element: E0+- bracketed with every X^+-_{k,0}.

    X_k joins the nested bracket [X_k, inner] (raising) or [inner, X_k]
    (lowering) with twist q^{-+(wt X_k, wt inner)}, the weights paired in
    the eps basis, (eps_a, eps_b) = l_a delta_ab.  ``detune`` shifts the
    innermost twist by that power of q.
    """
    top = sig.M + sig.N

    def eps(k: int, sign: int = 1) -> list[int]:
        return [sign * (b == k) for b in range(1, top + 1)]

    def add(u, v):
        return [x + y for x, y in zip(u, v)]

    def pair(u, v) -> int:
        return sum(sig.l(b) * x * y for b, (x, y) in enumerate(zip(u, v), start=1))

    # E0+- has weight -+(eps_1 - eps_{M+N}) and the parity of the full root
    inner = Elem.monomial((e0p() if s > 0 else e0m(),))
    wt = [s * x for x in add(eps(top), eps(1, -1))]
    par = sum(sig.parity_node(k) for k in range(1, top)) % 2
    for step, k in enumerate([*range(sig.n_nodes, i, -1), *range(1, i + 1)]):
        x = Elem.monomial((xp(k, 0) if s > 0 else xm(k, 0),))
        wx, px = [s * c for c in add(eps(k), eps(k + 1, -1))], sig.parity_node(k)
        twist = q ** (-s * pair(wx, wt) + (detune if step == 0 else 0))
        inner = super_comm(x, px, inner, par, twist) if s > 0 else super_comm(inner, par, x, px, twist)
        wt, par = add(wt, wx), (par + px) % 2
    lam = (-ONE) ** (i if i <= sig.M else i - 1)
    return inner.scale(lam if s > 0 else -lam)


def test_h_one_two_routes(ev21, ev12, ev31, ev13, tensor21):
    # the matrix brackets of the module against free bracket words whose twists
    # come from weights, evaluated word by word on the module
    for lm in (ev21, ev12, ev31, ev13, tensor21):
        for i in range(1, lm.sig.n_nodes + 1):
            for s in (1, -1):
                assert lm.elem_matrix(_h_one_words(lm.sig, i, s)) == lm.gen(("H", i, s))


@pytest.mark.parametrize("M, N", [(2, 1), (1, 2), (3, 1), (1, 3)])
def test_detuned_h_one_fails_relations(M, N):
    # H_{i,1} seeded from the free words passes the catalog; one more power of q
    # in the innermost raising twist fails hx and pm-mixed
    fund = fundamental(M, N)

    def failures(detune: int) -> set[str]:
        lm = evaluation_pullback(fund, a)
        for i in range(1, lm.sig.n_nodes + 1):
            lm._cache[("H", i, 1)] = lm.elem_matrix(_h_one_words(lm.sig, i, 1, detune))
        report = relation_report(lm, window=1)
        return {c["name"] for c in report["checks"] if c["status"] == "fail"}

    assert failures(0) == set()
    assert {"hx(+)", "hx(-)", "pm-mixed(+)"} <= failures(1)


def test_phi_brackets_are_built_once(fund21, monkeypatch):
    # H_{i,s} by Newton's identity reads [X+_{i,+-n}, X-_{i,0}] for n <= |s|: each is built once
    lm = evaluation_pullback(fund21, a)
    built = []
    phi_bracket = LoopModule._phi_bracket
    monkeypatch.setattr(
        LoopModule, "_phi_bracket", lambda self, *args: built.append(args) or phi_bracket(self, *args)
    )
    h3 = lm.gen(("H", 1, 3))
    assert len(built) == 3
    lm.gen(("H", 1, 2))
    # phi_1^+ at z^2 reads the bracket H_{1,3} built
    lm.gen(("phi", 1, 1, 2))
    assert len(built) == 3
    assert h3 == evaluation_pullback(fund21, a).gen(("H", 1, 3))


def test_ladder_independence(ev21, ev12, ev31):
    # [H_{i,+-1}, X+_{j,0}] / [l_i c_ij]_{q_i} for every node i linked to j, the
    # self route included, against the module's own X+_{j,+-1}
    for lm in (ev21, ev12, ev31):
        sig = lm.sig
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
                assert len(routes) >= 1
                assert all(r == lm.gen(("X+", j, step)) for r in routes)


def test_phi_coeff_consistency(ev21, ev12, ev31):
    # symbolic exp-word in the h symbols vs the mixed-relation route; the h
    # matrices up to |s| = 3 are the module's Newton-identity H currents
    for lm in (ev21, ev12, ev31):
        for i in range(1, lm.sig.n_nodes + 1):
            for n in range(0, 4):
                sym = lm.elem_matrix(phi_coeff(lm.sig, i, 1, n))
                assert sym == lm.gen(("phi", 1, i, n))
                sym = lm.elem_matrix(phi_coeff(lm.sig, i, -1, -n))
                assert sym == lm.gen(("phi", -1, i, -n))


@pytest.mark.parametrize(
    ("M", "N", "tensor_square"), [(2, 1, False), (1, 2, False), (3, 1, False), (2, 1, True)]
)
def test_x_currents_stay_in_laurent_ring(M, N, tensor_square):
    # the ladder multiplies by l_i c_ij = +-1 and never divides: no field operation
    mod = fundamental(M, N)
    lm = evaluation_pullback(mod, a)
    if tensor_square:
        lm = tensor(lm, evaluation_pullback(mod, b))
    with count_field_ops() as calls:
        for j in range(1, lm.sig.n_nodes + 1):
            for n in range(-3, 4):
                lm.gen(("X+", j, n))
                lm.gen(("X-", j, n))
    assert calls == []


def test_phi_push_past_module_oracle(ev31):
    # phi_i^+(z) w == (sum_d out_d z^d) phi_i^+(z) as matrices, order by order
    sig = ev31.sig
    word = Elem.monomial((xp(2, 0), xp(3, 1)))
    order = 2
    out = phi_push_past(sig, 1, word, order)
    wmat = ev31.elem_matrix(word)
    for n in range(order + 1):
        lhs = ev31.gen(("phi", 1, 1, n)) * wmat
        rhs = Mat.zeros(ev31.dim, ev31.dim)
        for d in range(n + 1):
            rhs = rhs + ev31.elem_matrix(out[d]) * ev31.gen(("phi", 1, 1, n - d))
        assert lhs == rhs


def test_e0_bracket_routes(ev21, ev12, ev31):
    for lm in (ev21, ev12, ev31):
        sig = lm.sig
        M, N = sig.M, sig.N
        full = pbw.Root(1, sig.n_nodes)
        plus_route = lm.elem_matrix(pbw.tau1(pbw.root_vector(sig, full, -1))) * lm.gen(("K0",))
        sign = (-ONE) ** (M + N - 1) * q ** (N - M)
        assert lm.gen(e0p()) == plus_route.scale(sign)
        minus_route = lm.gen(("K0inv",)) * lm.elem_matrix(pbw.root_vector(sig, full, -1))
        assert lm.gen(e0m()) == minus_route


def test_full_root_commutation_identity(ev21, ev12, ev31):
    # [X_{alpha_1+...+alpha_{M+N-1}}(n), X_j(0)]_{lambda_j} = 0 with
    # lambda_j = q^{-(eps_1-eps_{M+N}, eps_j-eps_{j+1})}
    for lm in (ev21, ev12, ev31):
        sig = lm.sig
        top = sig.M + sig.N
        # the full root holds the one odd node M
        full_parity = sum(sig.parity_node(k) for k in range(1, top)) % 2
        for j in range(2, sig.n_nodes + 1):
            pairing = (
                (sig.l(1) if j == 1 else 0)
                - (sig.l(1) if j + 1 == 1 else 0)
                - (sig.l(top) if j == top else 0)
                + (sig.l(top) if j + 1 == top else 0)
            )
            lam = q**-pairing
            for n in (-2, -1, 0, 1, 2):
                el = super_comm(
                    pbw.root_vector(sig, pbw.Root(1, sig.n_nodes), n),
                    full_parity,
                    Elem.monomial((xp(j, 0),)),
                    sig.parity_node(j),
                    lam,
                )
                assert lm.elem_matrix(el).is_zero()


def test_tau1_and_pi_send_relations_to_zero(ev21, ev12):
    window = range(-1, 2)
    plus_rules = [
        r
        for r in relation_instances(SIG21, window, families=["deg2-zero", "deg2-shift", "serre3"])
        if r.sign > 0
    ]
    # the (2,1) module read through the Dynkin flip of a (1,2) module
    flipped = pi_pullback(ev12)
    for rule in plus_rules[::3]:
        el = relation_elem(SIG21, rule)
        assert ev21.elem_matrix(pbw.tau1(el)).is_zero()
        assert flipped.elem_matrix(el).is_zero()


def test_tensor_structure(ev21, ev21b, tensor21):
    assert tensor21.dim == 9
    assert tensor21.parity == [(x + y) % 2 for x in ev21.parity for y in ev21b.parity]
    rep = relation_report(tensor21, window=1)
    assert rep["passed"]


def test_tensor_signature_mismatch(ev21, ev12):
    with pytest.raises(ModuleError):
        tensor(ev21, ev12)


def test_highest_weight_fundamental(ev21):
    hw = highest_weight(ev21)
    assert hw.P[1] == ZPoly([ONE, -q * a])
    assert hw.c == ONE
    assert hw.torsion == weyl.identity_triple()
    assert hw.epsilon == {1: 1}
    assert hw.k0_eigen == q**-1


def test_highest_weight_trivial_module():
    sig = SIG21
    one = Mat.identity(1)
    zero = Mat.zeros(1, 1)
    base = {}
    for i in (1, 2):
        base[kay(i)] = one
        base[kinv(i)] = one
        base[("X+", i, 0)] = zero
        base[("X-", i, 0)] = zero
    base[e0p()] = zero
    base[e0m()] = zero
    lm = modrep.LoopModule(sig, [0], base)
    hw = highest_weight(lm)
    assert hw.P[1] == ZPoly.one()
    assert hw.torsion == weyl.identity_triple()


def test_highest_weight_kernel_error():
    sig = SIG21
    base = {}
    two = Mat.identity(2)
    for i in (1, 2):
        base[kay(i)] = two
        base[kinv(i)] = two
        base[("X+", i, 0)] = Mat.zeros(2, 2)
        base[("X-", i, 0)] = Mat.zeros(2, 2)
    base[e0p()] = Mat.zeros(2, 2)
    base[e0m()] = Mat.zeros(2, 2)
    lm = modrep.LoopModule(sig, [0, 0], base)
    with pytest.raises(ModuleError, match="dimension is 2"):
        highest_weight(lm)


def test_tensor_highest_weight_matches_monoid(ev21, ev21b, tensor21):
    hw1 = highest_weight(ev21)
    hw2 = highest_weight(ev21b)
    hwt = highest_weight(tensor21)
    prod = weyl.monoid_product(hw1, hw2)
    assert hwt.P[1] == ZPoly([ONE, -q * a]) * ZPoly([ONE, -q * b])
    assert hwt.P == prod.P
    assert hwt.torsion == prod.torsion
    assert hwt.epsilon == prod.epsilon


def test_pi_pullback_highest_weight(fund21):
    src = evaluation_pullback(fund21, q**-2 * a**-1)
    pm = pi_pullback(src)
    assert (pm.sig.M, pm.sig.N) == (1, 2)
    assert relation_report(pm, window=1)["passed"]
    hw = highest_weight(pm)
    assert hw.P[2] == ZPoly([ONE, -q * a])
    assert hw.c == ONE
    assert hw.torsion == weyl.identity_triple()


def test_direct_12_highest_weight(ev12):
    # the direct (1,2) evaluation module has a nontrivial odd-node datum
    hw = highest_weight(ev12)
    assert hw.P[2] == ZPoly.one()
    assert hw.c == q
    assert hw.torsion.Q.degree == 1


def test_coproduct_formula_topline(ev21, ev21b, tensor21):
    assert modrep.check_coproduct_formula(1, 0, ev21, ev21b, part="x+", product=tensor21)
    assert modrep.check_coproduct_formula(1, 1, ev21, ev21b, part="x+", product=tensor21)
    assert modrep.check_coproduct_formula(2, -1, ev21, ev21b, part="x-", product=tensor21)
    assert modrep.check_coproduct_formula(2, 1, ev21, ev21b, part="phi", product=tensor21)
    # |n| = 2 reaches the phi sums of x+ at n <= -2 and of x- at n >= 2
    for part, j, n in (("x+", 1, -2), ("x+", 2, 2), ("x-", 1, 2), ("x-", 2, -2)):
        assert modrep.check_coproduct_formula(j, n, ev21, ev21b, part=part, product=tensor21)


def _perturbed(tm: LoopModule, key: tuple, mat: Mat) -> LoopModule:
    """A copy of the product module whose current ``key`` acts by ``mat``."""
    return LoopModule(tm.sig, tm.parity, {**tm._cache, key: mat})


@pytest.mark.parametrize(
    "key, part, j, n",
    [
        (("X+", 1, 1), "x+", 1, 1),
        (("X-", 2, -1), "x-", 2, -1),
        (("phi", 1, 1, 1), "phi", 1, 1),
        (("X+", 1, 0), "x+", 1, 0),
    ],
)
def test_coproduct_formula_rejects_scaled_current(ev21, ev21b, tensor21, key, part, j, n):
    bad = _perturbed(tensor21, key, tensor21.gen(key).scale(q))
    assert not modrep.check_coproduct_formula(j, n, ev21, ev21b, part=part, product=bad)


@pytest.mark.parametrize("s", [1, -1])
def test_cartan_coproduct_rejects_shifted_z(ev21, ev21b, tensor21, s):
    # the z column of node i = 1 lives at node 2; adding it moves z off +-(q - q^-1)
    left = ev21.gen(("X-", 2, 1 if s > 0 else 0)) * ev21.gen(kinv(2))
    right = ev21b.gen(kay(2)) * ev21b.gen(("X+", 2, 0 if s > 0 else -1))
    zcol = kron_super(left, right, ev21.parity, ev21b.parity)
    key = ("H", 1, s)
    bad = _perturbed(tensor21, key, tensor21.gen(key) + zcol)
    res = modrep.cartan_coproduct_constants(1, ev21, ev21b, sign=s, product=bad)
    assert (res["solvable"], res["z_unique"], res["z_matches"]) == (True, True, False)


def test_cartan_coproduct_rejects_scaled_h(ev21, ev21b, tensor21):
    key = ("H", 1, 1)
    bad = _perturbed(tensor21, key, tensor21.gen(key).scale(q))
    assert modrep.cartan_coproduct_constants(1, ev21, ev21b, product=bad) == {"solvable": False}


def test_cartan_coproduct_constants(ev21, ev21b, tensor21):
    for s in (1, -1):
        res = modrep.cartan_coproduct_constants(1, ev21, ev21b, sign=s, product=tensor21)
        assert res["solvable"]
        assert res["z_matches"]
        assert res["z_unique"]
    with pytest.raises(ModuleError):
        modrep.cartan_coproduct_constants(2, ev21, ev21b, product=tensor21)


def _full_algebra_closure(lm):
    """The breadth-first closure of _algebra_span's generators, run to its end."""
    gens = [Mat.identity(lm.dim)]
    for i in range(1, lm.sig.n_nodes + 1):
        gens += [lm.gen(kay(i)), lm.gen(kinv(i)), lm.gen(("X+", i, 0)), lm.gen(("X-", i, 0))]
    gens += [lm._cache[key] for key in (e0p(), e0m()) if key in lm._cache]
    red, basis = RowReducer(), []
    frontier = gens
    while frontier:
        new = []
        for m in frontier:
            if red.add(m.flatten()):
                basis.append(m)
                new += [m * g for g in gens[1:]]
        frontier = new
    return basis


@pytest.mark.parametrize("module", ["ev21", "ev12", "tensor21"])
def test_algebra_span_stops_at_full_rank(request, module):
    # the span stops once it is all of End(V), with the basis of the closure run to its end
    lm = request.getfixturevalue(module)
    basis = modrep._algebra_span(lm)
    assert basis == _full_algebra_closure(lm)
    assert len(basis) == lm.dim**2


def _fresh_correction(m1, m2, modulus):
    """The correction space built from scratch, with no memo: a fresh basis and reducer."""
    basis = []
    for left, right in modulus:
        lefts = modrep._left_ideal_span(m1, left)
        rights = modrep._left_ideal_span(m2, right)
        basis += [kron_super(s1, s2, m1.parity, m2.parity).flatten() for s1 in lefts for s2 in rights]
    red = RowReducer()
    for vec in basis:
        red.add(vec)
    return basis, red


def _coproduct_results(m1, m2, tm):
    """Every coproduct-check verdict and Cartan result on the product of m1 and m2."""
    out = {}
    for part in ("x+", "x-", "phi"):
        for j in range(1, m1.sig.n_nodes + 1):
            for n in (-2, -1, 0, 1, 2):
                out[part, j, n] = modrep.check_coproduct_formula(j, n, m1, m2, part, tm)
    for s in (1, -1):
        out["cartan", s] = modrep.cartan_coproduct_constants(1, m1, m2, tm, sign=s)
    return out


@pytest.mark.parametrize(("M", "N"), [(2, 1), (1, 2)])
def test_memoised_correction_spaces_two_routes(monkeypatch, M, N):
    # verdicts and values read from the kept spans against spaces rebuilt for every claim
    mod = fundamental(M, N)
    m1, m2 = evaluation_pullback(mod, a), evaluation_pullback(mod, b)
    tm = tensor(m1, m2)
    first = _coproduct_results(m1, m2, tm)
    corrections = {k[1:]: v for k, v in m1._memo.items() if k[0] == "correction"}
    assert len(corrections) == 4  # the x+, x-, phi and Cartan moduli
    # the kept reducers span the corrections alone: no claim grew them
    for (factor, modulus), (_, red) in corrections.items():
        assert factor is m2 and red.rank == _fresh_correction(m1, m2, modulus)[1].rank
    again = _coproduct_results(m1, m2, tm)  # every space read from the memo
    with monkeypatch.context() as patch:
        patch.setattr(modrep, "_correction", _fresh_correction)
        fresh = _coproduct_results(m1, m2, tm)
    assert first == again == fresh
    assert all(v for k, v in fresh.items() if k[0] != "cartan")
    for s in (1, -1):
        res = fresh["cartan", s]
        assert res["solvable"] and res["z_unique"] and res["z_matches"]


def test_memoised_correction_space_rejects_scaled_current(ev21, ev21b, tensor21, monkeypatch):
    # negative control: with the spaces already kept, a product whose X+_{1,1}
    # is scaled by q fails, and no space is rebuilt for it
    assert modrep.check_coproduct_formula(1, 1, ev21, ev21b, part="x+", product=tensor21)
    assert any(k[0] == "correction" for k in ev21._memo)
    key = ("X+", 1, 1)
    bad = _perturbed(tensor21, key, tensor21.gen(key).scale(q))
    builds = []
    monkeypatch.setattr(modrep, "_corr_basis", lambda *args: builds.append(args))
    assert not modrep.check_coproduct_formula(1, 1, ev21, ev21b, part="x+", product=bad)
    assert builds == []


def test_coproduct_suite_builds_each_span_once(monkeypatch):
    # one left ideal span per (factor module, signs): 6, not one per claim (36)
    calls = {"_left_ideal_span": [], "_corr_basis": []}
    for name, seen in calls.items():
        def counted(*args, _f=getattr(modrep, name), _seen=seen):
            _seen.append(args)
            return _f(*args)

        monkeypatch.setattr(modrep, name, counted)
    for M, N in ((2, 1), (1, 2)):
        for seen in calls.values():
            seen.clear()
        assert cli.run(cli.RunConfig(suite="coproduct-check", M=M, N=N))["passed"]
        spans = calls["_left_ideal_span"]
        assert len(spans) == len(set(spans)) == 6
        assert len(calls["_corr_basis"]) == 4  # one per modulus


def test_relation_suite_builds_each_bracket_once(monkeypatch):
    # verify-relations (2,1), window 2, --chevalley: each bracket key and each
    # +-phi coefficient is computed once per module, and Mat arithmetic never
    # passes its results through the filtering constructor; coproduct-check
    # keeps each algebra span, ideal span and correction space once as well
    class Memo(dict):
        def __setitem__(self, key, value):
            assert key not in self, key
            super().__setitem__(key, value)

    memos = []
    init = LoopModule.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._memo = Memo()
        memos.append(self._memo)

    comm, coeff, mat_init = superfree.super_comm, superfree.phi_coeff, Mat.__init__
    brackets, phis, filtered = [], [], []

    def counted_comm(x, *args):
        if isinstance(x, Mat):
            brackets.append(x)
        return comm(x, *args)

    def counted_coeff(sig, i, sign, n, word):
        phis.append((word.__self__, i, sign, n))
        return coeff(sig, i, sign, n, word)

    def counted_init(self, *args):
        filtered.append(args)
        mat_init(self, *args)

    monkeypatch.setattr(LoopModule, "__init__", recording_init)
    monkeypatch.setattr(superfree, "super_comm", counted_comm)
    monkeypatch.setattr(superfree, "phi_coeff", counted_coeff)
    monkeypatch.setattr(Mat, "__init__", counted_init)
    cfg = cli.RunConfig(suite="verify-relations", M=2, N=1, window=2, chevalley=True)
    assert cli.run(cfg)["passed"]
    assert len(memos) == 2  # the vector module's gate and the evaluation module
    kept = [k for memo in memos for k in memo]
    # 767 matrix brackets and 64 phi_coeff calls with no memo
    assert len(brackets) == sum(1 for k in kept if k[0] != "phi") == 455
    assert len(phis) == len(set(phis)) == sum(1 for k in kept if k[0] == "phi") == 24
    # the torus and matrix-unit base of the vector module, and E0+-'s two tori (6,523 before)
    assert len(filtered) == 10
    memos.clear()
    assert cli.run(cli.RunConfig(suite="coproduct-check", M=2, N=1))["passed"]
    assert {"algebra", "ideal", "correction"} <= {k[0] for memo in memos for k in memo}
