import pytest
from helpers import mat_from_rows

from superloop import modrep, pbw, weyl
from superloop.coeffs import ONE, ZERO, ZPoly, a, b, q, qint_base, scalar
from superloop.linalg import Mat, kron_super
from superloop.modrep import (
    LoopModule,
    ModuleError,
    check_gl_relations,
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
    RelRule,
    chevalley_instances,
    phi_coeff,
    phi_push_past,
    qbracket,
    relation_elem,
    relation_instances,
    xp,
)

SIG21 = AlgebraSignature(2, 1)


def test_fundamental_shape(fund21):
    assert fund21.dim == 3
    assert fund21.parity == (0, 0, 1)
    # t_i acts by q on the i-th basis vector (certified by the relation check)
    assert fund21.t[2].data.get((2, 2), ZERO) == q
    assert fund21.t[0].data.get((1, 1), ZERO) == ONE

    def parities(m):
        """The parities row + column over the nonzero entries: one for a homogeneous map."""
        return {(fund21.parity[r] + fund21.parity[c]) % 2 for r, c in m.data}

    # e_j^+- is odd exactly at the odd node j = M; every t_i is even
    for j, (ep, em) in enumerate(zip(fund21.eplus, fund21.eminus), start=1):
        assert parities(ep) == parities(em) == {1 if j == fund21.M else 0}
    assert all(parities(t) == {0} for t in fund21.t)


def test_fundamental_requires_positive_ranks():
    with pytest.raises(ModuleError):
        fundamental(0, 2)


def test_fundamental_11_passes():
    mod = fundamental(1, 1)
    assert check_gl_relations(mod)["passed"]


def test_corrupted_raising_operator_fails():
    mod = fundamental(2, 1)
    # wrong matrix-unit support: conjugation by the torus detects it
    bad_eplus = (mat_from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]]),) + mod.eplus[1:]
    bad = modrep.GLModule(2, 1, mod.parity, mod.t, mod.tinv, bad_eplus, mod.eminus)
    report = check_gl_relations(bad)
    assert not report["passed"]
    failing = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert any(name.startswith("t_") for name in failing)


def test_rescaled_lowering_operator_fails_pm_mixed():
    # a rescaled e_1^- keeps every torus twist but breaks [e_1^+, e_1^-]
    mod = fundamental(2, 1)
    bad_eminus = (mod.eminus[0].scale(q),) + mod.eminus[1:]
    bad = modrep.GLModule(2, 1, mod.parity, mod.t, mod.tinv, mod.eplus, bad_eminus)
    report = check_gl_relations(bad)
    failing = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert failing == {"pm-mixed(+)"}


def test_evaluation_requires_distinct_ranks():
    with pytest.raises(ModuleError):
        evaluation_pullback(fundamental(1, 1), a)
    with pytest.raises(ModuleError):
        evaluation_pullback(fundamental(2, 1), 0)


def test_evaluation_node1_currents_closed_form(ev21, fund21):
    # the node-1 currents are a^n t_1^{2n} e_1^+ and e_1^- t_1^{2n} a^n
    t1sq = fund21.t[0] * fund21.t[0]
    t1sqinv = fund21.tinv[0] * fund21.tinv[0]
    for n in range(-2, 3):
        pw = Mat.identity(3)
        for _ in range(abs(n)):
            pw = pw * (t1sq if n > 0 else t1sqinv)
        assert ev21.gen(("X+", 1, n)) == (pw * fund21.eplus[0]).scale(a**n)
        assert ev21.gen(("X-", 1, n)) == (fund21.eminus[0] * pw).scale(a**n)


def test_evaluation_h1_formula(ev21, fund21):
    # ev'(h_{1,+-1}) = (1 - q^{+-2}) e_1^- (t_1 t_2)^{+-1} e_1^+ +- (t_1^{+-2}-t_2^{+-2})/(q-q^-1)
    for s in (1, -1):
        t12 = fund21.t[0] * fund21.t[1] if s > 0 else fund21.tinv[0] * fund21.tinv[1]
        tt = (
            fund21.t[0] * fund21.t[0] - fund21.t[1] * fund21.t[1]
            if s > 0
            else fund21.tinv[0] * fund21.tinv[0] - fund21.tinv[1] * fund21.tinv[1]
        )
        expected = (fund21.eminus[0] * t12 * fund21.eplus[0]).scale(1 - q ** (2 * s)) + tt.scale(
            scalar(s) / (q - q**-1)
        )
        assert ev21.gen(("H", 1, s)) == expected.scale(a**s)


def test_phi0_is_k(ev21):
    assert ev21.gen(("phi", 1, 1, 0)) == ev21.gen(("K", 1))
    assert ev21.gen(("phi", -1, 2, 0)) == ev21.gen(("Kinv", 2))
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


@pytest.mark.parametrize("key", [("X+", 1, 1), ("X-", 2, -1), ("E0+",), ("E0-",)])
def test_two_route_corrupted_current(fund21, key):
    # negative control: one current scaled by q breaks relations on both routes alike
    lm = evaluation_pullback(fund21, a)
    lm._cache[key] = lm.gen(key).scale(q)
    by_matrix, by_elem = _route_failures(lm, chevalley=True)
    assert by_matrix
    assert by_matrix == by_elem


def test_two_route_cartan_loops(ev21, ev31):
    for lm in (ev21, ev31):
        for i in range(1, lm.sig.n_nodes + 1):
            qi = lm.sig.q_node(i)
            assert lm.gen(("H", i, 1)).scale(qi - qi**-1) == lm.gen(("Kinv", i)) * lm.gen(
                ("phi", 1, i, 1)
            )
            assert lm.gen(("H", i, -1)).scale(-(qi - qi**-1)) == lm.gen(("K", i)) * lm.gen(
                ("phi", -1, i, -1)
            )


def test_ladder_independence(ev31):
    sig = ev31.sig
    for j in range(1, sig.n_nodes + 1):
        for step in (1, -1):
            routes = []
            for i in range(max(1, j - 1), min(sig.n_nodes, j + 1) + 1):
                if sig.c(i, j) == 0:
                    continue
                div = qint_base(step * sig.l(i) * sig.c(i, j), sig.l(i)) / scalar(step)
                h = ev31.gen(("H", i, step))
                x = ev31.gen(("X+", j, 0))
                routes.append((h * x - x * h).scale(ONE / div))
            assert len(routes) >= 1
            assert all(r == routes[0] for r in routes)


def test_phi_coeff_consistency(ev21):
    # symbolic exp-word in the h symbols vs the mixed-relation route
    for i in (1, 2):
        for n in range(0, 4):
            sym = ev21.elem_matrix(phi_coeff(SIG21, i, 1, n))
            assert sym == ev21.gen(("phi", 1, i, n))
            sym = ev21.elem_matrix(phi_coeff(SIG21, i, -1, -n))
            assert sym == ev21.gen(("phi", -1, i, -n))


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
        assert lm.gen(("E0+",)) == plus_route.scale(sign)
        minus_route = lm.gen(("K0inv",)) * lm.elem_matrix(pbw.root_vector(sig, full, -1))
        assert lm.gen(("E0-",)) == minus_route


def test_full_root_commutation_identity(ev21, ev12, ev31):
    # [X_{alpha_1+...+alpha_{M+N-1}}(n), X_j(0)]_{lambda_j} = 0 with
    # lambda_j = q^{-(eps_1-eps_{M+N}, eps_j-eps_{j+1})}
    for lm in (ev21, ev12, ev31):
        sig = lm.sig
        top = sig.M + sig.N
        for j in range(2, sig.n_nodes + 1):
            pairing = (
                (sig.l(1) if j == 1 else 0)
                - (sig.l(1) if j + 1 == 1 else 0)
                - (sig.l(top) if j == top else 0)
                + (sig.l(top) if j + 1 == top else 0)
            )
            lam = q**-pairing
            for n in (-2, -1, 0, 1, 2):
                el = qbracket(
                    sig,
                    pbw.root_vector(sig, pbw.Root(1, sig.n_nodes), n),
                    Elem.monomial((xp(j, 0),)),
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
        base[("K", i)] = one
        base[("Kinv", i)] = one
        base[("X+", i, 0)] = zero
        base[("X-", i, 0)] = zero
    base[("E0+",)] = zero
    base[("E0-",)] = zero
    lm = modrep.LoopModule(sig, [0], base)
    hw = highest_weight(lm)
    assert hw.P[1] == ZPoly.one()
    assert hw.torsion == weyl.identity_triple()


def test_highest_weight_kernel_error():
    sig = SIG21
    base = {}
    two = Mat.identity(2)
    for i in (1, 2):
        base[("K", i)] = two
        base[("Kinv", i)] = two
        base[("X+", i, 0)] = Mat.zeros(2, 2)
        base[("X-", i, 0)] = Mat.zeros(2, 2)
    base[("E0+",)] = Mat.zeros(2, 2)
    base[("E0-",)] = Mat.zeros(2, 2)
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
    left = ev21.gen(("X-", 2, 1 if s > 0 else 0)) * ev21.gen(("Kinv", 2))
    right = ev21b.gen(("K", 2)) * ev21b.gen(("X+", 2, 0 if s > 0 else -1))
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
