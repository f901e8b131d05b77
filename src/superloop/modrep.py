"""Finite-dimensional modules and their loop-current matrices.

A LoopModule carries matrices for all loop currents.  The vector module
``fundamental(M, N)`` gives the Chevalley level K_i^{+-1}, X^+-_{i,0} by
exact matrices and is certified by the loop-degree-0 instances of the
relation catalog; an evaluation pullback adds the affine pair E0+- (a
coproduct does, for tensor products).  The level-one Cartan loops are
matrix brackets of E0+- with the Chevalley currents, each twist stated
from the affine Cartan entries, the X currents come by commutator
ladders along an adjacent node, and the deeper Cartan loops from the phi
series by Newton's identity.  Every derived matrix
can be cross-checked against the defining relations, which is what the
verification suites do.  ``highest_weight`` and ``odd_slice`` read the
highest weight and the odd slice off the line the raising currents
kill (``highest_vector``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .coeffs import ONE, ZERO, Scalar, ZPoly, expand_ratio, q, scalar, scalar_str
from .linalg import Mat, RowReducer, joint_nullspace, kron_super, rank, solve_span
from .superfree import (
    AlgebraSignature,
    Elem,
    RelRule,
    chevalley_instances,
    e0m,
    e0p,
    kay,
    kinv,
    relation_instances,
    relation_value,
    super_comm,
)
from .weyl import HighestWeight, series_to_torsion


class ModuleError(ValueError):
    """Raised when a module fails construction or an extraction precondition."""


# ---------------------------------------------------------------------------
# loop modules
# ---------------------------------------------------------------------------

class LoopModule:
    """A representation of the loop superalgebra by exact matrices.

    ``base`` seeds the cache (Chevalley-level matrices and the affine
    E0 pair) under the currents' ``GenSym`` keys (``kay(i)``, ``e0p()``,
    ``("X+", i, 0)``), so ``gen`` reads a word's letters as they stand;
    every other current is derived lazily: level +-1 Cartan
    loops as brackets of the affine pair, X currents by commutator
    ladders along an adjacent node, phi coefficients and deeper Cartan
    loops (by Newton's identity) from the phi brackets.  A module with a
    ``source`` is the source's ``pi_pullback``: its X, H and K currents
    are read off the source through the Dynkin flip.  What else a module
    builds once (spans, correction spaces, relation brackets) is kept by
    ``memo`` beside the currents, never among them.
    """

    def __init__(
        self,
        sig: AlgebraSignature,
        parity: Sequence[int],
        base: dict,
        source: "LoopModule | None" = None,
    ):
        self.sig = sig
        self.parity = list(parity)
        self.dim = len(self.parity)
        self.source = source
        self._cache: dict = dict(base)
        self._word_cache: dict = {}
        self._memo: dict = {}

    # -- generator matrices -------------------------------------------

    def gen(self, key: tuple) -> Mat:
        got = self._cache.get(key)
        if got is not None:
            return got
        mat = self._derive(key)
        self._cache[key] = mat
        return mat

    def memo(self, key: tuple, build: Callable):
        """``build()``, built once per module and kept under ``key`` beside the currents."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def elem_matrix(self, e: Elem) -> Mat:
        out = Mat.zeros(self.dim, self.dim)
        for word, coeff in e.terms.items():
            out = out + self._word_matrix(word).scale(coeff)
        return out

    def _word_matrix(self, word: tuple) -> Mat:
        if not word:
            return Mat.identity(self.dim)
        got = self._word_cache.get(word)
        if got is None:
            got = self.gen(word[0]) * self._word_matrix(word[1:])
            self._word_cache[word] = got
        return got

    # -- derivations ---------------------------------------------------

    def _derive(self, key: tuple) -> Mat:
        tag = key[0]
        if tag in ("K0", "K0inv"):
            # K_0 = (K_1 ... K_{M+N-1})^{-1}
            out = Mat.identity(self.dim)
            for i in range(1, self.sig.n_nodes + 1):
                out = out * self.gen(kinv(i) if tag == "K0" else kay(i))
            return out
        if tag == "phi":
            _, sign, i, n = key
            return self._phi(sign, i, n)
        if tag == "bracket":
            _, i, n = key
            return self._phi_bracket(i, n)
        if self.source is not None:
            return self._derive_pi(key)
        if tag in ("X+", "X-"):
            _, j, n = key
            if n == 0:
                raise ModuleError(f"{key} must be part of the module base")
            return self._ladder(tag, j, n)
        if tag == "H":
            _, i, s = key
            if abs(s) == 1:
                return self._h_one(i, s)
            return self._h_deep(i, s)
        raise ModuleError(f"cannot derive {key}")

    def _ladder(self, tag: str, j: int, n: int) -> Mat:
        """X^+-_{j,n} = +-[H_{i,+-1}, X^+-_{j,n-+1}] / [l_i c_ij]_{q_i} along a node i next to j.

        For adjacent nodes l_i c_ij = +-1, so the q-integer is that sign and
        the step multiplies by it instead of dividing.
        """
        sig = self.sig
        i = j - 1 if j > 1 else j + 1
        sign = sig.l(i) * sig.c(i, j) * (1 if tag == "X+" else -1)
        step = 1 if n > 0 else -1
        prev = self.gen((tag, j, n - step))
        h = self.gen(("H", i, step))
        return (h * prev - prev * h).scale(sign)

    def _h_one(self, i: int, s: int) -> Mat:
        """H_{i,+-1} = +-lam_i times E0+- bracketed with every X^+-_{k,0}.

        H_{i,1} = lam_i [X_i, ...[X_1, [X_{i+1}, ...[X_n, E0+]...]]...] nests
        the raising currents onto E0+, H_{i,-1} = -lam_i [...[[...[E0-, X_n],
        ..., X_{i+1}], X_1], ..., X_i] the lowering ones.  Bracketing X_k
        onto the nodes l nested so far (node 0 for E0) twists by
        q^{-+sum_l c_kl} in the affine Cartan entries: the weight -+theta of
        E0+- pairs with alpha_k as c_0k.
        """
        sig = self.sig
        lam = (-ONE) ** i if i <= sig.M else (-ONE) ** (i - 1)
        tag = "X+" if s > 0 else "X-"
        out, par = self.gen(e0p() if s > 0 else e0m()), sig.parity_of(e0p())
        nested = [0]
        for k in [*range(sig.n_nodes, i, -1), *range(1, i + 1)]:
            x, p = self.gen((tag, k, 0)), sig.parity_node(k)
            twist = q ** (-s * sum(sig.affine_c(k, l) for l in nested))
            out = super_comm(x, p, out, par, twist) if s > 0 else super_comm(out, par, x, p, twist)
            par = (par + p) % 2
            nested.append(k)
        return out.scale(lam if s > 0 else -lam)

    def _phi(self, sign: int, i: int, n: int) -> Mat:
        sig = self.sig
        if sign > 0 and n < 0 or sign < 0 and n > 0:
            raise ModuleError("phi coefficient with wrong-sign index")
        if n == 0:
            return self.gen(kay(i) if sign > 0 else kinv(i))
        qi = sig.q_node(i)
        return self.gen(("bracket", i, n)).scale((qi - qi**-1) * (ONE if sign > 0 else -ONE))

    def _phi_bracket(self, i: int, n: int) -> Mat:
        """[X^+_{i,n}, X^-_{i,0}], the z^n coefficient of phi_i^+-(z) over +-(q_i - q_i^-1)."""
        pi = self.sig.parity_node(i)
        return super_comm(self.gen(("X+", i, n)), pi, self.gen(("X-", i, 0)), pi)

    def _h_deep(self, i: int, s: int) -> Mat:
        """H_{i,s} from the phi series alone, by Newton's identity.

        Y = K_i^-+1 phi_i^+-(z) = exp(+-(q_i - q_i^-1) sum_r h_{i,+-r} z^r) has
        commuting coefficients y_n = (q_i - q_i^-1) y~_n, with
        y~_n = +-K_i^-+1 [X^+_{i,+-n}, X^-_{i,0}].  m_n = n l_n, with l = log Y,
        obeys m_n = n y_n - sum_{r<n} m_r y_{n-r}, so mu_n = m_n / (q_i - q_i^-1)
        obeys mu_n = n y~_n - sum_{r<n} mu_r y_{n-r} and needs no division.
        Then h_{i,s} = +-mu_|s| / |s|: the only denominator is the integer |s|.
        """
        qi = self.sig.q_node(i)
        sign = 1 if s > 0 else -1
        head = self.gen(kinv(i) if s > 0 else kay(i))
        ys: dict[int, Mat] = {}
        mus: dict[int, Mat] = {}
        for n in range(1, abs(s) + 1):
            y = head * self.gen(("bracket", i, sign * n))
            if sign < 0:
                y = -y
            mus[n] = y.scale(n)
            for r in range(1, n):
                mus[n] = mus[n] - mus[r] * ys[n - r]
            ys[n] = y.scale(qi - qi**-1)
        return mus[abs(s)].scale(scalar(sign) / abs(s))

    def _derive_pi(self, key: tuple) -> Mat:
        src = self.source
        sig = self.sig
        flip = sig.M + sig.N
        tag = key[0]
        if tag in ("X+", "X-", "H"):
            node = key[1]
            idx = key[2]
            sgn = ONE
            if tag != "X+" and sig.parity_node(node):
                sgn = -ONE
            return src.gen((tag, flip - node, -idx)).scale(sgn)
        if tag == "K":
            return src.gen(kinv(flip - key[1]))
        if tag == "Kinv":
            return src.gen(kay(flip - key[1]))
        raise ModuleError(f"pi pullback does not provide {key}")


# ---------------------------------------------------------------------------
# the vector module, its evaluation pullback, pi pullback and tensor products
# ---------------------------------------------------------------------------


def _torus(dim: int, powers: dict) -> Mat:
    """The product of t_k^{powers[k]} with t_k = q^{E_kk}: q^{powers[k]} at basis vector k."""
    return Mat(dim, dim, {(k, k): q ** powers.get(k, 0) for k in range(dim)})


# The catalog families whose loop-degree-0 instances present the finite
# algebra.  The degree-4 relation twists by (q^-1, q); the order (q, q^-1)
# differs from it by an element of the ideal of e_M^2 and [e_{M-1}, e_{M+1}],
# which deg2-zero checks, so both orders give the same verdict.
_FINITE_FAMILIES = ("cartan", "kx", "pm-mixed", "deg2-zero", "serre3", "oscillation4")


def fundamental(M: int, N: int) -> LoopModule:
    """The vector module at loop degree 0: its K_i^{+-1} and X^+-_{i,0}.

    K_i = t_i^{l_i} t_{i+1}^{-l_{i+1}} with t_k = q^{E_kk} acts diagonally,
    X^+-_{i,0} by the matrix units E_{i,i+1} and E_{i+1,i}.  Construction is
    only accepted after the catalog's loop-degree-0 instances pass.
    """
    if M < 1 or N < 1:
        raise ModuleError("need M >= 1 and N >= 1")
    sig = AlgebraSignature(M, N)
    dim = M + N
    base: dict = {}
    for i in range(1, dim):
        li, li1 = sig.l(i), sig.l(i + 1)
        base[kay(i)] = _torus(dim, {i - 1: li, i: -li1})
        base[kinv(i)] = _torus(dim, {i - 1: -li, i: li1})
        base[("X+", i, 0)] = Mat(dim, dim, {(i - 1, i): ONE})
        base[("X-", i, 0)] = Mat(dim, dim, {(i, i - 1): ONE})
    lm = LoopModule(sig, [0 if k < M else 1 for k in range(dim)], base)
    report = relation_report(lm, window=0, families=_FINITE_FAMILIES)
    if not report["passed"]:
        bad = next(c for c in report["checks"] if c["status"] == "fail")
        raise ModuleError(f"fundamental({M},{N}) fails relation {bad['name']}")
    return lm


def _chevalley_bracket(lm: LoopModule, tag: str) -> Mat:
    """[...[[X_1, X_2]_{q_2}, X_3]_{q_3}, ..., X_{M+N-1}]_{q_{M+N-1}} in the X^+-_{k,0} of tag."""
    sig = lm.sig
    out, par = lm.gen((tag, 1, 0)), sig.parity_node(1)
    for k in range(2, sig.n_nodes + 1):
        p = sig.parity_node(k)
        out = super_comm(out, par, lm.gen((tag, k, 0)), p, sig.q_node(k))
        par = (par + p) % 2
    return out


def evaluation_pullback(mod: LoopModule, a) -> LoopModule:
    """Pull the vector module ``fundamental(M, N)`` back along the evaluation at a.

    Requires M != N.  The affine generators are the twisted brackets of
    the Chevalley raising/lowering currents times t_1 t_{M+N}^-1, which
    acts by diag(q, 1, ..., 1, q^-1); the loop grading twist multiplies a
    current of loop degree n by a^n.
    """
    a = scalar(a)
    sig = mod.sig
    M, N, top = sig.M, sig.N, mod.dim - 1
    if M == N:
        raise ModuleError("evaluation morphisms need M != N")
    if a == ZERO:
        raise ModuleError("the evaluation point must be invertible")
    if mod.dim != M + N:
        raise ModuleError("the evaluation pullback takes the vector module")
    sign = -((-ONE) ** (N - M)) * q ** (N - M)
    e0_plus = _chevalley_bracket(mod, "X-") * _torus(mod.dim, {0: 1, top: -1})
    e0_minus = _torus(mod.dim, {0: -1, top: 1}) * _chevalley_bracket(mod, "X+")
    # the Chevalley level alone: currents derived on mod may be of another point
    base = {}
    for i in range(1, M + N):
        base.update((k, mod.gen(k)) for k in (kay(i), kinv(i), ("X+", i, 0), ("X-", i, 0)))
    base[e0p()] = e0_plus.scale(sign).scale(a)
    base[e0m()] = e0_minus.scale(a**-1)
    return LoopModule(sig, mod.parity, base)


def pi_pullback(lm: LoopModule) -> LoopModule:
    """The module pulled back through the Dynkin flip onto the swapped signature."""
    sig = AlgebraSignature(lm.sig.N, lm.sig.M)
    return LoopModule(sig, lm.parity, {}, source=lm)


def tensor(m1: LoopModule, m2: LoopModule) -> LoopModule:
    """Super tensor product along the Chevalley coproduct.

    The Chevalley level acts through Delta(E^+) = 1 (x) E^+ + E^+ (x) K^-1,
    Delta(E^-) = K (x) E^- + E^- (x) 1, Delta(K) = K (x) K (including the
    affine node); all loop currents are re-derived on the product.
    """
    if m1.sig != m2.sig:
        raise ModuleError("tensor factors must share a signature")
    sig = m1.sig
    p1, p2 = m1.parity, m2.parity
    parity = [(x + y) % 2 for x in p1 for y in p2]
    id1 = Mat.identity(m1.dim)
    id2 = Mat.identity(m2.dim)

    def kron(A, B):
        return kron_super(A, B, p1, p2)

    base: dict = {}
    for i in range(1, sig.n_nodes + 1):
        base[kay(i)] = kron(m1.gen(kay(i)), m2.gen(kay(i)))
        base[kinv(i)] = kron(m1.gen(kinv(i)), m2.gen(kinv(i)))
        base[("X+", i, 0)] = kron(id1, m2.gen(("X+", i, 0))) + kron(
            m1.gen(("X+", i, 0)), m2.gen(kinv(i))
        )
        base[("X-", i, 0)] = kron(m1.gen(kay(i)), m2.gen(("X-", i, 0))) + kron(
            m1.gen(("X-", i, 0)), id2
        )
    base[e0p()] = kron(id1, m2.gen(e0p())) + kron(m1.gen(e0p()), m2.gen(("K0inv",)))
    base[e0m()] = kron(m1.gen(("K0",)), m2.gen(e0m())) + kron(m1.gen(e0m()), id2)
    return LoopModule(sig, parity, base)


# ---------------------------------------------------------------------------
# relation suites
# ---------------------------------------------------------------------------


def check_relation(lm: LoopModule, rule: RelRule) -> bool:
    """The relation holds on the module: its template evaluated on word matrices is zero.

    Instances share the module's memo for brackets and phi coefficients,
    which never reads ``_cache``.
    """
    return relation_value(lm.sig, rule, lm._word_matrix, lm.memo).is_zero()


def relation_report(
    lm: LoopModule,
    window: int = 2,
    families: Iterable[str] | None = None,
    include_chevalley: bool = False,
) -> dict:
    """Evaluate the defining-relation catalog on the module.

    One report entry per (family, sign) with instance counts; failing
    instances are listed individually with their indices.
    """
    span = range(-window, window + 1)
    rules = relation_instances(lm.sig, span, families=families)
    if include_chevalley:
        rules = rules + chevalley_instances(lm.sig)
    grouped: dict[tuple, list[RelRule]] = {}
    for r in rules:
        grouped.setdefault((r.family, r.sign), []).append(r)
    checks = []
    for (fam, sgn), batch in sorted(grouped.items()):
        failures = [r.indices for r in batch if not check_relation(lm, r)]
        checks.append(
            {
                "name": f"{fam}({'+' if sgn > 0 else '-'})",
                "instances": len(batch),
                "failures": [list(ix) for ix in failures],
                "status": "pass" if not failures else "fail",
            }
        )
    return {
        "window": window,
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# highest-weight extraction
# ---------------------------------------------------------------------------


def _eigenvalue(m: Mat, v: dict) -> Scalar:
    mv = m.apply(v)
    pivot = min(v)
    lam = mv.get(pivot, ZERO) / v[pivot]
    for k in set(v) | set(mv):
        if mv.get(k, ZERO) != lam * v.get(k, ZERO):
            raise ModuleError("vector is not an eigenvector")
    return lam


def _sign_qpower(lam: Scalar, qi: Scalar, bound: int) -> tuple[int, int]:
    for d in range(bound + 1):
        if lam == qi**d:
            return 1, d
        if lam == -(qi**d):
            return -1, d
    raise ModuleError("K eigenvalue is not +-(q_i)^d within the degree bound")


# the widest loop window over which the raising kernel is compared
_MAX_KERNEL_WINDOW = 6


def highest_vector(lm: LoopModule, window: int = 2) -> dict:
    """The line the raising currents kill, scaled to 1 at its least index.

    The joint kernel of X^+_{i,n}, |n| <= w, is taken for w = window,
    window + 1, ... until two windows give the same dimension, which
    must be 1.
    """
    if window >= _MAX_KERNEL_WINDOW:
        raise ModuleError(
            f"the raising-kernel window must be below {_MAX_KERNEL_WINDOW}, so that "
            "two windows can be compared"
        )
    prev = None
    w = window
    while w <= _MAX_KERNEL_WINDOW:
        mats = [
            lm.gen(("X+", i, n))
            for i in range(1, lm.sig.n_nodes + 1)
            for n in range(-w, w + 1)
        ]
        kern = joint_nullspace(mats, lm.dim)
        if prev is not None and len(kern) == len(prev):
            if len(kern) != 1:
                raise ModuleError(f"raising-kernel dimension is {len(kern)}, not 1")
            v = kern[0]
            pivot = min(v)
            return {k: val / v[pivot] for k, val in v.items()}
        prev = kern
        w += 1
    raise ModuleError(f"raising-kernel dimension did not stabilise by window {_MAX_KERNEL_WINDOW}")


def highest_weight(
    lm: LoopModule, window: int = 2, degree_bound: int | None = None
) -> HighestWeight:
    """Extract the highest-weight datum of the module.

    The even-node polynomials are reconstructed from the phi eigen-series
    of the highest vector, the odd node through the torsion triple of the
    measured two-sided phi eigenvalues, which are the window of f scaled
    by q - q^-1.
    """
    return _highest_weight_at(lm, highest_vector(lm, window), degree_bound)


def _highest_weight_at(lm: LoopModule, v: dict, degree_bound: int | None) -> HighestWeight:
    """``highest_weight`` read off the given highest vector v."""
    sig = lm.sig
    if degree_bound is None:
        degree_bound = max(2, lm.dim)
    P: dict[int, ZPoly] = {}
    eps: dict[int, int] = {}
    for i in range(1, sig.n_nodes + 1):
        if i == sig.M:
            continue
        qi = sig.q_node(i)
        lam = _eigenvalue(lm.gen(kay(i)), v)
        sgn, d = _sign_qpower(lam, qi, 3 * lm.dim + 4)
        eps[i] = sgn
        P[i] = _reconstruct_poly(lm, v, i, sgn, d)
    c = _eigenvalue(lm.gen(kay(sig.M)), v)
    order = 2 * degree_bound + 2
    gwin: dict[int, Scalar] = {0: c - c**-1}
    for n in range(1, order + 1):
        gwin[n] = _eigenvalue(lm.gen(("phi", 1, sig.M, n)), v)
        gwin[-n] = -_eigenvalue(lm.gen(("phi", -1, sig.M, -n)), v)
    torsion = series_to_torsion(gwin, c, degree_bound, scale=q - q**-1)
    try:
        k0 = _eigenvalue(lm.gen(("K0",)), v)
    except ModuleError:
        k0 = None
    return HighestWeight(P, torsion, eps, k0)


def odd_slice(
    lm: LoopModule, window: int = 2, degree_bound: int | None = None
) -> tuple[int, ZPoly, bool]:
    """The odd slice of the module: w_n = X^-_{M,n} v for n = 0..2 degree_bound + 1.

    v is the highest vector.  Returns the rank d of the w_n, the odd
    triple's P from ``highest_weight`` and whether P annihilates the
    sequence: sum_s p_s w_{m-s} = 0 for every m from deg P to the last n.
    When it does and d = deg P, the shift w_n -> w_{n+1} acts on the
    span of the w_n with characteristic polynomial z^d P(1/z): the slice
    has the finite dimension deg P that the Weyl module's odd node
    predicts.
    """
    if degree_bound is None:
        degree_bound = max(2, lm.dim)
    v = highest_vector(lm, window)
    P = _highest_weight_at(lm, v, degree_bound).torsion.P
    M = lm.sig.M
    ws = [lm.gen(("X-", M, n)).apply(v) for n in range(2 * degree_bound + 2)]
    annihilates = True
    for m in range(P.degree, len(ws)):
        acc: dict = {}
        for s, p in enumerate(P.coeffs):
            for k, x in ws[m - s].items():
                acc[k] = acc.get(k, ZERO) + p * x
        annihilates &= all(x == ZERO for x in acc.values())
    return rank(ws), P, annihilates


def _reconstruct_poly(lm: LoopModule, v: dict, i: int, sgn: int, d: int) -> ZPoly:
    """Solve q_i^d P(z q_i^-1) = eps^-1 g(z) P(z q_i) for P from the measured g."""
    sig = lm.sig
    qi = sig.q_node(i)
    order = 2 * d + 2
    g = [_eigenvalue(lm.gen(("phi", 1, i, n)), v) for n in range(order + 1)]
    if g[0] != scalar(sgn) * qi**d:
        raise ModuleError("phi constant term disagrees with the K eigenvalue")
    cols = []
    for j in range(1, d + 1):
        col = {}
        for k in range(1, order + 1):
            val = (g[k - j] * qi**j if k - j >= 0 else ZERO) - (
                scalar(sgn) * qi ** (d - k) if j == k else ZERO
            )
            if val != ZERO:
                col[k] = val
        cols.append(col)
    target = {k: -g[k] for k in range(1, order + 1) if g[k] != ZERO}
    sol = solve_span(cols, target)
    if sol is None:
        raise ModuleError(f"no degree-{d} polynomial matches the node-{i} phi series")
    P = ZPoly([ONE] + list(sol))
    # verify the minus-direction series as well
    minus = expand_ratio(scalar(sgn) * qi**d, P.scale_arg(qi**-1), P.scale_arg(qi), order)
    for n in range(order + 1):
        measured = _eigenvalue(lm.gen(("phi", -1, i, -n)), v)
        if measured != minus[n]:
            raise ModuleError(f"node-{i} minus phi series disagrees at order {n}")
    return P


# ---------------------------------------------------------------------------
# coproduct membership checks
# ---------------------------------------------------------------------------


# the loop window of the currents spanning a coproduct's correction space
_CORRECTION_WINDOW = 2


def _x_span(lm: LoopModule, sign: int) -> list[Mat]:
    tag = "X+" if sign > 0 else "X-"
    return [
        lm.gen((tag, i, n))
        for i in range(1, lm.sig.n_nodes + 1)
        for n in range(-_CORRECTION_WINDOW, _CORRECTION_WINDOW + 1)
    ]


def _algebra_span(lm: LoopModule) -> list[Mat]:
    """Basis of the image algebra, generated by the base currents."""
    gens = [Mat.identity(lm.dim)]
    for i in range(1, lm.sig.n_nodes + 1):
        gens += [lm.gen(kay(i)), lm.gen(kinv(i))]
        gens += [lm.gen(("X+", i, 0)), lm.gen(("X-", i, 0))]
    gens += [lm._cache[key] for key in (e0p(), e0m()) if key in lm._cache]
    basis: list[Mat] = []

    def products():
        """The generators, then breadth-first each new basis element times each generator."""
        yield from gens
        done = 0
        while done < len(basis):
            level, done = basis[done:], len(basis)
            for m in level:
                for g in gens[1:]:
                    yield m * g

    red = RowReducer()
    for m in products():
        if red.add(m.flatten()):
            basis.append(m)
            if len(basis) == lm.dim**2:  # all of End(V): no later product can enlarge it
                break
    return basis


def _left_ideal_span(lm: LoopModule, signs: tuple) -> list[Mat]:
    """Basis of span{ u * x1 * x2 * ... : u in the image algebra, x_k in ``_x_span(lm, signs[k])`` }."""
    prods = [Mat.identity(lm.dim)]
    for s in signs:
        prods = [p * f for p in prods for f in _x_span(lm, s)]
    red = RowReducer()
    tail: list[Mat] = []
    for p in prods:
        if red.add(p.flatten()):
            tail.append(p)
    out_red = RowReducer()
    out: list[Mat] = []
    for u in lm.memo(("algebra",), lambda: _algebra_span(lm)):
        for t in tail:
            cand = u * t
            if out_red.add(cand.flatten()):
                out.append(cand)
    return out


def _corr_basis(m1: LoopModule, m2: LoopModule, modulus: tuple) -> list[Mat]:
    """Correction-space basis on the product module.

    ``modulus`` holds one (left signs, right signs) pair per summand:
    ((-1,), (1, 1)) spans U x^- (x) U x^+ x^+, U the image algebra.
    """
    out = []
    for left, right in modulus:
        lefts = m1.memo(("ideal", left), lambda: _left_ideal_span(m1, left))
        rights = m2.memo(("ideal", right), lambda: _left_ideal_span(m2, right))
        out += [kron_super(s1, s2, m1.parity, m2.parity) for s1 in lefts for s2 in rights]
    return out


def _correction(m1: LoopModule, m2: LoopModule, modulus: tuple) -> tuple[list[dict], RowReducer]:
    """The flattened ``_corr_basis`` and a reducer of its span, kept in m1's memo
    under (m2, modulus): the space depends on the factors only."""

    def build():
        basis = [mat.flatten() for mat in _corr_basis(m1, m2, modulus)]
        red = RowReducer()
        for vec in basis:
            red.add(vec)
        return basis, red

    return m1.memo(("correction", m2, modulus), build)


def _coproduct_claim(
    j: int, n: int, part: str, m1: LoopModule, m2: LoopModule
) -> tuple[tuple, list[tuple[Mat, Mat]], tuple]:
    """(tensor-module key, explicit A (x) B terms, correction modulus)."""
    if part == "x+":
        key = ("X+", j, n)
        ki = m1.gen(kinv(j))
        tail = (m1.gen(("X+", j, n)), m2.gen(kinv(j)))
        if n >= 0:
            terms = [(Mat.identity(m1.dim), m2.gen(("X+", j, n))), tail]
            for s in range(1, n + 1):
                terms.append((ki * m1.gen(("phi", 1, j, s)), m2.gen(("X+", j, n - s))))
        else:
            terms = [(ki * ki, m2.gen(("X+", j, n))), tail]
            for s in range(1, -n):
                terms.append((ki * m1.gen(("phi", -1, j, -s)), m2.gen(("X+", j, n + s))))
        return key, terms, (((-1,), (1, 1)),)
    if part == "x-":
        key = ("X-", j, n)
        k = m2.gen(kay(j))
        head = (m1.gen(kay(j)), m2.gen(("X-", j, n)))
        if n > 0:
            terms = [head, (m1.gen(("X-", j, n)), k * k)]
            for s in range(1, n):
                terms.append((m1.gen(("X-", j, s)), k * m2.gen(("phi", 1, j, n - s))))
        else:
            terms = [head, (m1.gen(("X-", j, n)), Mat.identity(m2.dim))]
            for s in range(1, -n + 1):
                terms.append((m1.gen(("X-", j, n + s)), k * m2.gen(("phi", -1, j, -s))))
        return key, terms, (((-1, -1), (1,)),)
    if part == "phi":
        sign = 1 if n >= 0 else -1
        key = ("phi", sign, j, n)
        terms = [
            (m1.gen(("phi", sign, j, sign * s)), m2.gen(("phi", sign, j, n - sign * s)))
            for s in range(abs(n) + 1)
        ]
        return key, terms, (((-1,), (1,)), ((1,), (-1,)))
    raise ValueError(f"unknown coproduct part {part!r}")


def check_coproduct_formula(
    j: int, n: int, m1: LoopModule, m2: LoopModule, part: str, product: LoopModule
) -> bool:
    """Check a coproduct formula on the product module by exact membership.

    The derived current on the tensor module minus the formula's explicit
    terms must lie in the stated correction space; at loop degree zero the
    equality is exact.
    """
    key, terms, modulus = _coproduct_claim(j, n, part, m1, m2)
    lhs = product.gen(key)
    for A, B in terms:
        lhs = lhs - kron_super(A, B, m1.parity, m2.parity)
    if lhs.is_zero():
        return True
    if n == 0:
        return False
    return _correction(m1, m2, modulus)[1].contains(lhs.flatten())


def cartan_coproduct_constants(
    i: int, m1: LoopModule, m2: LoopModule, product: LoopModule, sign: int = 1
) -> dict:
    """Solve the level-one Cartan coproduct membership for (x, y, z).

    Returns the unique-or-consistent status of each constant; z is pinned
    against +-(q_i - q_i^-1).
    """
    sig = m1.sig
    if not 1 <= i <= sig.n_nodes - 1:
        raise ModuleError("the formula covers 1 <= i <= M+N-2")
    s = 1 if sign > 0 else -1
    hkey = ("H", i, s)
    id1 = Mat.identity(m1.dim)
    id2 = Mat.identity(m2.dim)
    target = (
        product.gen(hkey)
        - kron_super(m1.gen(hkey), id2, m1.parity, m2.parity)
        - kron_super(id1, m2.gen(hkey), m1.parity, m2.parity)
    )

    def column(node: int) -> Mat | None:
        if node < 1 or node > sig.n_nodes:
            return None
        left = m1.gen(("X-", node, 1 if s > 0 else 0)) * m1.gen(kinv(node))
        right = m2.gen(kay(node)) * m2.gen(("X+", node, 0 if s > 0 else -1))
        return kron_super(left, right, m1.parity, m2.parity)

    cols = {"x": column(i - 1), "y": column(i), "z": column(i + 1)}
    corr, corr_red = _correction(m1, m2, (((-1, -1), (1, 1)),))
    names = [k for k, v in cols.items() if v is not None]
    sol = solve_span([cols[k].flatten() for k in names] + corr, target.flatten())
    if sol is None:
        return {"solvable": False}
    values = dict(zip(names, sol))
    qi = sig.q_node(i)
    z_expected = scalar(s) * (qi - qi**-1)
    # the span of the corrections and of every column but z
    red = corr_red.copy()
    for k in names:
        if k != "z":
            red.add(cols[k].flatten())
    z_unique = not red.contains(cols["z"].flatten())
    # z = z_expected is consistent exactly when the rest of the target lies
    # in that span; when z is pinned this says the unique z is z_expected
    z_matches = red.contains((target - cols["z"].scale(z_expected)).flatten())
    return {
        "solvable": True,
        "values": {k: scalar_str(v) for k, v in values.items()},
        "z_unique": z_unique,
        "z_matches": z_matches,
    }
