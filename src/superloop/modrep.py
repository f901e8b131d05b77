"""Finite-dimensional modules and their loop-current matrices.

A GLModule is the finite quantum superalgebra datum (t_i, e_j^+-) given by
exact matrices and certified by an explicit relation check.  A LoopModule
carries matrices for all loop currents: the Chevalley level is set by an
evaluation pullback (or a coproduct, for tensor products), the level-one
Cartan loops come from the twisted bracket words in the affine generators,
and everything else is derived by commutator ladders and exact series
inversion.  Every derived matrix can be cross-checked against the defining
relations, which is what the verification suites do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .coeffs import ONE, ZERO, Scalar, ZPoly, expand_ratio, q, qint_base, scalar, scalar_str
from .linalg import Mat, RowReducer, joint_nullspace, kron_super, solve_span
from .superfree import (
    AlgebraSignature,
    Elem,
    GenSym,
    RelRule,
    X_MINUS,
    X_PLUS,
    chevalley_instances,
    e0m,
    e0p,
    floor_bracket,
    ceil_bracket,
    relation_instances,
    relation_value,
    super_comm,
    xm,
    xp,
)
from .weyl import HighestWeight, series_to_torsion


class ModuleError(ValueError):
    """Raised when a module fails construction or an extraction precondition."""


# ---------------------------------------------------------------------------
# the finite quantum superalgebra and its fundamental module
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GLModule:
    """Exact matrices for t_i^{+-1} and e_j^{+-} with basis parities."""

    M: int
    N: int
    parity: tuple
    t: tuple
    tinv: tuple
    eplus: tuple
    eminus: tuple

    @property
    def dim(self) -> int:
        return len(self.parity)

    @property
    def signature(self) -> AlgebraSignature:
        return AlgebraSignature(self.M, self.N)


def fundamental(M: int, N: int) -> GLModule:
    """The vector module: matrix-unit raising/lowering with t_i = q^{E_ii}.

    Construction is only accepted after the full relation check passes.
    """
    if M < 1 or N < 1:
        raise ModuleError("need M >= 1 and N >= 1")
    dim = M + N
    parity = tuple(0 if k < M else 1 for k in range(dim))
    t = tuple(
        Mat(dim, dim, {(k, k): (q if k == i else ONE) for k in range(dim)})
        for i in range(dim)
    )
    tinv = tuple(
        Mat(dim, dim, {(k, k): (q**-1 if k == i else ONE) for k in range(dim)})
        for i in range(dim)
    )
    eplus = tuple(Mat(dim, dim, {(j, j + 1): ONE}) for j in range(dim - 1))
    eminus = tuple(Mat(dim, dim, {(j + 1, j): ONE}) for j in range(dim - 1))
    mod = GLModule(M, N, parity, t, tinv, eplus, eminus)
    report = check_gl_relations(mod)
    if not report["passed"]:
        bad = next(c for c in report["checks"] if c["status"] == "fail")
        raise ModuleError(f"fundamental({M},{N}) fails relation {bad['name']}")
    return mod


# the catalog families whose loop-degree-0 instances present the finite algebra
_FINITE_FAMILIES = ("pm-mixed", "deg2-zero", "serre3", "oscillation4")


def check_gl_relations(mod: GLModule) -> dict:
    """Evaluate every defining-relation family as exact matrix identities.

    The torus relations are checked by hand: the catalog has no t_i.  The
    relations among the e's are the loop-degree-0 instances of the catalog
    on the module's Chevalley-level matrices.  Its degree-4 relation twists
    by (q^-1, q); the order (q, q^-1) differs from it by an element of the
    ideal of e_M^2 and [e_{M-1}, e_{M+1}], which deg2-zero checks, so both
    orders give the same verdict.
    """
    dim = mod.dim
    checks = []

    def record(name, mat):
        checks.append({"name": name, "status": "pass" if mat.is_zero() else "fail"})

    for i in range(1, dim + 1):
        record(f"t_{i} t_{i}^-1 = 1", mod.t[i - 1] * mod.tinv[i - 1] - Mat.identity(dim))
    for i in range(1, dim + 1):
        for j in range(1, dim):
            for sign, es in ((1, mod.eplus), (-1, mod.eminus)):
                expo = sign * ((1 if i == j else 0) - (1 if i == j + 1 else 0))
                lhs = mod.t[i - 1] * es[j - 1] * mod.tinv[i - 1]
                record(
                    f"t_{i} e_{j}^{'+' if sign>0 else '-'} t_{i}^-1 twist",
                    lhs - es[j - 1].scale(q**expo),
                )
    finite = LoopModule(mod.signature, mod.parity, _chevalley_base(mod))
    checks += relation_report(finite, window=0, families=_FINITE_FAMILIES)["checks"]
    return {"passed": all(c["status"] == "pass" for c in checks), "checks": checks}


def _tpow(mod: GLModule, i: int, power: int) -> Mat:
    """t_i^power for power = +-1."""
    return mod.t[i - 1] if power > 0 else mod.tinv[i - 1]


def _chevalley_base(mod: GLModule) -> dict:
    """K_i^{+-1} and X^+-_{i,0} of the finite module, keyed as LoopModule currents."""
    sig = mod.signature
    base: dict = {}
    for i in range(1, sig.n_nodes + 1):
        li, li1 = sig.l(i), sig.l(i + 1)
        base[("K", i)] = _tpow(mod, i, li) * _tpow(mod, i + 1, -li1)
        base[("Kinv", i)] = _tpow(mod, i, -li) * _tpow(mod, i + 1, li1)
        base[("X+", i, 0)] = mod.eplus[i - 1]
        base[("X-", i, 0)] = mod.eminus[i - 1]
    return base


# ---------------------------------------------------------------------------
# loop modules
# ---------------------------------------------------------------------------

class LoopModule:
    """A representation of the loop superalgebra by exact matrices.

    ``base`` seeds the cache (Chevalley-level matrices and the affine
    E0 pair); every other current is derived lazily: level +-1 Cartan
    loops from the affine bracket words, X currents by commutator
    ladders, phi coefficients from the mixed relation, deeper Cartan
    loops by exact logarithmic series inversion.  A module with a
    ``source`` is the source's ``pi_pullback``: its X, H and K currents
    are read off the source through the Dynkin flip.
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
        self._alg_span: list[Mat] | None = None

    # -- generator matrices -------------------------------------------

    def gen(self, key: tuple) -> Mat:
        got = self._cache.get(key)
        if got is not None:
            return got
        mat = self._derive(key)
        self._cache[key] = mat
        return mat

    def gen_sym(self, g: GenSym) -> Mat:
        self.sig.check_symbol(g)
        if g.kind == X_PLUS:
            return self.gen(("X+", g.node, g.index))
        if g.kind == X_MINUS:
            return self.gen(("X-", g.node, g.index))
        if g.kind == "K":
            return self.gen(("K", g.node))
        if g.kind == "Kinv":
            return self.gen(("Kinv", g.node))
        if g.kind == "H":
            return self.gen(("H", g.node, g.index))
        if g.kind == "E0+":
            return self.gen(("E0+",))
        return self.gen(("E0-",))

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
            got = self.gen_sym(word[0]) * self._word_matrix(word[1:])
            self._word_cache[word] = got
        return got

    # -- derivations ---------------------------------------------------

    def _derive(self, key: tuple) -> Mat:
        tag = key[0]
        if tag in ("K0", "K0inv"):
            # K_0 = (K_1 ... K_{M+N-1})^{-1}
            out = Mat.identity(self.dim)
            for i in range(1, self.sig.n_nodes + 1):
                out = out * self.gen(("Kinv", i) if tag == "K0" else ("K", i))
            return out
        if tag == "phi":
            _, sign, i, n = key
            return self._phi(sign, i, n)
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

    def _ladder_neighbor(self, j: int) -> int:
        sig = self.sig
        if sig.c(j, j) != 0:
            return j
        for i in (j - 1, j + 1):
            if 1 <= i <= sig.n_nodes and sig.c(i, j) != 0:
                return i
        raise ModuleError(f"no ladder neighbour for node {j}")

    def _ladder(self, tag: str, j: int, n: int) -> Mat:
        sig = self.sig
        i = self._ladder_neighbor(j)
        div = qint_base(sig.l(i) * sig.c(i, j), sig.l(i))
        step = 1 if n > 0 else -1
        prev = self.gen((tag, j, n - step))
        h = self.gen(("H", i, step))
        comm = h * prev - prev * h
        if tag == "X+":
            return comm.scale(ONE / div)
        return comm.scale(-ONE / div)

    def _h_one(self, i: int, s: int) -> Mat:
        sig = self.sig
        lam = (-ONE) ** i if i <= sig.M else (-ONE) ** (i - 1)
        if s == 1:
            items = [Elem.monomial((xp(i, 0),))]
            items += [Elem.monomial((xp(k, 0),)) for k in range(i - 1, 0, -1)]
            items += [Elem.monomial((xp(k, 0),)) for k in range(i + 1, sig.n_nodes + 1)]
            items.append(Elem.monomial((e0p(),)))
            word = floor_bracket(sig, items).scale(lam)
        else:
            items = [Elem.monomial((e0m(),))]
            items += [Elem.monomial((xm(k, 0),)) for k in range(sig.n_nodes, i, -1)]
            items += [Elem.monomial((xm(k, 0),)) for k in range(1, i + 1)]
            word = ceil_bracket(sig, items).scale(-lam)
        return self.elem_matrix(word)

    def _phi(self, sign: int, i: int, n: int) -> Mat:
        sig = self.sig
        if sign > 0 and n < 0 or sign < 0 and n > 0:
            raise ModuleError("phi coefficient with wrong-sign index")
        if n == 0:
            return self.gen(("K", i)) if sign > 0 else self.gen(("Kinv", i))
        qi = sig.q_node(i)
        pi = sig.parity_node(i)
        comm = super_comm(self.gen(("X+", i, n)), pi, self.gen(("X-", i, 0)), pi)
        return comm.scale((qi - qi**-1) * (ONE if sign > 0 else -ONE))

    def _h_deep(self, i: int, s: int) -> Mat:
        sig = self.sig
        qi = sig.q_node(i)
        order = abs(s)
        if s > 0:
            ys = [self.gen(("Kinv", i)) * self.gen(("phi", 1, i, k)) for k in range(1, order + 1)]
        else:
            ys = [self.gen(("K", i)) * self.gen(("phi", -1, i, -k)) for k in range(1, order + 1)]
        log_c = _log_series_coefficient(ys, order, self.dim)
        out = log_c.scale(ONE / (qi - qi**-1))
        return out if s > 0 else out.scale(-ONE)

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
            return src.gen(("Kinv", flip - key[1]))
        if tag == "Kinv":
            return src.gen(("K", flip - key[1]))
        raise ModuleError(f"pi pullback does not provide {key}")

    # -- spans used by membership oracles ------------------------------

    def algebra_span(self) -> list[Mat]:
        """Basis of the image algebra, generated by the base currents."""
        if self._alg_span is not None:
            return self._alg_span
        gens = [Mat.identity(self.dim)]
        for i in range(1, self.sig.n_nodes + 1):
            gens += [self.gen(("K", i)), self.gen(("Kinv", i))]
            gens += [self.gen(("X+", i, 0)), self.gen(("X-", i, 0))]
        gens += [self._cache[key] for key in (("E0+",), ("E0-",)) if key in self._cache]
        red = RowReducer()
        basis: list[Mat] = []

        def push(m: Mat):
            if red.add(m.flatten()):
                basis.append(m)
                return True
            return False

        for g in gens:
            push(g)
        frontier = list(basis)
        while frontier:
            new = []
            for m in frontier:
                for g in gens[1:]:
                    prod = m * g
                    if push(prod):
                        new.append(prod)
            frontier = new
        self._alg_span = basis
        return basis


def _log_series_coefficient(ys: list[Mat], order: int, dim: int) -> Mat:
    """Coefficient of z^order in log(I + sum ys[k-1] z^k), exact."""
    # power[p][n] = coefficient of z^n in Y(z)^p
    coeffs = {1: {n: ys[n - 1] for n in range(1, order + 1)}}
    for p in range(2, order + 1):
        prev = coeffs[p - 1]
        cur: dict[int, Mat] = {}
        for n in range(p, order + 1):
            acc = Mat.zeros(dim, dim)
            for k in range(1, n - p + 2):
                rest = prev.get(n - k)
                if rest is not None:
                    acc = acc + ys[k - 1] * rest
            cur[n] = acc
        coeffs[p] = cur
    out = Mat.zeros(dim, dim)
    for p in range(1, order + 1):
        term = coeffs[p].get(order)
        if term is None:
            continue
        out = out + term.scale(scalar((-1) ** (p + 1)) / scalar(p))
    return out


# ---------------------------------------------------------------------------
# evaluation pullback, pi pullback and tensor products
# ---------------------------------------------------------------------------


def _chevalley_bracket(mats: list[Mat], parities: list[int], twists: list[Scalar]) -> Mat:
    out = mats[0]
    par = parities[0]
    for m, p, tw in zip(mats[1:], parities[1:], twists[1:]):
        out = super_comm(out, par, m, p, tw)
        par = (par + p) % 2
    return out


def evaluation_pullback(mod: GLModule, a) -> LoopModule:
    """Pull the finite module back along the evaluation at the point a.

    Requires M != N.  The affine generators are the twisted bracket words
    in the finite raising/lowering operators; the loop grading twist
    multiplies a current of loop degree n by a^n.
    """
    a = scalar(a)
    M, N = mod.M, mod.N
    if M == N:
        raise ModuleError("evaluation morphisms need M != N")
    if a == ZERO:
        raise ModuleError("the evaluation point must be invertible")
    sig = mod.signature
    base = _chevalley_base(mod)
    n_nodes = sig.n_nodes
    parities = [sig.parity_node(k) for k in range(1, n_nodes + 1)]
    twists = [ONE] + [sig.q_node(k) for k in range(2, n_nodes + 1)]
    minus_word = _chevalley_bracket(list(mod.eminus), parities, twists)
    plus_word = _chevalley_bracket(list(mod.eplus), parities, twists)
    sign = -((-ONE) ** (N - M)) * q ** (N - M)
    e0_plus = (minus_word * _tpow(mod, 1, 1) * _tpow(mod, M + N, -1)).scale(sign)
    e0_minus = _tpow(mod, 1, -1) * _tpow(mod, M + N, 1) * plus_word
    base[("E0+",)] = e0_plus.scale(a)
    base[("E0-",)] = e0_minus.scale(a**-1)
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
        base[("K", i)] = kron(m1.gen(("K", i)), m2.gen(("K", i)))
        base[("Kinv", i)] = kron(m1.gen(("Kinv", i)), m2.gen(("Kinv", i)))
        base[("X+", i, 0)] = kron(id1, m2.gen(("X+", i, 0))) + kron(
            m1.gen(("X+", i, 0)), m2.gen(("Kinv", i))
        )
        base[("X-", i, 0)] = kron(m1.gen(("K", i)), m2.gen(("X-", i, 0))) + kron(
            m1.gen(("X-", i, 0)), id2
        )
    base[("E0+",)] = kron(id1, m2.gen(("E0+",))) + kron(m1.gen(("E0+",)), m2.gen(("K0inv",)))
    base[("E0-",)] = kron(m1.gen(("K0",)), m2.gen(("E0-",))) + kron(m1.gen(("E0-",)), id2)
    return LoopModule(sig, parity, base)


# ---------------------------------------------------------------------------
# relation suites
# ---------------------------------------------------------------------------


def check_relation(lm: LoopModule, rule: RelRule) -> bool:
    """The relation holds on the module: its template evaluated on word matrices is zero."""
    return relation_value(lm.sig, rule, lm._word_matrix).is_zero()


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


def highest_weight(
    lm: LoopModule, window: int = 2, degree_bound: int | None = None
) -> HighestWeight:
    """Extract the highest-weight datum of the module.

    The joint kernel of the raising currents over a stabilised loop
    window must be a line; the even-node polynomials are reconstructed
    from the measured phi eigen-series, the odd node through the torsion
    triple of the measured two-sided window.
    """
    sig = lm.sig
    if degree_bound is None:
        degree_bound = max(2, lm.dim)
    kern = _stable_kernel(lm, window)
    v = kern[0]
    pivot = min(v)
    v = {k: val / v[pivot] for k, val in v.items()}
    P: dict[int, ZPoly] = {}
    eps: dict[int, int] = {}
    for i in range(1, sig.n_nodes + 1):
        if i == sig.M:
            continue
        qi = sig.q_node(i)
        lam = _eigenvalue(lm.gen(("K", i)), v)
        sgn, d = _sign_qpower(lam, qi, 3 * lm.dim + 4)
        eps[i] = sgn
        P[i] = _reconstruct_poly(lm, v, i, sgn, d)
    c = _eigenvalue(lm.gen(("K", sig.M)), v)
    order = 2 * degree_bound + 2
    u = q - q**-1
    fwin: dict[int, Scalar] = {0: (c - c**-1) / u}
    for n in range(1, order + 1):
        fwin[n] = _eigenvalue(lm.gen(("phi", 1, sig.M, n)), v) / u
        fwin[-n] = -_eigenvalue(lm.gen(("phi", -1, sig.M, -n)), v) / u
    torsion = series_to_torsion(fwin, c, degree_bound)
    try:
        k0 = _eigenvalue(lm.gen(("K0",)), v)
    except ModuleError:
        k0 = None
    return HighestWeight(P, torsion, eps, k0)


def _stable_kernel(lm: LoopModule, window: int) -> list[dict]:
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
            return kern
        prev = kern
        w += 1
    raise ModuleError(f"raising-kernel dimension did not stabilise by window {_MAX_KERNEL_WINDOW}")


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
    minus = expand_ratio(
        scalar(sgn) * qi**d, P.scale_arg(qi**-1), P.scale_arg(qi), "-", order
    )
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


def _left_ideal_span(lm: LoopModule, factors: list[list[Mat]]) -> list[Mat]:
    """Basis of span{ u * f1 * f2 * ... : u in the image algebra }."""
    prods = [Mat.identity(lm.dim)]
    for fs in factors:
        prods = [p * f for p in prods for f in fs]
    red = RowReducer()
    tail: list[Mat] = []
    for p in prods:
        if red.add(p.flatten()):
            tail.append(p)
    out_red = RowReducer()
    out: list[Mat] = []
    for u in lm.algebra_span():
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
        lefts = _left_ideal_span(m1, [_x_span(m1, s) for s in left])
        rights = _left_ideal_span(m2, [_x_span(m2, s) for s in right])
        out += [kron_super(s1, s2, m1.parity, m2.parity) for s1 in lefts for s2 in rights]
    return out


def _coproduct_claim(
    j: int, n: int, part: str, m1: LoopModule, m2: LoopModule
) -> tuple[tuple, list[tuple[Mat, Mat]], tuple]:
    """(tensor-module key, explicit A (x) B terms, correction modulus)."""
    if part == "x+":
        key = ("X+", j, n)
        kinv = m1.gen(("Kinv", j))
        tail = (m1.gen(("X+", j, n)), m2.gen(("Kinv", j)))
        if n >= 0:
            terms = [(Mat.identity(m1.dim), m2.gen(("X+", j, n))), tail]
            for s in range(1, n + 1):
                terms.append((kinv * m1.gen(("phi", 1, j, s)), m2.gen(("X+", j, n - s))))
        else:
            terms = [(kinv * kinv, m2.gen(("X+", j, n))), tail]
            for s in range(1, -n):
                terms.append((kinv * m1.gen(("phi", -1, j, -s)), m2.gen(("X+", j, n + s))))
        return key, terms, (((-1,), (1, 1)),)
    if part == "x-":
        key = ("X-", j, n)
        k = m2.gen(("K", j))
        head = (m1.gen(("K", j)), m2.gen(("X-", j, n)))
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
    red = RowReducer()
    for mat in _corr_basis(m1, m2, modulus):
        red.add(mat.flatten())
    return red.contains(lhs.flatten())


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
        left = m1.gen(("X-", node, 1 if s > 0 else 0)) * m1.gen(("Kinv", node))
        right = m2.gen(("K", node)) * m2.gen(("X+", node, 0 if s > 0 else -1))
        return kron_super(left, right, m1.parity, m2.parity)

    cols = {"x": column(i - 1), "y": column(i), "z": column(i + 1)}
    corr = _corr_basis(m1, m2, (((-1, -1), (1, 1)),))
    names = [k for k, v in cols.items() if v is not None]
    col_mats = [cols[k] for k in names]
    sol = solve_span([c.flatten() for c in col_mats] + [c.flatten() for c in corr], target.flatten())
    if sol is None:
        return {"solvable": False}
    values = dict(zip(names, sol))
    qi = sig.q_node(i)
    z_expected = scalar(s) * (qi - qi**-1)
    # the span of every column but z, and of the corrections
    red = RowReducer()
    for c in [cols[k] for k in names if k != "z"] + corr:
        red.add(c.flatten())
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
