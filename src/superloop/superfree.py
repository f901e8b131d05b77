"""Free graded superalgebra on loop-current generator symbols.

Words in the generator symbols carry a Z2 parity, a weight in the root
lattice and a loop degree.  The module houses the defining-relation
catalog of the quantum loop superalgebra of sl(M,N), quantum brackets,
the phi-series expansion and the (2,2) oscillation replay.  The catalog
holds values only: ``relation_value`` writes each relation once and
evaluates it on free words or on a module's matrices.  No automatic
normal form is imposed: an algebra identity is decided by the replay's
guided reduction and exact certificates over degree-2 relations, or by
the action on a module.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .coeffs import ONE, ZERO, Scalar, q, qint_base, scalar, scalar_str
from .linalg import RowReducer

X_PLUS = "X+"
X_MINUS = "X-"
KAY = "K"
KAY_INV = "Kinv"
AITCH = "H"
E0_PLUS = "E0+"
E0_MINUS = "E0-"

_KINDS = (X_PLUS, X_MINUS, KAY, KAY_INV, AITCH, E0_PLUS, E0_MINUS)


@dataclass(frozen=True, order=True)
class GenSym:
    """A generator symbol: a kind, a node and a loop index.

    K/Kinv carry index 0; H carries a nonzero index; the affine Chevalley
    symbols E0+/E0- sit at node 0 with loop degree +1/-1.
    """

    kind: str
    node: int
    index: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in (KAY, KAY_INV) and self.index != 0:
            raise ValueError("K symbols carry loop index 0")
        if self.kind == AITCH and self.index == 0:
            raise ValueError("H symbols need a nonzero loop index")
        if self.kind in (E0_PLUS, E0_MINUS):
            want = 1 if self.kind == E0_PLUS else -1
            if self.node != 0 or self.index != want:
                raise ValueError("E0 symbols live at node 0 with loop index +-1")

    def __str__(self):
        if self.kind in (E0_PLUS, E0_MINUS):
            return self.kind
        if self.kind in (KAY, KAY_INV):
            return f"{self.kind}_{self.node}"
        return f"{self.kind}_{{{self.node},{self.index}}}"


def xp(i: int, n: int) -> GenSym:
    return GenSym(X_PLUS, i, n)


def xm(i: int, n: int) -> GenSym:
    return GenSym(X_MINUS, i, n)


def kay(i: int) -> GenSym:
    return GenSym(KAY, i, 0)


def kinv(i: int) -> GenSym:
    return GenSym(KAY_INV, i, 0)


def aitch(i: int, s: int) -> GenSym:
    return GenSym(AITCH, i, s)


def e0p() -> GenSym:
    return GenSym(E0_PLUS, 0, 1)


def e0m() -> GenSym:
    return GenSym(E0_MINUS, 0, -1)


Word = tuple  # tuple[GenSym, ...]


class Elem:
    """Finite scalar combination of words in generator symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                coeff = scalar(coeff)
                if coeff != ZERO:
                    clean[tuple(word)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "Elem":
        return cls()

    @classmethod
    def one(cls) -> "Elem":
        return cls({(): ONE})

    @classmethod
    def monomial(cls, word: Sequence[GenSym], coeff=ONE) -> "Elem":
        return cls({tuple(word): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def nterms(self) -> int:
        return len(self.terms)

    def words(self) -> list[Word]:
        return sorted(self.terms)

    def coeff(self, word: Sequence[GenSym]) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def __eq__(self, other) -> bool:
        return isinstance(other, Elem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Elem") -> "Elem":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, ZERO) + coeff
        return Elem(terms)

    def __sub__(self, other: "Elem") -> "Elem":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, ZERO) - coeff
        return Elem(terms)

    def __neg__(self) -> "Elem":
        return Elem({w: -c for w, c in self.terms.items()})

    def scale(self, s) -> "Elem":
        s = scalar(s)
        if s == ZERO:
            return Elem.zero()
        return Elem({w: s * c for w, c in self.terms.items()})

    def __mul__(self, other: "Elem") -> "Elem":
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                terms[word] = terms.get(word, ZERO) + c1 * c2
        return Elem(terms)

    def map_symbols(self, fn: Callable[[GenSym], tuple[Scalar, GenSym]]) -> "Elem":
        """Apply a generator-wise substitution word by word (algebra map).

        Signs equal to ONE are not multiplied in, which saves one scalar
        product per factor.
        """
        terms: dict = {}
        for word, coeff in self.terms.items():
            syms = []
            for g in word:
                s, g2 = fn(g)
                if s != ONE:
                    coeff = s * coeff
                syms.append(g2)
            key = tuple(syms)
            terms[key] = terms[key] + coeff if key in terms else coeff
        return Elem(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for word in self.words():
            c = self.terms[word]
            wtxt = "*".join(str(g) for g in word) if word else "1"
            bits.append(f"({scalar_str(c)})*{wtxt}")
        return " + ".join(bits)


class NotHomogeneous(ValueError):
    """Raised when an operation needs weight/parity homogeneous input."""


#: The largest |s| of an h_{i,s} symbol a signature accepts.
H_BOUND = 8


@dataclass(frozen=True)
class AlgebraSignature:
    """The (M, N) datum: parities, the bilinear form and the node Cartan data."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 0 or self.M + self.N < 2:
            raise ValueError("need M >= 1, N >= 0, M + N >= 2")

    @property
    def n_nodes(self) -> int:
        return self.M + self.N - 1

    def l(self, i: int) -> int:
        """l_i = +1 for i <= M, -1 for i > M (1 <= i <= M+N)."""
        if not 1 <= i <= self.M + self.N:
            raise ValueError(f"epsilon index {i} out of range")
        return 1 if i <= self.M else -1

    def c(self, i: int, j: int) -> int:
        """Symmetrised Cartan entry (alpha_i, alpha_j)."""
        self._check_node(i)
        self._check_node(j)
        if i == j:
            return self.l(i) + self.l(i + 1)
        if abs(i - j) == 1:
            return -self.l(max(i, j))
        return 0

    def q_node(self, i: int) -> Scalar:
        return q ** self.l(i)

    def parity_node(self, i: int) -> int:
        self._check_node(i)
        return 1 if i == self.M else 0

    def _check_node(self, i: int):
        if not 1 <= i <= self.n_nodes:
            raise ValueError(f"node {i} out of range for ({self.M},{self.N})")

    # -- symbols -------------------------------------------------------

    def check_symbol(self, g: GenSym):
        if g.kind in (E0_PLUS, E0_MINUS):
            return
        self._check_node(g.node)
        if g.kind == AITCH and abs(g.index) > H_BOUND:
            raise ValueError(f"|H index| > bound {H_BOUND}")

    def weight_of(self, g: GenSym) -> tuple[int, ...]:
        self.check_symbol(g)
        n = self.n_nodes
        if g.kind == X_PLUS:
            return tuple(1 if k == g.node else 0 for k in range(1, n + 1))
        if g.kind == X_MINUS:
            return tuple(-1 if k == g.node else 0 for k in range(1, n + 1))
        if g.kind == E0_PLUS:
            return tuple([-1] * n)
        if g.kind == E0_MINUS:
            return tuple([1] * n)
        return tuple([0] * n)

    def parity_of(self, g: GenSym) -> int:
        self.check_symbol(g)
        if g.kind in (X_PLUS, X_MINUS):
            return self.parity_node(g.node)
        if g.kind in (E0_PLUS, E0_MINUS):
            return sum(self.parity_node(i) for i in range(1, self.n_nodes + 1)) % 2
        return 0

    def bilinear(self, w1: Sequence[int], w2: Sequence[int]) -> int:
        return sum(
            w1[i] * w2[j] * self.c(i + 1, j + 1)
            for i in range(self.n_nodes)
            for j in range(self.n_nodes)
            if w1[i] and w2[j]
        )

    def word_weight(self, word: Word) -> tuple[int, ...]:
        n = self.n_nodes
        tot = [0] * n
        for g in word:
            for k, v in enumerate(self.weight_of(g)):
                tot[k] += v
        return tuple(tot)

    def word_parity(self, word: Word) -> int:
        return sum(self.parity_of(g) for g in word) % 2

    def elem_weight(self, e: Elem) -> tuple[int, ...] | None:
        """Common weight of all words, or None for non-homogeneous input."""
        wt = None
        for word in e.terms:
            w = self.word_weight(word)
            if wt is None:
                wt = w
            elif wt != w:
                return None
        return wt

    def elem_parity(self, e: Elem) -> int | None:
        par = None
        for word in e.terms:
            p = self.word_parity(word)
            if par is None:
                par = p
            elif par != p:
                return None
        return par

    # -- affine Chevalley Cartan data ---------------------------------

    def affine_c(self, i: int, j: int) -> int:
        """Cartan entry with the affine node 0 adjoined."""
        if i == 0 and j == 0:
            return 0
        if i == 0:
            return -(1 if j == 1 else 0) + (1 if j == self.n_nodes else 0)
        if j == 0:
            return self.affine_c(j, i)
        return self.c(i, j)

    def q_affine(self, i: int) -> Scalar:
        return q if i == 0 else self.q_node(i)


# ---------------------------------------------------------------------------
# quantum brackets
# ---------------------------------------------------------------------------


def super_comm(x, px: int, y, py: int, twist=ONE):
    """[x, y]_twist = xy - (-1)^{px py} twist yx.

    ``x`` and ``y`` are free elements or matrices of parities ``px``, ``py``.
    """
    sgn = -ONE if (px and py) else ONE
    return x * y - (y * x).scale(sgn * scalar(twist))


def qbracket(sig: AlgebraSignature, x: Elem, y: Elem, u) -> Elem:
    """[x, y]_u for parity-homogeneous free elements x, y."""
    px = sig.elem_parity(x)
    py = sig.elem_parity(y)
    if px is None or py is None:
        raise NotHomogeneous("qbracket needs parity-homogeneous arguments")
    return super_comm(x, px, y, py, u)


def _weight_or_raise(sig: AlgebraSignature, e: Elem) -> tuple[int, ...]:
    wt = sig.elem_weight(e)
    if wt is None:
        raise NotHomogeneous("bracket arguments must be weight-homogeneous")
    return wt


def floor_bracket(sig: AlgebraSignature, items: Sequence[Elem]) -> Elem:
    """Nested bracket [u1, [u2, ...]] with twist q^{-(alpha,beta)}.

    Twist exponents are taken from the weights of the already-nested
    arguments; a single argument is returned unchanged.
    """
    if not items:
        raise ValueError("empty bracket")
    out = items[-1]
    for u in reversed(items[:-1]):
        alpha = _weight_or_raise(sig, u)
        beta = _weight_or_raise(sig, out)
        out = qbracket(sig, u, out, q ** (-sig.bilinear(alpha, beta)))
    return out


def ceil_bracket(sig: AlgebraSignature, items: Sequence[Elem]) -> Elem:
    """Nested bracket [[u1, u2], ...] with twist q^{+(alpha,beta)}."""
    if not items:
        raise ValueError("empty bracket")
    out = items[0]
    for u in items[1:]:
        alpha = _weight_or_raise(sig, out)
        beta = _weight_or_raise(sig, u)
        out = qbracket(sig, out, u, q ** (sig.bilinear(alpha, beta)))
    return out


# ---------------------------------------------------------------------------
# phi series
# ---------------------------------------------------------------------------


def _partitions(n: int):
    """Partitions of n as nonincreasing tuples."""
    if n == 0:
        yield ()
        return
    def rec(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in rec(rest - part, part):
                yield (part,) + tail
    yield from rec(n, n)


def phi_coeff(sig: AlgebraSignature, i: int, sign: int, n: int, word=Elem.monomial):
    """Coefficient of z^n in K_i^{+-1} exp(+-(q_i - q_i^-1) sum_s h_{i,+-s} z^{+-s}).

    ``sign`` is +1 for the plus series (n >= 0) and -1 for the minus
    series (n <= 0).  Each word in the K and h symbols is evaluated by
    ``word``, as in ``relation_value``.
    """
    sig._check_node(i)
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    if sign * n < 0:
        raise ValueError("wrong-sign index for phi series")
    qi = sig.q_node(i)
    u = scalar(sign) * (qi - qi**-1)
    head = kay(i) if sign > 0 else kinv(i)
    out = None
    for lam in _partitions(abs(n)):
        coeff = u ** len(lam)
        # commuting h's: the 1/k! of exp collapses to 1/prod multiplicity!
        denom = 1
        count: dict[int, int] = {}
        for part in lam:
            count[part] = count.get(part, 0) + 1
        for c in count.values():
            f = 1
            for k in range(2, c + 1):
                f *= k
            denom *= f
        term = word((head,) + tuple(aitch(i, sign * part) for part in lam))
        term = term.scale(coeff / scalar(denom))
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelRule:
    """A single defining-relation instance.

    ``family`` names the template, ``indices`` the node/loop instance and
    ``sign`` picks the +- branch where the template has one.
    """

    family: str
    indices: tuple
    sign: int = 1


def _x(sign: int, i: int, n: int) -> GenSym:
    return xp(i, n) if sign > 0 else xm(i, n)


def relation_value(sig: AlgebraSignature, rule: RelRule, word: Callable):
    """The value of a defining relation, which vanishes in the quotient.

    Each family is written once; every word in the generator symbols is
    evaluated by ``word``, whose values need ``+``, ``-``, ``*`` and
    ``scale``.  ``Elem.monomial`` gives the free element, a module's
    ``_word_matrix`` the action of the relation on the module.
    """
    fam, idx, sgn = rule.family, rule.indices, rule.sign

    def gen(g: GenSym) -> tuple:
        """A generator's value with its parity, the operand of ``br``."""
        return word((g,)), sig.parity_of(g)

    def br(x: tuple, y: tuple, twist) -> tuple:
        return super_comm(x[0], x[1], y[0], y[1], twist), (x[1] + y[1]) % 2

    def X(i: int, n: int) -> tuple:
        return gen(_x(sgn, i, n))

    def chev(i: int, sign: int = sgn) -> tuple:
        if i == 0:
            return gen(e0p() if sign > 0 else e0m())
        return gen(_x(sign, i, 0))

    def k0(power: int):
        """The affine K_0^{+-1}, where K_0 = (K_1 ... K_{M+N-1})^{-1}."""
        mk = kinv if power > 0 else kay
        return word(tuple(mk(k) for k in range(1, sig.n_nodes + 1)))

    if fam == "cartan":
        sub, *ix = idx
        if sub in ("inv", "vni"):
            (i,) = ix
            pair = (kay(i), kinv(i)) if sub == "inv" else (kinv(i), kay(i))
            return word(pair) - word(())
        if sub == "kk":
            i, j = ix
            g, h = kay(i), kay(j)
        elif sub == "kh":
            i, j, s = ix
            g, h = kay(i), aitch(j, s)
        elif sub == "hh":
            i, s, j, t = ix
            g, h = aitch(i, s), aitch(j, t)
        else:
            raise ValueError(f"unknown cartan subfamily {sub!r}")
        return word((g, h)) - word((h, g))
    if fam == "kx":
        i, j, n = idx
        x = _x(sgn, j, n)
        return word((kay(i), x)) - word((x, kay(i))).scale(q ** (sgn * sig.c(i, j)))
    if fam == "hx":
        i, s, j, n = idx
        if s == 0:
            raise ValueError("h index must be nonzero")
        x, h = _x(sgn, j, n), aitch(i, s)
        coeff = scalar(sgn) * qint_base(s * sig.l(i) * sig.c(i, j), sig.l(i)) / scalar(s)
        return word((h, x)) - word((x, h)) - word((_x(sgn, j, n + s),)).scale(coeff)
    if fam == "pm-mixed":
        i, m, j, n = idx
        rel = br(gen(xp(i, m)), gen(xm(j, n)), ONE)[0]
        if i == j:
            qi = sig.q_node(i)
            k = m + n
            for s in (1, -1):
                if s * k >= 0:
                    rel = rel - phi_coeff(sig, i, s, k, word).scale(scalar(s) / (qi - qi**-1))
        return rel
    if fam == "deg2-zero":
        i, m, j, n = idx
        if sig.c(i, j) != 0:
            raise ValueError("deg2-zero needs (alpha_i, alpha_j) = 0")
        a, b = _x(sgn, i, m), _x(sgn, j, n)
        koszul = -ONE if (sig.parity_node(i) and sig.parity_node(j)) else ONE
        return word((a, b)) - word((b, a)).scale(koszul)
    if fam == "deg2-shift":
        i, m, j, n = idx
        cij = sig.c(i, j)
        if cij == 0:
            raise ValueError("deg2-shift needs (alpha_i, alpha_j) != 0")
        a0, a1, b0, b1 = _x(sgn, i, m), _x(sgn, i, m + 1), _x(sgn, j, n), _x(sgn, j, n + 1)
        twisted = word((b0, a1)) + word((a0, b1))
        return word((a1, b0)) - twisted.scale(q ** (sgn * cij)) + word((b1, a0))
    if fam == "serre3":
        i, m, n, j, k = idx
        if abs(sig.c(i, j)) != 1 or i == sig.M:
            raise ValueError("serre3 needs (alpha_i,alpha_j) = +-1 and i != M")

        def half(m1, m2):
            return br(X(i, m1), br(X(i, m2), X(j, k), q**-1), q)[0]

        return half(m, n) + half(n, m)
    if fam == "oscillation4":
        m, n, k, u = idx
        if sig.M < 2 or sig.N < 2:
            raise ValueError("oscillation relation needs M, N > 1")
        M = sig.M

        def half(n1, n2):
            return br(br(br(X(M - 1, m), X(M, n1), q**-1), X(M + 1, k), q), X(M, n2), ONE)[0]

        return half(n, u) + half(u, n)
    if fam == "chev-kx":
        i, j = idx
        kword = k0(1) if i == 0 else word((kay(i),))
        return br((kword, 0), chev(j), q ** (sgn * sig.affine_c(i, j)))[0]
    if fam == "chev-mixed":
        i, j = idx
        rel = br(chev(i, +1), chev(j, -1), ONE)[0]
        if i == j:
            qi = sig.q_affine(i)
            if i == 0:
                kk = k0(1) - k0(-1)
            else:
                kk = word((kay(i),)) - word((kinv(i),))
            rel = rel - kk.scale(ONE / (qi - qi**-1))
        return rel
    if fam == "chev-zero":
        i, j = idx
        if sig.affine_c(i, j) != 0:
            raise ValueError("chev-zero needs a vanishing Cartan pairing")
        return br(chev(i), chev(j), ONE)[0]
    if fam == "chev-serre3":
        i, j = idx
        if abs(sig.affine_c(i, j)) != 1 or i in (0, sig.M):
            raise ValueError("chev-serre3 needs pairing +-1 and i not in {0, M}")
        return br(chev(i), br(chev(i), chev(j), q**-1), q)[0]
    if fam == "chev-deg4":
        variant = idx[0]
        if sig.M + sig.N <= 3:
            raise ValueError("degree-4 Chevalley relations need M+N > 3")
        if variant == 0:
            # the odd node M with its affine-cycle neighbours
            cyc = lambda k: k % (sig.M + sig.N)
            seq = (cyc(sig.M - 1), sig.M, cyc(sig.M + 1), sig.M)
        else:
            seq = (1, 0, sig.n_nodes, 0)
        g = [chev(s) for s in seq]
        return br(br(br(g[0], g[1], q**-1), g[2], q), g[3], ONE)[0]
    if fam == "chev-deg5":
        if (sig.M, sig.N) != (2, 1):
            raise ValueError("the degree-5 relation is specific to (2,1)")
        e0, e1, e2 = chev(0), chev(1), chev(2)

        def side(first, second):
            w = br(second, e1, q)
            w = br(first, w, ONE)
            w = br(second, w, ONE)
            return br(first, w, q**-1)[0]

        return side(e0, e2) - side(e2, e0)
    raise ValueError(f"unknown relation family {rule.family!r}")


def relation_elem(sig: AlgebraSignature, rule: RelRule) -> Elem:
    """The element of the free superalgebra that vanishes in the quotient.

    The replay's single entry to the catalog, which the benchmark's tracer
    times under this name.
    """
    return relation_value(sig, rule, Elem.monomial)


def relation_instances(
    sig: AlgebraSignature,
    window: Iterable[int],
    families: Iterable[str] | None = None,
) -> list[RelRule]:
    """Deterministic enumeration of relation instances over a loop window."""
    window = sorted(window)
    h_window = [s for s in window if s != 0]
    wanted = set(families) if families is not None else None
    nodes = range(1, sig.n_nodes + 1)
    out: list[RelRule] = []

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    if want("cartan"):
        for i in nodes:
            out.append(RelRule("cartan", ("inv", i)))
            out.append(RelRule("cartan", ("vni", i)))
        for i in nodes:
            for j in nodes:
                if i < j:
                    out.append(RelRule("cartan", ("kk", i, j)))
                for s in h_window:
                    out.append(RelRule("cartan", ("kh", i, j, s)))
                    for t in h_window:
                        if (i, s) < (j, t):
                            out.append(RelRule("cartan", ("hh", i, s, j, t)))
    if want("kx"):
        for i in nodes:
            for j in nodes:
                for n in window:
                    for sgn in (1, -1):
                        out.append(RelRule("kx", (i, j, n), sgn))
    if want("hx"):
        for i in nodes:
            for s in h_window:
                for j in nodes:
                    for n in window:
                        for sgn in (1, -1):
                            out.append(RelRule("hx", (i, s, j, n), sgn))
    if want("pm-mixed"):
        for i in nodes:
            for j in nodes:
                for m in window:
                    for n in window:
                        out.append(RelRule("pm-mixed", (i, m, j, n)))
    if want("deg2-zero"):
        for i in nodes:
            for j in nodes:
                if sig.c(i, j) == 0:
                    for m in window:
                        for n in window:
                            for sgn in (1, -1):
                                out.append(RelRule("deg2-zero", (i, m, j, n), sgn))
    if want("deg2-shift"):
        for i in nodes:
            for j in nodes:
                if sig.c(i, j) != 0:
                    for m in window:
                        for n in window:
                            for sgn in (1, -1):
                                out.append(RelRule("deg2-shift", (i, m, j, n), sgn))
    if want("serre3"):
        for i in nodes:
            for j in nodes:
                if abs(sig.c(i, j)) == 1 and i != sig.M:
                    for m in window:
                        for n in window:
                            if m > n:
                                continue  # symmetric in (m, n)
                            for k in window:
                                for sgn in (1, -1):
                                    out.append(RelRule("serre3", (i, m, n, j, k), sgn))
    if want("oscillation4") and sig.M > 1 and sig.N > 1:
        for m in window:
            for n in window:
                for k in window:
                    for u in window:
                        if n > u:
                            continue  # symmetric in (n, u)
                        for sgn in (1, -1):
                            out.append(RelRule("oscillation4", (m, n, k, u), sgn))
    return out


def chevalley_instances(sig: AlgebraSignature) -> list[RelRule]:
    """Relation instances of the affine Chevalley presentation (M != N)."""
    if sig.M == sig.N:
        raise ValueError("the Chevalley presentation needs M != N")
    nodes = range(0, sig.n_nodes + 1)
    out: list[RelRule] = []
    for i in nodes:
        for j in nodes:
            for sgn in (1, -1):
                out.append(RelRule("chev-kx", (i, j), sgn))
            out.append(RelRule("chev-mixed", (i, j)))
            if sig.affine_c(i, j) == 0 and i <= j:
                for sgn in (1, -1):
                    out.append(RelRule("chev-zero", (i, j), sgn))
            if abs(sig.affine_c(i, j)) == 1 and i not in (0, sig.M):
                for sgn in (1, -1):
                    out.append(RelRule("chev-serre3", (i, j), sgn))
    if sig.M + sig.N > 3:
        for variant in (0, 1):
            for sgn in (1, -1):
                out.append(RelRule("chev-deg4", (variant,), sgn))
    if (sig.M, sig.N) == (2, 1):
        for sgn in (1, -1):
            out.append(RelRule("chev-deg5", (), sgn))
    return out


# ---------------------------------------------------------------------------
# pushing phi series past positive words
# ---------------------------------------------------------------------------


def phi_push_past(sig: AlgebraSignature, i: int, e: Elem, order: int) -> list[Elem]:
    """Rewrite phi_i^+(z) * e as (sum of words) * phi_i^+(z), truncated.

    ``e`` must be a sum of X^+ words.  The result is the list of word
    coefficients of z^0..z^order; conjugating one factor X^+_{j,b}
    contributes the shift series q^{c_ij} (1 - q^{-c_ij} u)/(1 - q^{c_ij} u)
    with u acting as z * (loop-index shift by one).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    sig._check_node(i)
    out = [Elem.zero() for _ in range(order + 1)]
    for word, coeff in e.terms.items():
        if any(g.kind != X_PLUS for g in word):
            raise ValueError("phi_push_past expects a sum of X^+ words")
        # layers[d] = elem of z-degree d accumulated so far
        layers = [Elem.monomial((), coeff)] + [Elem.zero()] * order
        for g in word:
            cij = sig.c(i, g.node)
            shifts = [ONE]
            for s in range(1, order + 1):
                shifts.append(q ** (cij * s) - q ** (cij * s - 2 * cij))
            new_layers = [Elem.zero() for _ in range(order + 1)]
            for d, layer in enumerate(layers):
                if layer.is_zero():
                    continue
                for s in range(0, order + 1 - d):
                    if shifts[s] == ZERO:
                        continue
                    shifted = Elem.monomial((xp(g.node, g.index + s),), shifts[s])
                    new_layers[d + s] += layer * shifted
            layers = [lay.scale(q**cij) for lay in new_layers]
        for d in range(order + 1):
            out[d] += layers[d]
    return out


# ---------------------------------------------------------------------------
# the (2,2) oscillation words and the guided recursion replay
# ---------------------------------------------------------------------------

SIG22 = AlgebraSignature(2, 2)


def _a_coeff(s: int) -> Scalar:
    """a_s = q^-s - q^{-s+2}; a_0 = 1 - q^2."""
    return q**-s - q ** (-s + 2)


def _b_coeff(s: int) -> Scalar:
    """b_s = q^s - q^{s-2}."""
    return q**s - q ** (s - 2)


def lambda_elem(n: int, b: int, c: int) -> Elem:
    """Coefficient of z^n after commuting K_1 h_1(z) through R(.,b,c,b)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = Elem.monomial

    def series(base: int, node: int, upto: int) -> list[Elem]:
        # X_{node,base} + sum_{s>=1} a_s X_{node,base+s} z^s, truncated
        out = [Elem.monomial((xp(node, base),))]
        for s in range(1, upto + 1):
            out.append(Elem.monomial((xp(node, base + s),), _a_coeff(s)))
        return out

    x3 = m((xp(3, c),))
    x2 = m((xp(2, b),))
    ser = series(b, 2, n)

    def pick(parts: list, k: int) -> Elem:
        return parts[k] if 0 <= k < len(parts) else Elem.zero()

    out = Elem.zero()
    # q^-2 (S)(X3)(S)
    for s in range(0, n + 1):
        out += pick(ser, s).scale(q**-2) * x3 * pick(ser, n - s)
    # q^-1 X3 X2 (S) + q^-1 X2 (S) X3
    out += (x3 * x2 * pick(ser, n)).scale(q**-1)
    out += (x2 * pick(ser, n) * x3).scale(q**-1)
    # X2 X3 X2 at z^0 only
    if n == 0:
        out += x2 * x3 * x2
    # -(q+q^-1) q^-1 X2 X3 (S)
    out -= (x2 * x3 * pick(ser, n)).scale((q + q**-1) * q**-1)
    return out


def mu_elem(a: int, c: int, n: int, d: int) -> Elem:
    """Coefficient of z^n w^d of the double series for the node-2 case."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = Elem.monomial
    x1 = lambda k: m((xp(1, k),))
    x3 = lambda k: m((xp(3, k),))
    x2 = m((xp(2, d),))
    if n == 0:
        comm = x1(a) * x3(c) - x3(c) * x1(a)
        return (comm * x2 - x2 * comm).scale(q**-1)
    an, bn = _a_coeff(n), _b_coeff(n)
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
        ab = _a_coeff(s) * _b_coeff(t)
        out += (x1(a + s) * x3(c + t) * x2).scale((q + q**-1) * ab)
        out -= (x1(a + s) * x2 * x3(c + t)).scale(ab)
        out -= (x3(c + t) * x2 * x1(a + s)).scale(ab)
    out += (x1(a) * x3(c + n) * x2).scale((q + q**-1) * bn)
    out += (x1(a + n) * x3(c) * x2).scale((q + q**-1) * an)
    return out


def _normalize_commuting(e: Elem) -> Elem:
    """Sort adjacent X^+ factors that commute up to sign by (node, index).

    Factors of nodes i, j with (alpha_i, alpha_j) = 0 at (2,2) swap by the
    deg2-zero relation, with sign -1 when both are odd; an odd factor
    squares to zero.
    """
    changed = True
    while changed:
        changed = False
        terms: dict = {}
        for word, coeff in e.terms.items():
            for pos in range(len(word) - 1):
                g1, g2 = word[pos], word[pos + 1]
                if g1.kind != X_PLUS or g2.kind != X_PLUS or SIG22.c(g1.node, g2.node):
                    continue
                odd = SIG22.parity_node(g1.node) and SIG22.parity_node(g2.node)
                if odd and g1 == g2:
                    coeff = ZERO
                    break
                if (g1.node, g1.index) > (g2.node, g2.index):
                    word = word[:pos] + (g2, g1) + word[pos + 2:]
                    coeff = -coeff if odd else coeff
                    changed = True
                    break
            if coeff != ZERO:
                terms[word] = terms.get(word, ZERO) + coeff
        e = Elem(terms)
    return e


# the pass budget of a guided reduction
_MAX_PASSES = 400


def _guided_reduce(e: Elem, match, rewrite, normalize) -> Elem:
    """Repeatedly rewrite the leftmost matched adjacent pair in every word."""
    e = normalize(e)
    for _ in range(_MAX_PASSES):
        hit = False
        out = Elem.zero()
        for word, coeff in e.terms.items():
            pos = next((p for p in range(len(word) - 1) if match(word[p], word[p + 1])), None)
            if pos is None:
                out += Elem.monomial(word, coeff)
                continue
            hit = True
            repl = rewrite(word[pos], word[pos + 1])
            out += Elem.monomial(word[:pos], coeff) * repl * Elem.monomial(word[pos + 2:])
        e = normalize(out)
        if not hit:
            return e
    raise RuntimeError("guided reduction did not terminate within the pass budget")


def reduce_lambda_step(e: Elem, c_low: int) -> Elem:
    """Push every X^+_{2,*} factor past X^+_{3,c_low}, then sort commuting factors."""

    def match(g1: GenSym, g2: GenSym) -> bool:
        return (
            g1.kind == X_PLUS == g2.kind
            and g1.node == 2
            and g2.node == 3
            and g2.index == c_low
        )

    def rewrite(g1: GenSym, g2: GenSym) -> Elem:
        # g1 g2 = X_{2,b} X_{3,c} enters the deg2-shift value (2, b - 1, 3, c)
        # with coefficient 1
        rel = relation_elem(SIG22, RelRule("deg2-shift", (2, g1.index - 1, 3, g2.index)))
        return Elem.monomial((g1, g2)) - rel

    return _guided_reduce(e, match, rewrite, _normalize_commuting)


# The ordered node pairs (i, j) of the certificate's relations (i, m, j, n).
_MU_PAIRS = ((2, 3), (3, 2), (1, 2), (2, 1), (1, 3), (3, 1))


def _loop_degree(word: Word) -> int:
    return sum(g.index for g in word)


def mu_recursion_certificate(diff: Elem) -> bool:
    """Decompose a mu-recursion difference over the listed degree-2 relations.

    The node-2 derivation applies its degree-2 substitutions in grouped
    combinations; the order-free equivalent is an exact certificate
    diff = sum of monomial multiples of deg2-shift / deg2-zero instances
    between the nodes 1, 2, 3, so membership is decided by exact linear
    algebra over the free algebra.

    Every candidate is homogeneous in loop degree, the sum of a word's
    indices: each word of deg2-shift (i, m, j, n) has degree m + n + 1,
    each of deg2-zero (i, m, j, n) degree m + n, and the extra factor
    X^+_{k,t} adds t.  The span of the candidates is the direct sum of
    its graded parts, and diff lies in it exactly when each graded part
    of diff lies in the span of the candidates of that degree, so only
    candidates of the degrees of diff's words are built.
    """
    if diff.is_zero():
        return True
    indices: dict[int, set[int]] = {1: set(), 2: set(), 3: set()}
    degrees = set()
    for word in diff.terms:
        if len(word) != 3 or sorted(g.node for g in word) != [1, 2, 3]:
            raise ValueError("mu words must contain one factor per node 1, 2, 3")
        for g in word:
            indices[g.node].add(g.index)
        degrees.add(_loop_degree(word))
    boxes = {
        node: range(min(vals) - 1, max(vals) + 2) for node, vals in indices.items()
    }
    red = RowReducer()
    for i, j in _MU_PAIRS:
        fam = "deg2-zero" if SIG22.c(i, j) == 0 else "deg2-shift"
        other = ({1, 2, 3} - {i, j}).pop()
        for m in boxes[i]:
            for n in boxes[j]:
                rel = relation_elem(SIG22, RelRule(fam, (i, m, j, n), 1))
                deg = _loop_degree(next(iter(rel.terms)))
                for t in boxes[other]:
                    if deg + t not in degrees:
                        continue
                    g = Elem.monomial((xp(other, t),))
                    red.add(dict((g * rel).terms))
                    red.add(dict((rel * g).terms))
    return red.contains(dict(diff.terms))


def appendixA_check(n_max: int, window: Iterable[int]) -> dict:
    """Replay the oscillation-relation recursions at signature (2,2).

    Verifies the base cases lambda(0,b,c) = 0 and mu(a,c,0,d) = 0 (after
    the immediate degree-2 symmetric normalisations) and the guided
    recursions lambda(n,b,c) = lambda(n-1,b,c+1), mu(a,c,n,d) =
    mu(a,c,n-1,d+1) for 1 <= n <= n_max, all indices drawn from
    ``window``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    window = sorted(window)
    checks = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "status": "pass" if ok else "fail", "detail": detail})

    # the second term of each recursion difference is the first term of a
    # neighbouring one, so build each element once per call
    lam, mu = functools.cache(lambda_elem), functools.cache(mu_elem)

    for bb, cc in itertools.product(window, repeat=2):
        base = _normalize_commuting(lam(0, bb, cc))
        record(f"lambda(0,{bb},{cc}) = 0", base.is_zero())
        for n in range(1, n_max + 1):
            diff = lam(n, bb, cc) - lam(n - 1, bb, cc + 1)
            red = reduce_lambda_step(diff, cc)
            record(
                f"lambda({n},{bb},{cc}) = lambda({n-1},{bb},{cc+1})",
                red.is_zero(),
                "" if red.is_zero() else f"{red.nterms()} residual words",
            )
    # The mu recursion is equivariant under translating the base indices,
    # so one certificate per n at (0,0,*,0) extends to the whole window by
    # an exact translation comparison.
    base_ok: dict[int, bool] = {}
    base_diff: dict[int, Elem] = {}
    for n in range(1, n_max + 1):
        diff = mu(0, 0, n, 0) - mu(0, 0, n - 1, 1)
        base_diff[n] = diff
        base_ok[n] = mu_recursion_certificate(diff)

    def translate(e: Elem, offs: dict[int, int]) -> Elem:
        return e.map_symbols(lambda g: (ONE, xp(g.node, g.index + offs[g.node])))

    for aa, cc, dd in itertools.product(window, repeat=3):
        base = _normalize_commuting(mu(aa, cc, 0, dd))
        record(f"mu({aa},{cc},0,{dd}) = 0", base.is_zero())
        offs = {1: aa, 2: dd, 3: cc}
        for n in range(1, n_max + 1):
            diff = mu(aa, cc, n, dd) - mu(aa, cc, n - 1, dd + 1)
            ok = base_ok[n] and diff == translate(base_diff[n], offs)
            record(
                f"mu({aa},{cc},{n},{dd}) = mu({aa},{cc},{n-1},{dd+1})",
                ok,
                "" if ok else "no degree-2 certificate found",
            )
    return {
        "n_max": n_max,
        "window": list(window),
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }
