"""Free graded superalgebra on loop-current generator symbols.

A word is a tuple of ``GenSym`` symbols, which are validated named
tuples, so the keys of ``Elem`` terms and of ``RowReducer`` vectors
hash, compare and order in C.  The module houses the defining-relation
catalog of the quantum loop superalgebra of sl(M,N), the twisted super
commutator ``super_comm``, the phi-series expansion and the (2,2)
oscillation replay.  ``super_comm`` is the only bracket: every caller
states the parities and the twist of each bracket it builds.  The
catalog holds values only: ``relation_value`` writes each relation once
and evaluates it on free words or on a module's matrices;
``_admissible`` states each family's domain once, for the evaluator and
the enumerators.  No automatic normal form is imposed: an algebra
identity is decided by the replay's exact certificates over degree-2
relations and its normal form modulo deg2-zero, or by the action on a
module.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import permutations, product
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .coeffs import ONE, ZERO, Scalar, q, qint_base, scalar, scalar_str
from .linalg import span_contains

X_PLUS = "X+"
X_MINUS = "X-"
KAY = "K"
KAY_INV = "Kinv"
AITCH = "H"
E0_PLUS = "E0+"
E0_MINUS = "E0-"

_KINDS = (X_PLUS, X_MINUS, KAY, KAY_INV, AITCH, E0_PLUS, E0_MINUS)


class GenSym(namedtuple("GenSym", "kind node index")):
    """A generator symbol: a kind, a node and a loop index.

    K/Kinv carry index 0; H carries a nonzero index; the affine Chevalley
    symbols E0+/E0- sit at node 0 with loop degree +1/-1.  A symbol is a
    tuple, so words hash, compare and order in C.
    """

    __slots__ = ()

    def __new__(cls, kind: str, node: int, index: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind in (KAY, KAY_INV) and index != 0:
            raise ValueError("K symbols carry loop index 0")
        if kind == AITCH and index == 0:
            raise ValueError("H symbols need a nonzero loop index")
        if kind in (E0_PLUS, E0_MINUS):
            want = 1 if kind == E0_PLUS else -1
            if node != 0 or index != want:
                raise ValueError("E0 symbols live at node 0 with loop index +-1")
        return tuple.__new__(cls, (kind, node, index))

    # namedtuple's _make (and _replace, which calls it) would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

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


def _word(word: Sequence[GenSym]) -> Word:
    if isinstance(word, GenSym):
        raise TypeError("a word is a sequence of GenSym, not a bare GenSym")
    return tuple(word)


class Elem:
    """Finite scalar combination of words in generator symbols."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for word, coeff in terms.items():
                coeff = scalar(coeff)
                if coeff != ZERO:
                    clean[_word(word)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "Elem":
        return cls()

    @classmethod
    def one(cls) -> "Elem":
        return cls({(): ONE})

    @classmethod
    def monomial(cls, word: Sequence[GenSym], coeff=ONE) -> "Elem":
        return cls({_word(word): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def words(self) -> list[Word]:
        return sorted(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Elem) and self.terms == other.terms

    def __add__(self, other: "Elem") -> "Elem":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, ZERO) + coeff
        return _elem(terms)

    def __sub__(self, other: "Elem") -> "Elem":
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, ZERO) - coeff
        return _elem(terms)

    def __neg__(self) -> "Elem":
        return _elem({w: -c for w, c in self.terms.items()})

    def scale(self, s) -> "Elem":
        s = scalar(s)
        if s == ZERO:
            return Elem.zero()
        return _elem({w: s * c for w, c in self.terms.items()})

    def __mul__(self, other: "Elem") -> "Elem":
        terms: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = w1 + w2
                terms[word] = terms.get(word, ZERO) + c1 * c2
        return _elem(terms)

    def map_symbols(self, fn: Callable[[GenSym], GenSym]) -> "Elem":
        """Apply a generator-wise substitution word by word (algebra map)."""
        terms: dict = {}
        for word, coeff in self.terms.items():
            key = tuple(map(fn, word))
            terms[key] = terms[key] + coeff if key in terms else coeff
        return _elem(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for word in self.words():
            c = self.terms[word]
            wtxt = "*".join(str(g) for g in word) if word else "1"
            bits.append(f"({scalar_str(c)})*{wtxt}")
        return " + ".join(bits)


def _elem(terms: dict) -> Elem:
    """The ``Elem`` of ``terms``, whose words are tuples and coefficients
    ``Scalar``s already; only zero coefficients are dropped."""
    e = Elem.__new__(Elem)
    e.terms = {w: c for w, c in terms.items() if c}
    return e


#: The largest |s| of an h_{i,s} symbol a relation suite reads: pm-mixed
#: reaches twice the loop window, so verify-relations caps its window there.
H_BOUND = 8


@dataclass(frozen=True)
class AlgebraSignature:
    """The (M, N) datum: parities and the Cartan data of the nodes and the affine node."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 0 or self.M + self.N < 2:
            raise ValueError("need M >= 1, N >= 0, M + N >= 2")
        # the Cartan entries and node parities, built once: c and
        # parity_node read them, and a miss is a node off the signature
        def entry(i: int, j: int) -> int:
            if i == j:
                return self.l(i) + self.l(i + 1)
            if abs(i - j) == 1:
                return -self.l(max(i, j))
            return 0

        nodes = range(1, self.n_nodes + 1)
        object.__setattr__(self, "_cartan", {ij: entry(*ij) for ij in product(nodes, nodes)})
        object.__setattr__(self, "_parity", {i: int(i == self.M) for i in nodes})

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
        try:
            return self._cartan[i, j]
        except KeyError:
            self._check_node(i)
            self._check_node(j)
            raise

    def q_node(self, i: int) -> Scalar:
        return q ** self.l(i)

    def parity_node(self, i: int) -> int:
        try:
            return self._parity[i]
        except KeyError:
            self._check_node(i)
            raise

    def _check_node(self, i: int):
        if not 1 <= i <= self.n_nodes:
            raise ValueError(f"node {i} out of range for ({self.M},{self.N})")

    # -- symbols -------------------------------------------------------

    def parity_of(self, g: GenSym) -> int:
        """The parity of a symbol whose node lies on the signature (node 0 for E0+-)."""
        if g.kind in (E0_PLUS, E0_MINUS):
            return sum(self._parity.values()) % 2
        odd = self.parity_node(g.node)
        return odd if g.kind in (X_PLUS, X_MINUS) else 0

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


# ---------------------------------------------------------------------------
# phi series
# ---------------------------------------------------------------------------


def _partitions(n: int):
    """Partitions of n as nonincreasing tuples."""
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
        denom = math.prod(map(math.factorial, Counter(lam).values()))
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


# Where each family's indices name a node: (low, a, b) means that
# indices[a] and indices[b] lie in low..n_nodes, low = 0 for the affine
# Chevalley families.
_NODE_SLOTS = {
    "kx": (1, 0, 1),
    "hx": (1, 0, 2),
    "pm-mixed": (1, 0, 2),
    "deg2-zero": (1, 0, 2),
    "deg2-shift": (1, 0, 2),
    "serre3": (1, 0, 3),
    "chev-kx": (0, 0, 1),
    "chev-mixed": (0, 0, 1),
    "chev-zero": (0, 0, 1),
    "chev-serre3": (0, 0, 1),
}


def _h_loop(s: int) -> bool:
    """Whether h_{i,s} is a symbol a relation may read: 0 < |s| <= H_BOUND."""
    return 0 < abs(s) <= H_BOUND


# the number of indices after each cartan subfamily's name
_CARTAN_ARITY = {"inv": 1, "vni": 1, "kk": 2, "kh": 3, "hh": 4}
# the number of indices of every other family
_ARITY = {
    "kx": 3, "hx": 4, "pm-mixed": 4, "deg2-zero": 4, "deg2-shift": 4, "serre3": 5,
    "oscillation4": 4, "chev-kx": 2, "chev-mixed": 2, "chev-zero": 2, "chev-serre3": 2,
    "chev-deg4": 1, "chev-deg5": 0,
}


def _admissible(sig: AlgebraSignature, family: str, indices: tuple) -> bool:
    """Whether ``indices`` name an instance of ``family`` on ``sig``.

    The one statement of each family's domain: the enumerators keep the
    instances it accepts and ``relation_value`` refuses the rest.  Every
    node lies on the signature and every h symbol passes ``_h_loop``.
    """
    if family == "cartan":
        # the subfamily, then its nodes and h loop indices: (i, r, j, s) for hh
        if not indices or len(indices) - 1 != _CARTAN_ARITY.get(indices[0]):
            return False
        ix = indices[1:]
        nodes, h_loops = (ix[0::2], ix[1::2]) if indices[0] == "hh" else (ix[:2], ix[2:])
        return all(1 <= i <= sig.n_nodes for i in nodes) and all(map(_h_loop, h_loops))
    if len(indices) != _ARITY.get(family, len(indices)):  # an unknown family is refused by its value
        return False
    if family in _NODE_SLOTS:
        low, a, b = _NODE_SLOTS[family]
        top = sig.n_nodes
        if not (low <= indices[a] <= top and low <= indices[b] <= top):
            return False
    if family == "hx":
        return _h_loop(indices[1])
    if family == "pm-mixed":  # the diagonal phi coefficient reads h up to |m + n|
        i, m, j, n = indices
        return i != j or abs(m + n) <= H_BOUND
    if family == "deg2-zero":
        return sig.c(indices[0], indices[2]) == 0
    if family == "deg2-shift":
        return sig.c(indices[0], indices[2]) != 0
    if family == "serre3":
        i, _, _, j, _ = indices
        return abs(sig.c(i, j)) == 1 and i != sig.M
    if family == "oscillation4":
        return sig.M > 1 and sig.N > 1
    if family == "chev-zero":
        return sig.affine_c(*indices) == 0
    if family == "chev-serre3":
        i, j = indices
        return abs(sig.affine_c(i, j)) == 1 and i not in (0, sig.M)
    if family == "chev-deg4":  # (0,) at the odd node M, (1,) at node 1
        return sig.M + sig.N > 3 and indices[0] in (0, 1)
    if family == "chev-deg5":
        return (sig.M, sig.N) == (2, 1)
    return True


def _signs(family: str) -> tuple[int, ...]:
    """The signs a family is listed with: both where it has a +- branch."""
    return (1,) if family in ("cartan", "pm-mixed", "chev-mixed") else (1, -1)


def relation_value(
    sig: AlgebraSignature, rule: RelRule, word: Callable, memo: Callable | None = None
):
    """The value of a defining relation, which vanishes in the quotient.

    Each family is written once; every word in the generator symbols is
    evaluated by ``word``, whose values need ``+``, ``-``, ``*`` and
    ``scale``.  A monomial ``Elem`` gives the free element, a module's
    ``_word_matrix`` the action of the relation on the module.

    ``memo(key, build)``, when given, returns ``build()`` kept under ``key``
    as long as ``word`` evaluates the same way (``LoopModule.memo``, one per
    module), shared by every instance.  It keys each bracket by its
    operands' symbolic keys and its twist: an operand's key is its
    ``GenSym``, ``"K0"`` for the affine K_0, or the (key, key, twist) triple
    of a bracket.  The phi coefficient of ``pm-mixed`` is kept under
    ("phi", i, sign, n): the exp series evaluated by ``word``, never a
    current derived on the module.

    A relation holds exactly when a nonzero multiple of its value vanishes:
    diagonal ``pm-mixed`` and ``chev-mixed`` are stated times q_i - q_i^-1
    and ``hx`` times s, so the value takes no division out of the ring.
    """
    fam, idx, sgn = rule.family, rule.indices, rule.sign
    if not _admissible(sig, fam, idx):
        raise ValueError(f"{fam} {idx} is not a relation instance on ({sig.M},{sig.N})")

    recall = memo or (lambda key, build: build())

    def gen(g: GenSym) -> tuple:
        """A generator's value, parity and key: the operand of ``br``."""
        return word((g,)), sig.parity_of(g), g

    def br(x: tuple, y: tuple, twist) -> tuple:
        key = (x[2], y[2], twist)
        return recall(
            key, lambda: (super_comm(x[0], x[1], y[0], y[1], twist), (x[1] + y[1]) % 2, key)
        )

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
        else:
            i, s, j, t = ix
            g, h = aitch(i, s), aitch(j, t)
        return word((g, h)) - word((h, g))
    if fam == "kx":
        i, j, n = idx
        x = _x(sgn, j, n)
        return word((kay(i), x)) - word((x, kay(i))).scale(q ** (sgn * sig.c(i, j)))
    if fam == "hx":
        i, s, j, n = idx
        x, h = _x(sgn, j, n), aitch(i, s)
        coeff = sgn * qint_base(s * sig.l(i) * sig.c(i, j), sig.l(i))
        return (word((h, x)) - word((x, h))).scale(s) - word((_x(sgn, j, n + s),)).scale(coeff)
    if fam == "pm-mixed":
        i, m, j, n = idx
        rel = br(gen(xp(i, m)), gen(xm(j, n)), ONE)[0]
        if i == j:
            qi = sig.q_node(i)
            rel = rel.scale(qi - qi**-1)
            for s in (1, -1):
                if s * (m + n) >= 0:
                    phi = recall(("phi", i, s, m + n), lambda: phi_coeff(sig, i, s, m + n, word))
                    rel = rel - phi.scale(s)
        return rel
    if fam == "deg2-zero":
        i, m, j, n = idx
        a, b = _x(sgn, i, m), _x(sgn, j, n)
        koszul = -ONE if (sig.parity_node(i) and sig.parity_node(j)) else ONE
        return word((a, b)) - word((b, a)).scale(koszul)
    if fam == "deg2-shift":
        i, m, j, n = idx
        a0, a1, b0, b1 = _x(sgn, i, m), _x(sgn, i, m + 1), _x(sgn, j, n), _x(sgn, j, n + 1)
        twisted = word((b0, a1)) + word((a0, b1))
        return word((a1, b0)) - twisted.scale(q ** (sgn * sig.c(i, j))) + word((b1, a0))
    if fam == "serre3":
        i, m, n, j, k = idx

        def half(m1, m2):
            return br(X(i, m1), br(X(i, m2), X(j, k), q**-1), q)[0]

        return half(m, n) + half(n, m)
    if fam == "oscillation4":
        m, n, k, u = idx
        M = sig.M

        def half(n1, n2):
            return br(br(br(X(M - 1, m), X(M, n1), q**-1), X(M + 1, k), q), X(M, n2), ONE)[0]

        return half(n, u) + half(u, n)
    if fam == "chev-kx":
        i, j = idx
        k = (k0(1), 0, "K0") if i == 0 else gen(kay(i))
        return br(k, chev(j), q ** (sgn * sig.affine_c(i, j)))[0]
    if fam == "chev-mixed":
        i, j = idx
        rel = br(chev(i, +1), chev(j, -1), ONE)[0]
        if i == j:
            qi = sig.q_affine(i)
            kk = k0(1) - k0(-1) if i == 0 else word((kay(i),)) - word((kinv(i),))
            rel = rel.scale(qi - qi**-1) - kk
        return rel
    if fam == "chev-zero":
        i, j = idx
        return br(chev(i), chev(j), ONE)[0]
    if fam == "chev-serre3":
        i, j = idx
        return br(chev(i), br(chev(i), chev(j), q**-1), q)[0]
    if fam == "chev-deg4":
        if idx[0] == 0:
            # the odd node M with its affine-cycle neighbours
            cyc = lambda k: k % (sig.M + sig.N)
            seq = (cyc(sig.M - 1), sig.M, cyc(sig.M + 1), sig.M)
        else:
            seq = (1, 0, sig.n_nodes, 0)
        g = [chev(s) for s in seq]
        return br(br(br(g[0], g[1], q**-1), g[2], q), g[3], ONE)[0]
    if fam == "chev-deg5":
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

    The replay reaches the catalog only through it (by
    ``_relation_terms``), and the benchmark's tracer times it under this
    name.
    """
    return relation_value(sig, rule, lambda word: _elem({word: ONE}))


def relation_instances(
    sig: AlgebraSignature,
    window: Iterable[int],
    families: Iterable[str] | None = None,
) -> list[RelRule]:
    """Deterministic enumeration of relation instances over a loop window.

    Each family runs over its index space and keeps what ``_admissible``
    accepts; where a relation is symmetric in two indices, one order is
    listed.
    """
    window = sorted(window)
    nodes = range(1, sig.n_nodes + 1)

    def cartan():
        yield from ((sub, i) for i in nodes for sub in ("inv", "vni"))
        for i, j in product(nodes, nodes):
            if i < j:
                yield "kk", i, j
            for s in window:
                yield "kh", i, j, s
                yield from (("hh", i, s, j, t) for t in window if (i, s) < (j, t))

    pairs = [(i, m, j, n) for i, j, m, n in product(nodes, nodes, window, window)]
    spaces = {
        "cartan": cartan(),
        "kx": product(nodes, nodes, window),
        "hx": product(nodes, window, nodes, window),
        "pm-mixed": pairs,
        "deg2-zero": pairs,
        "deg2-shift": pairs,
        "serre3": (
            (i, m, n, j, k)
            for i, j, m, n, k in product(nodes, nodes, window, window, window)
            if m <= n
        ),
        # its domain reads only the signature: decided once, on the loop
        # indices (0, 0, 0, 0), not per index
        "oscillation4": (
            (ix for ix in product(window, repeat=4) if ix[1] <= ix[3])
            if _admissible(sig, "oscillation4", (0,) * 4) else ()
        ),
    }
    wanted = spaces if families is None else set(families)
    unknown = sorted(wanted - spaces.keys())
    if unknown:
        raise ValueError(f"unknown relation families: {unknown}")
    return [
        RelRule(fam, idx, sgn)
        for fam, space in spaces.items() if fam in wanted
        for idx in space if _admissible(sig, fam, idx)
        for sgn in _signs(fam)
    ]


def chevalley_instances(sig: AlgebraSignature) -> list[RelRule]:
    """Relation instances of the affine Chevalley presentation (M != N)."""
    if sig.M == sig.N:
        raise ValueError("the Chevalley presentation needs M != N")
    nodes = range(0, sig.n_nodes + 1)
    listed = [
        (fam, (i, j))
        for i, j in product(nodes, nodes)
        for fam in ("chev-kx", "chev-mixed", "chev-zero", "chev-serre3")
        if fam != "chev-zero" or i <= j
    ]
    listed += [("chev-deg4", (0,)), ("chev-deg4", (1,)), ("chev-deg5", ())]
    return [
        RelRule(fam, idx, sgn)
        for fam, idx in listed if _admissible(sig, fam, idx)
        for sgn in _signs(fam)
    ]


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


def _accumulate(terms: dict, word: Word, coeff: Scalar) -> None:
    """Add ``coeff`` to the coefficient of ``word`` in a term dict, in place."""
    terms[word] = terms[word] + coeff if word in terms else coeff


def lambda_elem(n: int, b: int, c: int) -> Elem:
    """Coefficient of z^n after commuting K_1 h_1(z) through R(.,b,c,b)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x2, x3 = xp(2, b), xp(3, c)
    # the series S = X_{2,b} + sum_{s>=1} a_s X_{2,b+s} z^s: letter and
    # coefficient of its z^s part
    ser = [(x2, ONE)] + [(xp(2, b + s), _a_coeff(s)) for s in range(1, n + 1)]
    sn, an = ser[n]
    terms: dict = {}
    add = functools.partial(_accumulate, terms)
    # q^-2 (S)(X3)(S)
    for (g, cg), (h, ch) in zip(ser, reversed(ser)):
        add((g, x3, h), q**-2 * cg * ch)
    # q^-1 X3 X2 (S) + q^-1 X2 (S) X3
    add((x3, x2, sn), q**-1 * an)
    add((x2, sn, x3), q**-1 * an)
    # X2 X3 X2 at z^0 only
    if n == 0:
        add((x2, x3, x2), ONE)
    # -(q+q^-1) q^-1 X2 X3 (S)
    add((x2, x3, sn), -(q + q**-1) * q**-1 * an)
    return _elem(terms)


def mu_elem(a: int, c: int, n: int, d: int) -> Elem:
    """Coefficient of z^n w^d of the double series for the node-2 case."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    x1 = lambda k: xp(1, k)
    x3 = lambda k: xp(3, k)
    x2 = xp(2, d)
    terms: dict = {}
    add = functools.partial(_accumulate, terms)
    if n == 0:
        # q^-1 (C X2 - X2 C) with C = X1 X3 - X3 X1
        add((x1(a), x3(c), x2), q**-1)
        add((x3(c), x1(a), x2), -q**-1)
        add((x2, x1(a), x3(c)), -q**-1)
        add((x2, x3(c), x1(a)), q**-1)
        return _elem(terms)
    an, bn = _a_coeff(n), _b_coeff(n)
    add((x1(a), x3(c + n), x2), -q * bn)
    add((x3(c), x1(a + n), x2), -q**-1 * an)
    add((x2, x1(a), x3(c + n)), q * bn)
    add((x1(a), x2, x3(c + n)), -bn)
    add((x1(a + n), x2, x3(c)), -an)
    add((x3(c), x2, x1(a + n)), -an)
    add((x3(c + n), x2, x1(a)), -bn)
    add((x2, x3(c), x1(a + n)), q**-1 * an)
    for s in range(1, n):
        t = n - s
        ab = _a_coeff(s) * _b_coeff(t)
        add((x1(a + s), x3(c + t), x2), (q + q**-1) * ab)
        add((x1(a + s), x2, x3(c + t)), -ab)
        add((x3(c + t), x2, x1(a + s)), -ab)
    add((x1(a), x3(c + n), x2), (q + q**-1) * bn)
    add((x1(a + n), x3(c), x2), (q + q**-1) * an)
    return _elem(terms)


@functools.cache
def _relation_terms(family: str, indices: tuple) -> Mapping:
    """The terms of the (2,2) relation ``family`` at ``indices``, sign +1.

    The replay reads every relation here, so a process builds each once;
    the read-only view keeps the shared terms from being changed.
    """
    return MappingProxyType(relation_elem(SIG22, RelRule(family, indices)).terms)


# the pass budget of a guided reduction
_MAX_PASSES = 400


def _guided_reduce(e: Elem, match, rewrite) -> Elem:
    """Repeatedly rewrite the leftmost matched adjacent pair in every word.

    Each rewrite is spliced into its word: a term w of the term dict
    ``rewrite(g1, g2)`` with coefficient c turns coeff * head g1 g2 tail
    into coeff * c * head w tail.
    """
    for _ in range(_MAX_PASSES):
        hit = False
        out: dict = {}
        for word, coeff in e.terms.items():
            pos = next((p for p in range(len(word) - 1) if match(word[p], word[p + 1])), None)
            if pos is None:
                _accumulate(out, word, coeff)
                continue
            hit = True
            head, tail = word[:pos], word[pos + 2:]
            for w, c in rewrite(word[pos], word[pos + 1]).items():
                _accumulate(out, head + w + tail, coeff * c)
        e = _elem(out)
        if not hit:
            return e
    raise RuntimeError("guided reduction did not terminate within the pass budget")


def _deg2_zero_normal_form(e: Elem) -> Elem:
    """The normal form of ``e`` modulo the deg2-zero relations at (2,2).

    An adjacent pair w = X^+_{i,m} X^+_{j,n} with (alpha_i, alpha_j) = 0 is
    rewritten when it is out of (node, index) order, or equal and odd, by
    w - rel / rel[w], rel the deg2-zero instance (i, m, j, n): the pair
    swaps, with sign -1 when both factors are odd, and an odd square
    vanishes.
    """

    def match(g1: GenSym, g2: GenSym) -> bool:
        if g1.kind != X_PLUS or g2.kind != X_PLUS or SIG22.c(g1.node, g2.node):
            return False
        if g1 == g2:
            return SIG22.parity_node(g1.node) == 1
        return (g1.node, g1.index) > (g2.node, g2.index)

    def rewrite(g1: GenSym, g2: GenSym) -> dict:
        rel = _relation_terms("deg2-zero", (g1.node, g1.index, g2.node, g2.index))
        lead = rel[g1, g2]
        return {w: -c / lead for w, c in rel.items() if w != (g1, g2)}

    return _guided_reduce(e, match, rewrite)


def _loop_degree(word: Word) -> int:
    return sum(g.index for g in word)


def mu_recursion_certificate(diff: Elem) -> bool:
    """Decompose a recursion difference over the degree-2 relations of its nodes.

    Every word of ``diff`` has three letters on one node multiset: [1, 2, 3]
    for a mu step, [2, 2, 3] for a lambda step.  The derivations apply
    their degree-2 substitutions in grouped combinations; the order-free
    equivalent is an exact certificate diff = sum of g*rel and rel*g, where
    rel is the deg2-shift or deg2-zero instance (i, m, j, n) of an ordered
    pair (i, j) of the multiset and g = X^+_{k,t} is the letter k left
    over, so membership is decided by exact linear algebra over the free
    algebra.

    Every candidate is homogeneous in loop degree, the sum of a word's
    indices: each word of deg2-shift (i, m, j, n) has degree m + n + 1,
    each of deg2-zero (i, m, j, n) degree m + n, and g adds t.  The span of
    the candidates is the direct sum of its graded parts, and diff lies in
    it exactly when each graded part of diff lies in the span of the
    candidates of that degree, so only candidates of the degrees of diff's
    words are built, and a relation is built only when one of its
    candidates is.  A candidate is the relation's term dict with g joined
    to each word.

    Membership is decided by ``linalg.span_contains``, which eliminates
    only the candidates connected to diff's words and stops at the first
    one that brings diff into their span.  That is exact: the candidates
    that share no word with diff or with a connected candidate span a
    direct summand on words diff does not touch, so they cannot help.
    """
    if diff.is_zero():
        return True
    nodes = sorted(g.node for g in next(iter(diff.terms)))
    indices: dict[int, set[int]] = {node: set() for node in nodes}
    degrees = set()
    for word in diff.terms:
        if len(word) != 3 or sorted(g.node for g in word) != nodes:
            raise ValueError("certificate words must share one three-letter node multiset")
        for g in word:
            indices[g.node].add(g.index)
        degrees.add(_loop_degree(word))
    boxes = {node: range(min(vals) - 1, max(vals) + 2) for node, vals in indices.items()}
    candidates = []
    # each ordered pair (i, j) of the multiset and the node k of its extra letter
    for (i, j), k in {(i, j): k for i, j, k in permutations(nodes)}.items():
        shift = int(SIG22.c(i, j) != 0)
        fam = ("deg2-zero", "deg2-shift")[shift]
        for m in boxes[i]:
            for n in boxes[j]:
                ts = [t for t in boxes[k] if m + n + shift + t in degrees]
                if not ts:
                    continue
                rel = _relation_terms(fam, (i, m, j, n))
                for t in ts:
                    g = (xp(k, t),)
                    candidates.append({g + w: c for w, c in rel.items()})
                    candidates.append({w + g: c for w, c in rel.items()})
    return span_contains(candidates, diff.terms)


def appendixA_check(n_max: int, window: Iterable[int]) -> dict:
    """Replay the oscillation-relation recursions at signature (2,2).

    Four claim families, all indices drawn from ``window``: the base cases
    lambda(0,b,c) = 0 and mu(a,c,0,d) = 0, and the recursions
    lambda(n,b,c) = lambda(n-1,b,c+1) and mu(a,c,n,d) = mu(a,c,n-1,d+1)
    for 1 <= n <= n_max.  Each claim is decided once, at the base indices
    (lambda at (0,0), mu at (0,0,0)): a base case by its normal form
    modulo deg2-zero, a step by the degree-2 certificate.  Translating the
    loop indices of each node's letters maps every degree-2 relation to
    another, so the claim holds at other indices when its element is
    exactly the translate of the base one.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    window = sorted(window)
    # the second term of each recursion difference is the first term of a
    # neighbouring one, so build each element once per call
    lam, mu = functools.cache(lambda_elem), functools.cache(mu_elem)
    shifted = functools.cache(xp)  # each translated symbol is built once

    def lam_claim(n: int, b: int, c: int) -> Elem:
        return lam(0, b, c) if n == 0 else lam(n, b, c) - lam(n - 1, b, c + 1)

    def mu_claim(n: int, a: int, c: int, d: int) -> Elem:
        return mu(a, c, 0, d) if n == 0 else mu(a, c, n, d) - mu(a, c, n - 1, d + 1)

    def lam_name(n: int, b: int, c: int) -> str:
        return f"lambda({n},{b},{c}) = " + (f"lambda({n-1},{b},{c+1})" if n else "0")

    def mu_name(n: int, a: int, c: int, d: int) -> str:
        return f"mu({a},{c},{n},{d}) = " + (f"mu({a},{c},{n-1},{d+1})" if n else "0")

    families = (
        # the number of indices, the element each claim says is zero, the
        # claim's name, and the loop-index offset of each node's letters
        (2, lam_claim, lam_name, lambda b, c: {2: b, 3: c}),
        (3, mu_claim, mu_name, lambda a, c, d: {1: a, 2: d, 3: c}),
    )
    checks = []
    for arity, claim, name, offsets in families:
        base = [claim(n, *(0,) * arity) for n in range(n_max + 1)]
        base_ok = [_deg2_zero_normal_form(base[0]).is_zero()]
        base_ok += [mu_recursion_certificate(diff) for diff in base[1:]]
        for ix in product(window, repeat=arity):
            offs = offsets(*ix)
            translate = lambda g: shifted(g.node, g.index + offs[g.node])
            for n in range(n_max + 1):
                ok = base_ok[n] and claim(n, *ix) == base[n].map_symbols(translate)
                detail = "" if ok or n == 0 else "no degree-2 certificate found"
                checks.append({"name": name(n, *ix), "status": "pass" if ok else "fail", "detail": detail})
    return {
        "n_max": n_max,
        "window": list(window),
        "passed": all(c["status"] == "pass" for c in checks),
        "checks": checks,
    }
