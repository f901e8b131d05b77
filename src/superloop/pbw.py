"""Root vectors, the ordered positive root system and PBW monomials.

Positive roots are the segments alpha_i + ... + alpha_j ordered by
(i, j); root vectors are iterated twisted brackets of the plus currents.
The plus-to-minus isomorphism tau1 acts word by word on free elements.
The Dynkin-diagram flip acts on modules instead (``modrep.pi_pullback``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .coeffs import ONE
from .superfree import AlgebraSignature, Elem, GenSym, X_PLUS, qbracket, xm, xp


@dataclass(frozen=True, order=True)
class Root:
    """The positive root alpha_i + ... + alpha_j, ordered by (i, j)."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i <= self.j:
            raise ValueError("need 1 <= i <= j")


def positive_roots(sig: AlgebraSignature) -> list[Root]:
    n = sig.n_nodes
    return [Root(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def root_vector(sig: AlgebraSignature, beta: Root, n: int) -> Elem:
    """X_beta(n) = [...[[X^+_{i,n}, X^+_{i+1,0}]_{q_{i+1}}, ...]_{q_j}."""
    if beta.j > sig.n_nodes:
        raise ValueError("root out of range for signature")
    out = Elem.monomial((xp(beta.i, n),))
    for k in range(beta.i + 1, beta.j + 1):
        out = qbracket(sig, out, Elem.monomial((xp(k, 0),)), sig.q_node(k))
    return out


@dataclass(frozen=True)
class PBWMonomial:
    """Ordered product of root vectors with loop indices."""

    factors: tuple  # tuple[(Root, int), ...], nondecreasing in the root order

    def __post_init__(self):
        roots = [f[0] for f in self.factors]
        if any(r2 < r1 for r1, r2 in zip(roots, roots[1:])):
            raise ValueError("factors must respect the root order")


def monomial_elem(sig: AlgebraSignature, mono: PBWMonomial) -> Elem:
    out = Elem.one()
    for root, n in mono.factors:
        out = out * root_vector(sig, root, n)
    return out


def _root_multisets(roots: list[Root], weight: list[int]):
    """All nondecreasing root sequences summing to the weight."""
    if all(v == 0 for v in weight):
        yield ()
        return
    if not roots:
        return
    head, rest = roots[0], roots[1:]
    span = (head.i - 1, head.j)  # half-open coordinate range
    max_count = min(weight[k] for k in range(span[0], span[1])) if span[1] > span[0] else 0
    for count in range(max_count, -1, -1):
        reduced = list(weight)
        for k in range(span[0], span[1]):
            reduced[k] -= count
        if min(reduced) < 0:
            continue
        for tail in _root_multisets(rest, reduced):
            yield (head,) * count + tail


def enumerate_pbw(
    sig: AlgebraSignature, weight: Sequence[int], loop_window: Iterable[int]
) -> list[PBWMonomial]:
    """All PBW monomials of the given weight with loop indices in the window.

    Every assignment of window indices to repeated factors is listed;
    the output order is deterministic.
    """
    weight = list(weight)
    if len(weight) != sig.n_nodes:
        raise ValueError("weight length must match the node count")
    if any(v < 0 for v in weight):
        return []
    window = sorted(loop_window)
    out = []
    for seq in _root_multisets(positive_roots(sig), weight):
        for ns in itertools.product(window, repeat=len(seq)):
            out.append(PBWMonomial(tuple(zip(seq, ns))))
    return out


def all_words(
    sig: AlgebraSignature, weight: Sequence[int], loop_window: Iterable[int]
) -> list[tuple[GenSym, ...]]:
    """All X^+ words of the given weight with loop indices in the window."""
    weight = list(weight)
    if any(v < 0 for v in weight):
        return []
    window = sorted(loop_window)
    letters: list[int] = []
    for node, mult in enumerate(weight, start=1):
        letters.extend([node] * mult)
    out = []
    seen = set()
    for perm in itertools.permutations(letters):
        if perm in seen:
            continue
        seen.add(perm)
        for ns in itertools.product(window, repeat=len(perm)):
            out.append(tuple(xp(i, n) for i, n in zip(perm, ns)))
    return sorted(out)


# ---------------------------------------------------------------------------
# the plus-to-minus isomorphism
# ---------------------------------------------------------------------------


def tau1(e: Elem) -> Elem:
    """Algebra map X^+_{i,n} -> X^-_{i,-n}."""
    if any(g.kind != X_PLUS for word in e.terms for g in word):
        raise ValueError("tau1 is defined on the X^+ subalgebra only")
    return e.map_symbols(lambda g: (ONE, xm(g.node, -g.index)))
