"""Highest-weight bookkeeping for the odd node.

Torsion formal series are encoded canonically by triples (c, Q, P) with
coprime Q, P normalised at 0; the set of such triples is a commutative
monoid matching tensor products of highest weights.  The triple's P is
the recurrence the odd slice of a module obeys (``modrep.odd_slice``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .coeffs import (
    ONE,
    ZERO,
    Scalar,
    ZPoly,
    poly_gcd,
    q,
    remove_content,
    scalar_str,
)


class TorsionError(ValueError):
    """Raised when data cannot be put in canonical torsion form."""


class NotCoprimeError(TorsionError):
    """Raised when a triple's Q and P share a factor."""


@dataclass(frozen=True)
class TorsionTriple:
    """Canonical (c, Q, P): Q(0) = P(0) = 1, Q and P coprime of equal degree
    with lead(Q) = c^-2 lead(P)."""

    c: Scalar
    Q: ZPoly
    P: ZPoly

    def __post_init__(self):
        if self.c == ZERO:
            raise TorsionError("c must be invertible")
        if self.Q.coeff(0) != ONE or self.P.coeff(0) != ONE:
            raise TorsionError("Q and P must have constant term 1")
        if self.Q.degree != self.P.degree:
            raise TorsionError("Q and P must have equal degree")
        if self.Q.degree > 0 and poly_gcd(self.Q, self.P).degree > 0:
            raise NotCoprimeError("Q and P must be coprime")
        lead_q = self.Q.coeffs[-1]
        lead_p = self.P.coeffs[-1]
        if lead_q * self.c**2 != lead_p:
            raise TorsionError("leading coefficients must satisfy lead(Q) = c^-2 lead(P)")

    def to_json(self) -> dict:
        return {"c": scalar_str(self.c), "Q": self.Q.to_json(), "P": self.P.to_json()}


def identity_triple() -> TorsionTriple:
    return TorsionTriple(ONE, ZPoly.one(), ZPoly.one())


def torsion_to_series(t: TorsionTriple, order: int) -> tuple[dict[int, Scalar], Scalar]:
    """The two-sided window of f, scaled so that it needs no division.

    f is given by (q - q^-1) f = iota_+(c Q/P) - iota_-(c Q/P).  Returns
    (g, s) with g = {n: s f_n for |n| <= order} and
    s = c (q - q^-1) lead(P)^(order + 1): the plus side is then the
    expansion of c^2 Q/P in z, which P(0) = 1 keeps division-free, and the
    minus side is -lead^(order - n) u_n for u_n = lead^(n + 1) [z^-n](c^2 Q/P),
    whose recurrence divides by nothing either.  Neither the annihilator
    nor the triple changes under the scale, and g is Laurent whenever
    c^2 Q and P are.
    """
    c2 = t.c * t.c
    cq = [c2 * x for x in t.Q.coeffs]
    P = t.P.coeffs
    d = len(P) - 1
    lead = P[-1]
    powers = [ONE]  # lead^k, k = 0..order + 1
    for _ in range(order + 1):
        powers.append(powers[-1] * lead)
    top = powers[order + 1]
    plus: list[Scalar] = []  # [z^n](c^2 Q/P)
    minus: list[Scalar] = []  # u_n
    for n in range(order + 1):
        s = cq[n] if n <= d else ZERO
        r = cq[d - n] * powers[n] if n <= d else ZERO
        for k in range(1, min(n, d) + 1):
            s -= P[k] * plus[n - k]
            r -= P[d - k] * powers[k - 1] * minus[n - k]
        plus.append(s)
        minus.append(r)
    window = {0: top * (c2 - ONE)}
    for n in range(1, order + 1):
        window[n] = top * plus[n]
        window[-n] = -powers[order - n] * minus[n]
    return window, t.c * (q - q**-1) * top


def _minimal_annihilator(window: Mapping[int, Scalar], degree_bound: int) -> ZPoly | None:
    """Smallest-degree P with P(0) = 1 annihilating the window, or None.

    P annihilates f when sum_s p_s f_{m-s} = 0 for every m with all the
    touched coefficients inside the window.  One Berlekamp-Massey pass
    over f_lo..f_hi gives the shortest recurrence (Massey 1969); its
    length L is the least degree any annihilator can have.  The pass is
    inversionless (conn <- prev_disc conn - disc z^gap prev, as in
    Reed-Solomon decoders): the connection polynomial is only known up to
    a scalar, its content is removed after each update to stop the
    coefficients swelling, and it is divided by its constant term once at
    the end.  The answer is None when L exceeds the bound, when the window
    has fewer than 2L + 1 terms and so does not pin the recurrence down, or
    when the connection polynomial has degree below L, so that no degree-L
    annihilator exists.
    """
    lo, hi = min(window), max(window)
    # updates shed content only from Laurent values: a field window (measured at a
    # non-Laurent point, or an f-window) becomes primitive Laurent values, a scaling;
    # a Laurent window's own content costs gcds and saves none
    f = [window[m] for m in range(lo, hi + 1)]
    if any(x._den != 1 for x in f):
        f = remove_content(f)
    conn, prev = [ONE], [ONE]  # current and last-lengthened connection polynomials
    length, gap, prev_disc = 0, 1, ONE
    for n in range(len(f)):
        # conn[0] is not 1 here, so it enters the discrepancy
        disc = sum((conn[s] * f[n - s] for s in range(len(conn))), start=ZERO)
        if disc == ZERO:
            gap += 1
            continue
        update = [prev_disc * x for x in conn] + [ZERO] * (gap + len(prev) - len(conn))
        for s, p in enumerate(prev):
            update[s + gap] -= disc * p
        update = remove_content(update)
        if 2 * length <= n:
            conn, prev = update, conn
            length, gap, prev_disc = n + 1 - length, 1, disc
            if length > degree_bound:
                return None
        else:
            conn = update
            gap += 1
    cand = ZPoly([x / conn[0] for x in conn])
    if len(f) < 2 * length + 1 or cand.degree < length:
        return None
    return cand if _annihilates(cand, window) else None


def _annihilates(p: ZPoly, window: Mapping[int, Scalar]) -> bool:
    lo, hi = min(window), max(window)
    d = p.degree
    for m in range(lo + d, hi + 1):
        s = sum((p.coeff(k) * window[m - k] for k in range(d + 1)), start=ZERO)
        if s != ZERO:
            return False
    return True


def series_to_torsion(
    window: Mapping[int, Scalar], c: Scalar, degree_bound: int = 4, scale: Scalar = ONE
) -> TorsionTriple:
    """Recover the canonical (c, Q, P) from a symmetric window of scale * f.

    P is the minimal-degree annihilator of the window; Q comes from the
    truncation of c^-1 P(z) (c + (q - q^-1) sum_{n>0} f_n z^n), verified
    to close up at degree deg P.  With g = scale * f that is the truncation
    of P(z) (c scale + (q - q^-1) sum_{n>0} g_n z^n), whose d + 1 kept
    coefficients are the only values divided, by c scale.
    """
    lo, hi = min(window), max(window)
    if hi < degree_bound or -lo < degree_bound or hi - lo + 1 < 2 * degree_bound + 1:
        raise TorsionError("window too short for the requested degree bound")
    u = q - q**-1
    if window.get(0, ZERO) * u * c != scale * (c * c - ONE):
        raise TorsionError("f_0 must equal (c - c^-1)/(q - q^-1)")
    P = _minimal_annihilator(window, degree_bound)
    if P is None:
        raise TorsionError(f"no annihilator of degree <= {degree_bound} found")
    d = P.degree
    cs = c * scale
    prod = P * ZPoly([cs] + [u * window[n] for n in range(1, hi + 1)])
    for k in range(d + 1, hi + 1):
        if prod.coeff(k) != ZERO:
            raise TorsionError("torsion construction did not truncate; window inconsistent")
    Q = ZPoly([prod.coeff(k) / cs for k in range(d + 1)])
    return TorsionTriple(c, Q, P)


# ---------------------------------------------------------------------------
# highest-weight data and the monoid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HighestWeight:
    """Highest-weight datum: even-node polynomials, odd-node torsion triple.

    ``P`` maps each even node to its polynomial; ``epsilon`` records the
    observed sign of the K eigenvalue at that node; ``k0_eigen`` is the
    eigenvalue of the affine Chevalley K_0 image when one is available.
    """

    P: Mapping[int, ZPoly]
    torsion: TorsionTriple
    epsilon: Mapping[int, int]
    k0_eigen: Scalar | None = None

    def __post_init__(self):
        for i, p in self.P.items():
            if p.coeff(0) != ONE:
                raise TorsionError(f"P_{i} must have constant term 1")

    @property
    def c(self) -> Scalar:
        return self.torsion.c

    def to_json(self) -> dict:
        return {
            "P": {str(i): p.to_json() for i, p in sorted(self.P.items())},
            "c": scalar_str(self.torsion.c),
            "Q": self.torsion.Q.to_json(),
            "P_odd": self.torsion.P.to_json(),
            "epsilon": {str(i): e for i, e in sorted(self.epsilon.items())},
            "K0": None if self.k0_eigen is None else scalar_str(self.k0_eigen),
        }


def monoid_product(h1: HighestWeight, h2: HighestWeight) -> HighestWeight:
    """Componentwise product: polynomials multiply, triples multiply and reduce."""
    if set(h1.P) != set(h2.P):
        raise ValueError("highest weights live over different node sets")
    P = {i: h1.P[i] * h2.P[i] for i in h1.P}
    eps = {i: h1.epsilon.get(i, 1) * h2.epsilon.get(i, 1) for i in h1.P}
    t1, t2 = h1.torsion, h2.torsion
    Q, Pden = t1.Q * t2.Q, t1.P * t2.P
    if Q.degree > 0:
        g = poly_gcd(Q, Pden)
        if g.degree > 0:
            # poly_gcd gives g(0) = 1 here (g divides Q, and Q(0) = 1), so
            # both quotients keep constant term 1
            Q = Q.divmod(g)[0]
            Pden = Pden.divmod(g)[0]
    torsion = TorsionTriple(t1.c * t2.c, Q, Pden)
    k0 = None
    if h1.k0_eigen is not None and h2.k0_eigen is not None:
        k0 = h1.k0_eigen * h2.k0_eigen
    return HighestWeight(P, torsion, eps, k0)


def star_product_window(
    f: tuple[Mapping[int, Scalar], Scalar],
    g: tuple[Mapping[int, Scalar], Scalar],
    c: Scalar,
    d: Scalar,
    order: int,
) -> tuple[dict[int, Scalar], Scalar]:
    """The series-level product (f+g+ - f-g-)/(q - q^-1) on a window.

    f and g are (window, scale) pairs as ``torsion_to_series`` returns
    them; f+- = c^{+-1} +- (q - q^-1) sum_{s >= 1} f_{+-s} z^{+-s}.  The
    result is the pair of the product window times its scale, the
    product of both scales and q - q^-1, so nothing is divided.  It is
    only guaranteed for |n| <= order when both inputs cover |n| <= order.
    """
    u = q - q**-1

    def sides(h, e):
        """Coefficients of z^k in s h+ and of z^-k in s h-, k = 0..order."""
        window, s = h
        plus = [e * s] + [u * window.get(k, ZERO) for k in range(1, order + 1)]
        minus = [s / e] + [-u * window.get(-k, ZERO) for k in range(1, order + 1)]
        return plus, minus

    fp, fm = sides(f, c)
    gp, gm = sides(g, d)
    out: dict[int, Scalar] = {}
    for n in range(-order, order + 1):
        # f+ g+ reaches z^n only for n >= 0, f- g- only for n <= 0
        m = abs(n)
        plus = sum((fp[k] * gp[m - k] for k in range(m + 1)), start=ZERO) if n >= 0 else ZERO
        minus = sum((fm[k] * gm[m - k] for k in range(m + 1)), start=ZERO) if n <= 0 else ZERO
        out[n] = plus - minus
    return out, f[1] * g[1] * u
