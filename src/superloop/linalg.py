"""Sparse exact linear algebra over the scalar field.

Matrices are stored as ``{(row, col): Scalar}`` and never store a zero
entry; vectors as ``{index: Scalar}``.  Everything is exact.  The public
``Mat(...)`` drops the zeros of the dict it is given.  Arithmetic builds
its results through the raw constructor ``_mat``, which stores the dict
as it is, and tests for zero only the entries that can cancel: a sum of
two entries, never a product or a nonzero multiple of nonzero entries,
since the field is a domain.  A zero ``Scalar`` is the ring value with
empty terms, so that test reads ``_terms`` directly.  Elimination is
fraction-free: it stays in the Laurent ring the entries almost always
lie in, and divides only where a caller needs field values (a solution
of ``solve_span``, a kernel basis of ``joint_nullspace``).
"""

from __future__ import annotations

from .coeffs import ONE, ZERO, Scalar, remove_content, scalar, term_count, unit_inverse


class Mat:
    """Immutable sparse matrix over the scalar field."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if data:
            for key, val in data.items():
                if val != ZERO:
                    clean[key] = val
        self.data = clean

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Mat":
        return _mat(nrows, ncols, {})

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return _mat(n, n, {(i, i): ONE for i in range(n)})

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        data = dict(self.data)
        for key, val in other.data.items():
            if key in data:
                val = data[key] + val
                if val._terms == {}:
                    del data[key]
                    continue
            data[key] = val
        return _mat(self.nrows, self.ncols, data)

    def __sub__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        data = dict(self.data)
        for key, val in other.data.items():
            if key in data:
                val = data[key] - val
                if val._terms == {}:
                    del data[key]
                    continue
            else:
                val = -val
            data[key] = val
        return _mat(self.nrows, self.ncols, data)

    def __neg__(self) -> "Mat":
        return _mat(self.nrows, self.ncols, {k: -v for k, v in self.data.items()})

    def scale(self, s) -> "Mat":
        s = scalar(s)
        if s._terms == {}:
            return Mat.zeros(self.nrows, self.ncols)
        if s == ONE:
            return self
        return _mat(self.nrows, self.ncols, {k: s * v for k, v in self.data.items()})

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        by_row: dict[int, list] = {}
        for (k, j), val in other.data.items():
            by_row.setdefault(k, []).append((j, val))
        data: dict = {}
        summed = set()  # entries with two or more contributions: only these can cancel
        for (i, k), aik in self.data.items():
            for j, bkj in by_row.get(k, ()):
                key = (i, j)
                if key in data:
                    data[key] = data[key] + aik * bkj
                    summed.add(key)
                else:
                    data[key] = aik * bkj
        for key in summed:
            if data[key]._terms == {}:
                del data[key]
        return _mat(self.nrows, other.ncols, data)

    def apply(self, vec: dict) -> dict:
        """Matrix times sparse column vector."""
        out: dict = {}
        for (i, j), val in self.data.items():
            vj = vec.get(j)
            if vj is not None:
                out[i] = out.get(i, ZERO) + val * vj
        return {i: v for i, v in out.items() if v != ZERO}

    def flatten(self) -> dict:
        """Row-major sparse vector of length nrows*ncols."""
        return {i * self.ncols + j: v for (i, j), v in self.data.items()}

    def __repr__(self) -> str:
        return f"Mat({self.nrows}x{self.ncols}, nnz={len(self.data)})"


def _mat(nrows: int, ncols: int, data: dict) -> Mat:
    """The ``Mat`` of ``data`` as given, which holds ``Scalar``s and no zero."""
    m = Mat.__new__(Mat)
    m.nrows = nrows
    m.ncols = ncols
    m.data = data
    return m


def kron_super(A: Mat, B: Mat, parity1: list[int], parity2: list[int]) -> Mat:
    """Matrix of A ((x)) B acting on the super tensor product.

    Basis vectors of the product are (j1, j2) in row-major order.  The
    Koszul rule (x (x) y)(v (x) w) = (-1)^{|y||v|} xv (x) yw is applied
    componentwise: the (i2, j2)-component of B has parity
    parity2[i2]+parity2[j2], so that factor picks up the sign
    (-1)^{(parity2[i2]+parity2[j2]) * parity1[j1]}.
    """
    n2, m2 = B.nrows, B.ncols
    data = {}
    for (i1, j1), x in A.data.items():
        p1 = parity1[j1]
        for (i2, j2), y in B.data.items():
            xy = x * y
            odd = p1 and (parity2[i2] + parity2[j2]) % 2
            data[i1 * n2 + i2, j1 * m2 + j2] = -xy if odd else xy
    return _mat(A.nrows * n2, A.ncols * m2, data)


def _eliminate(vec: dict, row: dict, lead: int) -> dict:
    """lead(row)*vec - vec[lead]*row, which clears vec[lead] without a division."""
    f, p = vec[lead], row[lead]
    out = dict(vec) if p == ONE else {k: p * v for k, v in vec.items()}
    for k, v in row.items():
        val = out.get(k, ZERO) - f * v
        if val:
            out[k] = val
        else:
            del out[k]
    return out


class RowReducer:
    """Incremental echelon form for sparse vectors, fraction-free.

    A vector v is reduced by the pivot row p of its least index by
    cross-multiplication, v <- lead(p)*v - lead(v)*p, so elimination of
    Laurent rows never divides.  A new pivot row whose lead is not a unit
    of the Laurent ring is made a primitive Laurent row (``remove_content``),
    which keeps pivots from growing with every row they absorb; one whose
    lead is a unit (a +-monomial) is then scaled to lead 1, which is
    exact.  ``reduce`` returns a nonzero scalar multiple of the residual a
    field elimination gives.
    """

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            vec = _eliminate(vec, row, lead)
        return vec

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when it enlarges the span."""
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = min(vec)
        if unit_inverse(vec[lead]) is None:
            vec = dict(zip(vec, remove_content(list(vec.values()))))
        inv = unit_inverse(vec[lead])
        if inv is not None and inv != ONE:
            vec = {k: inv * v for k, v in vec.items()}
        self.pivots[lead] = vec
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def copy(self) -> "RowReducer":
        """A reducer of the same span that grows on its own; pivot rows are never mutated."""
        out = RowReducer()
        out.pivots = dict(self.pivots)
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(vectors) -> int:
    """The rank of the vectors, fed to a fresh ``RowReducer`` simplest-first.

    The rank does not depend on the order, but the cost of reaching it
    does: each pivot's lead multiplies every later row it clears, so a
    many-term first pivot makes every residual swell.  The vectors go in
    ascending order of their total term count (``term_count`` of each
    entry), ties in the given order.
    """
    red = RowReducer()
    for vec in sorted(vectors, key=lambda v: sum(map(term_count, v.values()))):
        red.add(vec)
    return red.rank


def span_contains(vectors: list[dict], target: dict) -> bool:
    """Whether ``target`` lies in the span of ``vectors``, exactly.

    The vectors are fed to a ``RowReducer`` in the order of a breadth-first
    walk from ``target``'s keys, where a vector is reached through any key
    it shares with ``target`` or with a vector reached before it; after
    every vector that enlarges the span the residual of ``target`` is
    reduced again, and the walk stops at the first zero residual.  The
    answer is that of feeding every vector: the vectors the walk never
    reaches touch no key of ``target`` or of a reached vector, so they span
    a direct summand disjoint from ``target``'s component.
    """
    by_key: dict = {}
    for n, vec in enumerate(vectors):
        for k in vec:
            by_key.setdefault(k, []).append(n)
    red = RowReducer()
    resid = dict(target)
    keys = list(target)
    seen = set(keys)
    fed = set()
    for k in keys:  # the list grows as the walk reaches new keys
        for n in by_key.get(k, ()):
            if n in fed:
                continue
            fed.add(n)
            if red.add(vectors[n]):
                resid = red.reduce(resid)
                if not resid:
                    return True
            for key in vectors[n]:
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
    return not resid


def joint_nullspace(mats: list[Mat], dim: int) -> list[dict]:
    """Basis of the common kernel of the given dim-column matrices."""
    red = RowReducer()
    for m in mats:
        rows: dict[int, dict] = {}
        for (i, j), val in m.data.items():
            rows.setdefault(i, {})[j] = val
        for row in rows.values():
            red.add(row)
    # Back-substitute through the echelon rows, dividing by each pivot's lead.
    pivots = red.pivots
    pivot_cols = set(pivots)
    free_cols = [j for j in range(dim) if j not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = {free: ONE}
        for col in sorted(pivot_cols, reverse=True):
            row = pivots[col]
            s = sum((v * vec.get(k, ZERO) for k, v in row.items() if k != col), start=ZERO)
            if s != ZERO:
                vec[col] = -s / row[col]
        basis.append({k: v for k, v in vec.items() if v != ZERO})
    return basis


def solve_span(columns: list[dict], target: dict) -> list[Scalar] | None:
    """Solve sum_j x_j columns[j] = target exactly; None when unsolvable.

    Returns one solution vector (free coordinates set to zero).
    """
    # Augment each column with a unit tag keyed above every row index, so
    # elimination clears the rows first and the combination can be read off.
    # The target carries its own tag T above the column tags: reduction
    # scales it by some r, so x_j = -resid[tag_j] / resid[T].
    tag = 1 + max((k for vec in (*columns, target) for k in vec), default=0)
    top = tag + len(columns)
    red = RowReducer()
    for j, col in enumerate(columns):
        red.add({**col, tag + j: ONE})
    resid = red.reduce({**target, top: ONE})
    if any(k < tag for k in resid):
        return None
    r = resid.pop(top)
    sol = [ZERO] * len(columns)
    for k, v in resid.items():
        sol[k - tag] = -v / r
    return sol
