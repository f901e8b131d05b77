import random

from helpers import mat_from_rows

from superloop import pbw
from superloop.coeffs import ONE, ZERO, a, b, q, scalar
from superloop.linalg import (
    Mat,
    RowReducer,
    joint_nullspace,
    kron_super,
    solve_span,
)


def test_mat_arithmetic():
    A = mat_from_rows([[1, q], [0, 2]])
    B = mat_from_rows([[q, 0], [1, 1]])
    assert A * B == mat_from_rows([[2 * q, q], [2, 2]])
    assert (A - A).is_zero()
    assert A * Mat.identity(2) == A


def test_apply_and_flatten():
    A = mat_from_rows([[0, q], [1, 0]])
    v = {1: ONE}
    assert A.apply(v) == {0: q}
    assert A.flatten() == {1: q, 2: ONE}


def test_row_reducer_rank():
    vecs = [{0: ONE, 1: q}, {0: q, 1: q**2}, {1: ONE}]
    red = RowReducer()
    assert [red.add(v) for v in vecs] == [True, False, True]
    assert red.rank == 2
    red = RowReducer()
    red.add(vecs[0])
    assert red.contains({0: q, 1: q**2})
    assert not red.contains({0: ONE})


def test_joint_nullspace():
    A = mat_from_rows([[1, 0, -1], [0, 0, 0], [0, 0, 0]])
    B = mat_from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    basis = joint_nullspace([A, B], 3)
    assert len(basis) == 1
    (v,) = basis
    assert A.apply(v) == {} and B.apply(v) == {}


def test_solve_span():
    cols = [{0: ONE, 1: ONE}, {1: q}]
    target = {0: scalar(2), 1: scalar(2) + q}
    sol = solve_span(cols, target)
    assert sol is not None
    combo = {}
    for x, col in zip(sol, cols):
        for k, val in col.items():
            combo[k] = combo.get(k, ZERO) + x * val
    assert {k: v for k, v in combo.items() if v != ZERO} == target
    assert solve_span([{0: ONE}], {1: ONE}) is None


def test_solve_span_large_row_index():
    # row indices must not collide with the keys that tag the columns
    assert solve_span([{10**9: ONE}], {10**9 + 1: scalar(2)}) is None


def test_kron_super_signs():
    # odd operator B acting after an odd first-factor basis vector flips sign
    A = Mat.identity(2)
    B = mat_from_rows([[0, 1], [1, 0]])
    parity1 = [0, 1]
    parity2 = [0, 1]
    K = kron_super(A, B, parity1, parity2)
    # block for j1 = 0 (even): plain B; block for j1 = 1 (odd): -B
    assert K.data.get((0, 1), ZERO) == ONE and K.data.get((1, 0), ZERO) == ONE
    assert K.data.get((2, 3), ZERO) == -ONE and K.data.get((3, 2), ZERO) == -ONE


# -- two routes: the fraction-free reducer against field elimination --


class _FieldReducer:
    """The reference route: field elimination with every pivot scaled to lead 1."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            factor = vec[lead]
            for k, v in row.items():
                val = vec.get(k, ZERO) - factor * v
                if val == ZERO:
                    vec.pop(k, None)
                else:
                    vec[k] = val
        return vec

    def add(self, vec: dict) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        lead = min(vec)
        inv = ONE / vec[lead]
        self.pivots[lead] = {k: inv * v for k, v in vec.items()}
        return True


def _field_solve_span(columns, target):
    tag = 1 + max((k for vec in (*columns, target) for k in vec), default=0)
    red = _FieldReducer()
    for j, col in enumerate(columns):
        red.add({**col, tag + j: ONE})
    resid = red.reduce(target)
    if any(k < tag for k in resid):
        return None
    sol = [ZERO] * len(columns)
    for k, v in resid.items():
        sol[k - tag] = -v
    return sol


def _field_nullspace(rows, dim):
    red = _FieldReducer()
    for row in rows:
        red.add(row)
    basis = []
    for free in (j for j in range(dim) if j not in red.pivots):
        vec = {free: ONE}
        for col in sorted(red.pivots, reverse=True):
            s = sum((v * vec.get(k, ZERO) for k, v in red.pivots[col].items() if k != col), start=ZERO)
            if s != ZERO:
                vec[col] = -s
        basis.append({k: v for k, v in vec.items() if v != ZERO})
    return basis


def _same_on_both_routes(vecs, dim):
    """Rank, membership, solve_span and joint_nullspace agree exactly."""
    ours, ref = RowReducer(), _FieldReducer()
    grew = [ours.add(v) for v in vecs]
    assert grew == [ref.add(v) for v in vecs]
    assert ours.rank == len(ref.pivots) and set(ours.pivots) == set(ref.pivots)
    for v in vecs:
        assert ours.contains(v)
    probe = {dim: ONE}
    assert not ours.contains(probe) and ref.reduce(probe)
    for n in range(1, len(vecs)):
        assert solve_span(vecs[:n], vecs[n]) == _field_solve_span(vecs[:n], vecs[n])
    mat = Mat(len(vecs), dim, {(i, j): x for i, v in enumerate(vecs) for j, x in v.items()})
    assert joint_nullspace([mat], dim) == _field_nullspace(vecs, dim)
    return sum(grew)


_POOL = [ONE, -ONE, scalar(2), q, -q, q**-1, q + 1, q - q**-1, 2 * q + 3, a, a * q - b, ONE / (q - 1)]


def _random_system(rng, dim, nvec, plant):
    """Sparse vectors, ``plant`` of them combinations of earlier ones."""
    vecs = []
    for n in range(nvec):
        if vecs and n >= nvec - plant:
            v: dict = {}
            for w in rng.sample(vecs, min(2, len(vecs))):
                c = rng.choice(_POOL)
                for k, x in w.items():
                    v[k] = v.get(k, ZERO) + c * x
            v = {k: x for k, x in v.items() if x != ZERO}
        else:
            v = {k: rng.choice(_POOL) for k in rng.sample(range(dim), rng.randint(1, min(4, dim)))}
        vecs.append(v)
    rng.shuffle(vecs)
    return vecs


def test_reducer_two_routes_random_systems():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(2, 7)
        vecs = _random_system(rng, dim, rng.randint(2, 7), rng.randint(1, 3))
        _same_on_both_routes([v for v in vecs if v], dim)


def test_reducer_two_routes_non_monomial_pivot():
    # the first pivot's lead q + 1 is not a unit, so it is kept unscaled
    vecs = [{0: q + 1, 1: a, 2: ONE}, {0: q - 1, 1: ONE}, {0: q**2 - 1, 1: (q - 1) * a, 2: q - 1}, {1: q, 2: b}]
    red = RowReducer()
    red.add(vecs[0])
    assert red.pivots[0][0] == q + 1
    assert _same_on_both_routes(vecs, 3) == 3


def test_reducer_two_routes_pbw_tensor(tensor21):
    sig = tensor21.sig
    window = range(-1, 2)
    ranks = []
    for wt in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        vecs = [
            tensor21.elem_matrix(pbw.monomial_elem(sig, mono)).flatten()
            for mono in pbw.enumerate_pbw(sig, list(wt), window)
        ]
        ranks.append(_same_on_both_routes([v for v in vecs if v], tensor21.dim**2))
    assert ranks[2] > 0
