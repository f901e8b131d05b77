import random
from itertools import zip_longest

from helpers import mat_from_rows
from hypothesis import given, settings, strategies as st

from superloop import pbw
from superloop.coeffs import ONE, ZERO, a, b, q, scalar, term_count
from superloop.linalg import (
    Mat,
    RowReducer,
    joint_nullspace,
    kron_super,
    rank,
    solve_span,
    span_contains,
)
from superloop.superfree import Elem


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


# -- raw Mat arithmetic against the filtering constructor --

_ENTRIES = [ONE, -ONE, q, -q, q**-1, a, -a, q - 1, 1 - q, ONE / (q - 1)]


def _random_mat(rng, nrows, ncols):
    keys = [(i, j) for i in range(nrows) for j in range(ncols)]
    picked = rng.sample(keys, rng.randint(0, len(keys)))
    return Mat(nrows, ncols, {key: rng.choice(_ENTRIES) for key in picked})


def _dense(nrows, ncols, entry):
    """The filtering ``Mat(...)`` of entry(i, j) at every position, zeros included."""
    return Mat(nrows, ncols, {(i, j): entry(i, j) for i in range(nrows) for j in range(ncols)})


def _at(m, i, j):
    return m.data.get((i, j), ZERO)


def _cancelling_partner(rng, A, ncols):
    """A right factor for A in which row i of A meets two terms x*y - y*x = 0."""
    C = _random_mat(rng, A.ncols, ncols)
    rows = [i for i in range(A.nrows) if sum((i, l) in A.data for l in range(A.ncols)) >= 2]
    if not rows:
        return C
    i = rng.choice(rows)
    l1, l2 = rng.sample([l for l in range(A.ncols) if (i, l) in A.data], 2)
    j = rng.randrange(ncols)
    data = {key: v for key, v in C.data.items() if key[1] != j}
    data[l1, j], data[l2, j] = A.data[i, l2], -A.data[i, l1]
    return Mat(A.ncols, ncols, data)


def test_raw_mat_arithmetic_against_filtering_constructor():
    # every result of +, -, *, scale, negation and kron_super stores no zero and
    # equals the filtering constructor's matrix of the same entries, computed densely
    rng = random.Random(23)
    cancelled = 0
    for n in range(500):
        r, c, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        A = _random_mat(rng, r, c)
        op = n % 6
        if op in (0, 1):  # plant cancellations: B repeats some of A's entries, negated for a sum
            sign = -ONE if op == 0 else ONE
            B = _random_mat(rng, r, c)
            B = Mat(r, c, {**B.data, **{key: sign * v for key, v in A.data.items() if rng.random() < 0.6}})
            out = A + B if op == 0 else A - B
            ref = _dense(r, c, lambda i, j: _at(A, i, j) - sign * _at(B, i, j))
            touched = len(A.data.keys() | B.data.keys())
        elif op == 2:
            B = _cancelling_partner(rng, A, k)
            out = A * B
            ref = _dense(r, k, lambda i, j: sum((_at(A, i, l) * _at(B, l, j) for l in range(c)), ZERO))
            touched = len({(i, j) for (i, l) in A.data for (l2, j) in B.data if l == l2})
        elif op == 3:
            s = rng.choice([0, 1, ZERO, ONE, -ONE, q, a - q])
            out = A.scale(s)
            ref = _dense(r, c, lambda i, j: scalar(s) * _at(A, i, j))
            touched = len(A.data) if scalar(s) != ZERO else 0
            if scalar(s) == ONE:
                assert out is A
        elif op == 4:
            out, ref, touched = -A, _dense(r, c, lambda i, j: -_at(A, i, j)), len(A.data)
        else:
            B = _random_mat(rng, k, rng.randint(1, 3))
            p1, p2 = [rng.randint(0, 1) for _ in range(c)], [rng.randint(0, 1) for _ in range(B.ncols)]
            p2 = p2 + [rng.randint(0, 1) for _ in range(B.nrows - len(p2))]
            out = kron_super(A, B, p1, p2)

            def entry(i, j):
                (i1, i2), (j1, j2) = divmod(i, B.nrows), divmod(j, B.ncols)
                koszul = -ONE if p1[j1] * (p2[i2] + p2[j2]) % 2 else ONE
                return koszul * _at(A, i1, j1) * _at(B, i2, j2)

            ref = _dense(r * B.nrows, c * B.ncols, entry)
            touched = len(A.data) * len(B.data)
        assert all(v != ZERO for v in out.data.values())
        assert out == ref
        cancelled += len(out.data) < touched
    assert cancelled >= 100


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


def _fed_rank(vecs):
    red = RowReducer()
    for vec in vecs:
        red.add(vec)
    return red.rank


def _same_rank_in_any_order(vecs):
    """rank equals a RowReducer's rank fed in the given order and in reverse; checks ranks only."""
    r = rank(vecs)
    assert r == _fed_rank(vecs) == _fed_rank(vecs[::-1])
    return r


def test_rank_random_systems():
    rng = random.Random(11)
    for _ in range(25):
        dim = rng.randint(2, 7)
        vecs = _random_system(rng, dim, rng.randint(2, 7), rng.randint(1, 3))
        _same_rank_in_any_order(vecs)
    assert rank([]) == 0 and rank([{}, {}]) == 0


def test_rank_pbw_tensor(tensor21):
    # the vectors pbw-rank ranks on ev(a)(x)ev(b), at the window of the README command
    sig = tensor21.sig
    window = range(-2, 3)
    ranks = []
    for wt in [(1, 1), (2, 1)]:
        monos = [tensor21.elem_matrix(pbw.monomial_elem(sig, m)).flatten()
                 for m in pbw.enumerate_pbw(sig, list(wt), window)]
        words = [tensor21.elem_matrix(Elem.monomial(w)).flatten() for w in pbw.all_words(sig, list(wt), window)]
        ranks.append((_same_rank_in_any_order(monos), _same_rank_in_any_order(words)))
    assert ranks == [(4, 4), (2, 2)]


def test_term_count():
    assert term_count(ZERO) == 0
    assert term_count(ONE) == term_count(-q) == 1
    assert term_count(q + a - b) == 3
    half = (q + 1) / 2  # a ring value with integer denominator 2
    assert term_count(half) == 2
    assert term_count(ONE / (q - 1)) == 1 + 2
    assert term_count((q + a) / (q + b + 1)) == 2 + 3
    # a ring value is counted without building its field form
    assert half._field is None


_SPAN_ENTRIES = st.sampled_from([ONE, -ONE, scalar(2), q, q**-1, q + 1, a * q - b, ONE / (q - 1)])


def _block(low):
    """Sparse vectors on the keys low..low+5."""
    return st.dictionaries(st.integers(low, low + 5), _SPAN_ENTRIES, min_size=1, max_size=3)


def _combination(vecs, coeffs):
    out: dict = {}
    for vec, c in zip(vecs, coeffs):
        for k, x in vec.items():
            out[k] = out.get(k, ZERO) + c * x
    return {k: x for k, x in out.items() if x != ZERO}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(_block(0), max_size=6),
    st.lists(_block(20), max_size=4),
    st.lists(_SPAN_ENTRIES, max_size=6),
    st.one_of(st.just({}), _block(0), _block(20), _block(40)),
)
def test_span_contains_two_routes(near, far, coeffs, extra):
    # target: a combination of the vectors on keys 0..5, plus a vector that
    # may lie outside their span; the vectors on keys 20..25 share no key
    # with that combination, and keys 40..45 no vector touches
    vectors = [v for pair in zip_longest(near, far) for v in pair if v is not None]
    target = _combination([_combination(near, coeffs), extra], [ONE, ONE])
    ref = RowReducer()
    for v in vectors:
        ref.add(v)
    assert span_contains(vectors, target) is ref.contains(target)

