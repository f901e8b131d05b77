from superloop.coeffs import ONE, ZERO, q, scalar
from superloop.linalg import (
    Mat,
    RowReducer,
    joint_nullspace,
    kron_super,
    operator_parity,
    solve_span,
)


def test_mat_arithmetic():
    A = Mat.from_rows([[1, q], [0, 2]])
    B = Mat.from_rows([[q, 0], [1, 1]])
    assert A * B == Mat.from_rows([[2 * q, q], [2, 2]])
    assert (A - A).is_zero()
    assert A * Mat.identity(2) == A


def test_apply_and_flatten():
    A = Mat.from_rows([[0, q], [1, 0]])
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
    A = Mat.from_rows([[1, 0, -1], [0, 0, 0], [0, 0, 0]])
    B = Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
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
    B = Mat.from_rows([[0, 1], [1, 0]])
    parity1 = [0, 1]
    parity2 = [0, 1]
    K = kron_super(A, B, parity1, parity2)
    # block for j1 = 0 (even): plain B; block for j1 = 1 (odd): -B
    assert K.entry(0, 1) == ONE and K.entry(1, 0) == ONE
    assert K.entry(2, 3) == -ONE and K.entry(3, 2) == -ONE


def test_operator_parity():
    assert operator_parity(Mat.from_rows([[1, 0], [0, 1]]), [0, 1]) == 0
    assert operator_parity(Mat.from_rows([[0, 1], [0, 0]]), [0, 1]) == 1
    assert operator_parity(Mat.from_rows([[1, 1], [0, 0]]), [0, 1]) is None
