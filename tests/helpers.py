"""Fixture constructors shared by the tests."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import superloop
from superloop import coeffs
from superloop.coeffs import ONE, ZERO, q, scalar
from superloop.linalg import Mat

SRC = Path(superloop.__file__).resolve().parent.parent


def mat_from_rows(rows) -> Mat:
    """A ``Mat`` from a dense list of rows of scalars, ints or strings."""
    data = {}
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            val = scalar(val)
            if val != ZERO:
                data[i, j] = val
    return Mat(len(rows), len(rows[0]) if rows else 0, data)


def vector_reference(dim: int) -> tuple[list, list, list, list]:
    """Reference matrices of the vector module of dimension ``dim``: (t, tinv, eplus, eminus).

    ``t[k]`` is t_{k+1} = q^{E_{k+1,k+1}}, which acts by q on basis vector k
    and by 1 elsewhere, and ``tinv[k]`` its inverse; ``eplus[j]`` and
    ``eminus[j]`` are the matrix units E_{j,j+1} and E_{j+1,j}, the e_{j+1}^+-
    of the finite algebra.
    """

    def t(k: int, power: int) -> Mat:
        return Mat(dim, dim, {(j, j): q**power if j == k else ONE for j in range(dim)})

    return (
        [t(k, 1) for k in range(dim)],
        [t(k, -1) for k in range(dim)],
        [Mat(dim, dim, {(j, j + 1): ONE}) for j in range(dim - 1)],
        [Mat(dim, dim, {(j + 1, j): ONE}) for j in range(dim - 1)],
    )


@contextlib.contextmanager
def count_field_ops():
    """Record every call of ``coeffs._field_op`` inside the block.

    These are the ``+``, ``-``, ``*`` and ``/`` that go through sympy's field:
    those with a field operand, and divisions of ring values by more than one
    term.  Ring arithmetic, over a denominator of 1 or more, never reaches it.
    Yields the list of recorded operators; the function is restored on exit.
    """
    field_op = coeffs._field_op
    calls = []

    def counted(op, x, y):
        calls.append(op)
        return field_op(op, x, y)

    coeffs._field_op = counted
    try:
        yield calls
    finally:
        coeffs._field_op = field_op


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter run with ``args``, importing superloop from SRC."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter that imports superloop from SRC."""
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()
