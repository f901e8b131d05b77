"""Fixture constructors shared by the tests."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import superloop
from superloop import coeffs
from superloop.coeffs import ZERO, scalar
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
