"""Fixture constructors shared by the tests."""

import os
import subprocess
import sys
from pathlib import Path

import superloop
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
