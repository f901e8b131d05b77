"""Fixture constructors shared by the tests."""

from superloop.coeffs import ZERO, scalar
from superloop.linalg import Mat


def mat_from_rows(rows) -> Mat:
    """A ``Mat`` from a dense list of rows of scalars, ints or strings."""
    data = {}
    for i, row in enumerate(rows):
        for j, val in enumerate(row):
            val = scalar(val)
            if val != ZERO:
                data[i, j] = val
    return Mat(len(rows), len(rows[0]) if rows else 0, data)
