"""Exact symbolic computations in quantum loop superalgebras of type sl(M,N).

Subpackages:

- ``coeffs``:    exact rational-function scalars, z-polynomials and series
- ``superfree``: graded words, the defining-relation catalog, quantum
                 brackets, phi series, the (2,2) oscillation replay
- ``pbw``:       positive roots, root vectors, PBW monomials, the
                 plus-to-minus isomorphism
- ``modrep``:    finite-dimensional modules, evaluation pullbacks, tensor
                 products, highest-weight extraction
- ``weyl``:      torsion triples, the highest-weight monoid, odd slices
- ``cli``:       batch verification suites with JSON reports
"""

# ``cli`` loads on first import: imported here, ``python -m superloop.cli``
# would find it loaded and run it a second time as ``__main__``
from . import coeffs, linalg, modrep, pbw, superfree, weyl

__version__ = "0.1.0"

__all__ = ["cli", "coeffs", "linalg", "modrep", "pbw", "superfree", "weyl", "__version__"]
