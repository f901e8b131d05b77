"""Exact symbolic computations in quantum loop superalgebras of type sl(M,N).

Subpackages:

- ``coeffs``:    exact rational-function scalars, z-polynomials and series
- ``superfree``: words in the current symbols, the twisted super
                 commutator, the defining-relation catalog, phi series,
                 the (2,2) oscillation replay
- ``pbw``:       positive roots, root vectors, PBW monomials, the
                 plus-to-minus isomorphism
- ``modrep``:    finite-dimensional modules, evaluation pullbacks, tensor
                 products, highest-weight extraction, odd slices
- ``weyl``:      torsion triples and the highest-weight monoid
- ``cli``:       batch verification suites with JSON reports
"""

# ``cli`` loads on first import: imported here, ``python -m superloop.cli``
# would find it loaded and run it a second time as ``__main__``
from . import coeffs, linalg, modrep, pbw, superfree, weyl

__version__ = "0.1.0"

__all__ = ["cli", "coeffs", "linalg", "modrep", "pbw", "superfree", "weyl", "__version__"]
