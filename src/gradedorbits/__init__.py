"""Exact-arithmetic toolkit for cocharacter-graded classical Lie algebras.

Submodules: exactlin (integer/rational linear algebra, Hermite forms and
invariant factors, partitions), rootdata (root data and prime classifiers),
liegrade (gradings, sl2-triples, canonical parabolics, rigidity), orbitlib
(nilpotent orbit combinatorics and graded orbit enumeration), cohom (space
expressions, counting polynomials, stalk tables), ffgeom (finite-field point
counting), cli (command line).
"""

__version__ = "0.1.0"

from . import cohom, exactlin, ffgeom, liegrade, orbitlib, rootdata  # noqa: F401
