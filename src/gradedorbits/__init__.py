"""Exact-arithmetic toolkit for cocharacter-graded classical Lie algebras.

Submodules: exactlin (primality, integer/rational matrices and their exact
elimination over Q or F_p, cocharacters, partitions), rootdata (the prime classifiers of
SL(n) and Sp(2m) in closed form), liegrade (gradings, sl2-triples, canonical
parabolics, rigidity), orbitlib (nilpotent orbit combinatorics and graded
orbit enumeration), cohom (space expressions, counting polynomials, stalk
tables), ffgeom (finite-field point counting), cli (command line).  Each
loads on its first use, not with the package, so that ``python -m
gradedorbits.cli`` loads only what it runs.
"""

import importlib
import runpy

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("cli", "cohom", "exactlin", "ffgeom", "liegrade", "orbitlib", "rootdata"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main():
    """The console script: ``cli`` run as a program, as by ``python -m gradedorbits.cli``."""
    runpy.run_module(f"{__name__}.cli", run_name="__main__")
