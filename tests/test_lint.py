"""Every name a module of the package imports is used in it.  An import
kept on purpose, such as ``cli``'s eager load of the layers, carries
``# noqa: F401`` on its line."""

import ast
from pathlib import Path

import pytest

import gradedorbits

MODULES = sorted(Path(gradedorbits.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression of the module
    reads, apart from ``from __future__`` imports and lines marked
    ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from dataclasses import dataclass\n"
        "import os.path\n"
        "from .exactlin import RatMatrix, nullspace\n"
        "from . import cohom  # noqa: F401\n"
        "nullspace(os.path)\n"
    )
    assert unused_imports(source) == [(1, "dataclass"), (3, "RatMatrix")]
