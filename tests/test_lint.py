"""Every name that a module of the package or of the tests imports is used
in it.  An import kept on purpose, such as ``cli``'s eager load of the
layers, carries ``# noqa: F401`` on its line.  Every function, class and
method that the package defines is named somewhere in the package outside
its own definition, so that code only the tests call stays in ``tests/``.
Every class of the package built on a ``namedtuple(...)`` call declares
``__slots__ = ()``, so that its values carry no ``__dict__`` and take no
new attribute."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import gradedorbits

MODULES = sorted(Path(gradedorbits.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=[p.name for p in MODULES + TESTS])
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


def unslotted_namedtuples(source: str) -> list:
    """The names of the classes whose base is a ``namedtuple(...)`` call and
    whose body does not assign ``__slots__ = ()``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(
            isinstance(base, ast.Call) and ast.unparse(base.func).rpartition(".")[2] == "namedtuple"
            for base in node.bases
        ):
            continue
        if not any(
            isinstance(item, ast.Assign)
            and [ast.unparse(t) for t in item.targets] == ["__slots__"]
            and ast.unparse(item.value) == "()"
            for item in node.body
        ):
            out.append(node.name)
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_namedtuple_classes_declare_empty_slots(path):
    assert unslotted_namedtuples(path.read_text()) == []


def test_unslotted_namedtuples_are_found():
    source = (
        "import collections\n"
        "from collections import namedtuple\n"
        "class Slotted(namedtuple('Slotted', 'a')):\n"
        "    __slots__ = ()\n"
        "class Loose(namedtuple('Loose', 'a b')):\n"
        "    def total(self):\n"
        "        return self.a + self.b\n"
        "class Qualified(collections.namedtuple('Qualified', 'a')):\n"
        "    pass\n"
        "class SlotsNamed(namedtuple('SlotsNamed', 'a')):\n"
        "    __slots__ = ('b',)\n"
        "class Plain:\n"
        "    pass\n"
    )
    assert unslotted_namedtuples(source) == ["Loose", "Qualified", "SlotsNamed"]


def _names(node) -> list:
    """Every identifier that an expression under the node reads, as a name
    or as an attribute."""
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and each
    method of a top-level class; dunder names, which Python calls, such as a
    module's ``__getattr__``, are left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item


def unreferenced(sources: dict) -> list:
    """The module-qualified names of the definitions in ``sources`` (module
    name -> source) whose name no expression of any module reads outside
    the definition itself.  Names are matched as strings, across modules."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _names(tree))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if reads[name] == _names(node).count(name):
                out.append(f"{module}.{qualname}")
    return out


def test_every_definition_is_named_in_the_package():
    assert unreferenced({path.stem: path.read_text() for path in MODULES}) == []


def test_unreferenced_definitions_are_found():
    sources = {
        "a": (
            "def used():\n"
            "    return Box().kept()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def imported_only():\n"
            "    pass\n"
            "class Box:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def kept(self):\n"
            "        return 1\n"
            "    def orphan(self):\n"
            "        return self.orphan\n"
            "def __getattr__(name):\n"
            "    raise AttributeError(name)\n"
        ),
        "b": "from a import imported_only, used\nused()\n",
    }
    assert unreferenced(sources) == ["a.recursive", "a.imported_only", "a.Box.orphan"]
