"""Module boundaries inside the ``tirex`` package."""

import ast
from pathlib import Path

import pytest

import tirex

MODULES = sorted(Path(tirex.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_uses(source):
    """The private names that ``source``, a module of the package, takes
    from another of its modules: imported by name (``from .data import _x``),
    or read as an attribute of an imported module (``rngmod._x``)."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "tirex"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tirex":
                    modules.add(alias.asname or "tirex")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = _dotted(node.value)
            if base is not None and base.split(".")[0] in modules:
                found.append(f"{base}.{node.attr}")
    return found


@pytest.mark.parametrize("source, want", [
    ("from .data import _drop_column, load_csv", ["_drop_column"]),
    ("from tirex.estimators import _prefix_grams as grams", ["_prefix_grams"]),
    ("from . import rng as rngmod\nrngmod._key(1)", ["rngmod._key"]),
    ("import tirex.data\ntirex.data._x", ["tirex.data._x"]),
    ("from . import __version__\nfrom .data import Dataset\nself._std = 1", []),
    ("import numpy as np\nnp._NoValue", []),
])
def test_private_uses_finds_private_imports(source, want):
    assert private_uses(source) == want


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    # a helper another module needs is public API; keeping private names
    # private lets a module change them without reading the others
    assert private_uses(path.read_text(encoding="utf-8")) == []
