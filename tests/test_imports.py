"""Every name a module of the package imports is read by that module, and
no module imports another's private (`_`-prefixed) name.

`__init__.py` re-exports what it imports, and `from __future__` imports
change how the module compiles, so neither is checked for unused names."""

from __future__ import annotations

import ast
import os

import pytest

import dicekit

PACKAGE = os.path.dirname(dicekit.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda t: t[1]) if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\nprint(sys, a)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def private_imports(source: str) -> list[str]:
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name.startswith("_")]


def test_the_check_sees_a_private_import():
    source = "from __future__ import annotations\nfrom .engine import _anchors, bind\nimport os\n"
    assert private_imports(source) == ["line 2: _anchors"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_a_private_name(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []
