"""Every module of the package uses each name it imports.

No linter ships with the project's dependencies, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the module.
``__init__.py`` is left out, since its imports are the package's exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "incentive_dynamics"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_finds_each_unread_name():
    source = ("from __future__ import annotations\n"
              "import json, os.path\nimport numpy as np\n"
              "from .errors import GameError as E, SpecError\n"
              "def f(x: np.ndarray):\n    import csv\n    raise SpecError(os.sep)\n")
    assert unused_imports(source) == ["json", "E", "csv"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
