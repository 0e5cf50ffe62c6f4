"""Every module of the package uses each name it imports, and the CLI
imports no more than it needs.

No linter ships with the project's dependencies, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the module.
``__init__.py`` is left out, since its imports are the package's exports.
"""
import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize costs about a third of the CLI's start-up; nothing needs it
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "import sys, incentive_dynamics.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
