"""Every module of the package uses each name it imports and each name it
defines, and the CLI imports no more than it needs.

No linter ships with the project's dependencies, so this walks each module's
syntax tree: a name bound by an import must be read somewhere in the module.
``__init__.py`` is left out, since its imports are the package's exports. A
top-level function, class or constant must be named in ``src/``, ``tests/``
or ``bench/`` outside its own definition, and a method or property in
``src/``, ``bench/`` or ``studies/``, unless ``TEST_ONLY_METHODS`` lists it.
Only ``games.check_incentive`` raises an error about the incentive vector,
only ``games._BlockSpace.check_feasible`` one about an infeasible simplex
strategy and only ``games.AtomicGame.check_feasible`` one about a strategy
profile outside its box, and no function one about a strategy's shape of its
own. Only ``dynamics._check_positive`` raises a "must be finite and
positive" error, and besides it and those three rules only
``dynamics._require_finite`` a "must be finite" one. The package defines
``check_start`` once and no ``is_feasible``; and every public function that
takes a ``tol`` calls ``games.check_tolerance``. No two functions of the package share their
parameter names and body, every hypothesis property under ``tests/`` is
derandomized, and no module under ``tests/`` imports a ``test_*`` module.
"""
import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "incentive_dynamics"
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# methods that tests alone keep alive; a test's reference oracle lives in ``tests/``
TEST_ONLY_METHODS = []


def method_references(node) -> Counter:
    """How often the code under ``node`` can name a method: as an attribute
    (``x.name``), as a string (``getattr``) or as a bare name at class level
    (an alias ``dim = n_players``). A local variable of that name does not count."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
        elif isinstance(n, ast.ClassDef):
            found.update(m.id for stmt in n.body if not isinstance(stmt, FUNCTIONS)
                         for m in ast.walk(stmt) if isinstance(m, ast.Name))
    return found


def dead_definitions(source: str, elsewhere: str, callers: str = "") -> list:
    """The top-level functions, classes and constants of ``source`` that neither
    the rest of ``source`` nor ``elsewhere`` names, and the methods and
    properties of its top-level classes, as ``Class.name``, that neither the
    rest of ``source`` nor the code ``callers`` references, in definition order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    references = method_references(tree) + method_references(ast.parse(callers))
    dead = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        rest = "\n".join(lines[:start - 1] + lines[node.end_lineno:] + [elsewhere])
        dead += [name for name in names if not name.startswith("__")
                 and not re.search(rf"\b{re.escape(name)}\b", rest)]
        if isinstance(node, ast.ClassDef):
            dead += [f"{node.name}.{method.name}" for method in node.body
                     if isinstance(method, FUNCTIONS) and not method.name.startswith("__")
                     and not (references - method_references(method))[method.name]]
    return dead


def test_dead_definitions_finds_each_unnamed_definition():
    source = ("import numpy as np\nLIMIT = 1.0\n_A, B = 1, 2\n__all__ = []\n"
              "@np.vectorize\ndef helper(x):\n    return helper(x - LIMIT)\n"
              "class Used:\n    pass\nclass _Unused(Used):\n    x = B\n")
    assert dead_definitions(source, "") == ["_A", "helper", "_Unused"]
    assert dead_definitions(source, "from pkg import helper, _A\n") == ["_Unused"]
    # a method lives only on a reference in the rest of the module or in ``callers``:
    # not on its own recursive call, a local variable or a test of the same name
    network = ("class RoutingNetwork:\n    size = n_edges\n"
               "    def n_edges(self):\n        return self.step()\n"
               "    def step(self, step=0):\n        return self.step(step)\n"
               "    @property\n    def flows(self):\n        return 'scale'\n"
               "    def scale(self):\n        return self.flows\n"
               "    def cost_lipschitz(self):\n        cost_lipschitz = 1.0\n"
               "        return cost_lipschitz\n")
    tests = "net = RoutingNetwork()\nnet.step(); net.cost_lipschitz(); net.size\n"
    assert dead_definitions(network, tests) == ["RoutingNetwork.cost_lipschitz"]
    assert dead_definitions(network.replace("return self.step()", "return 1"), tests) == [
        "RoutingNetwork.step", "RoutingNetwork.cost_lipschitz"]
    assert dead_definitions(network, tests, "net.cost_lipschitz()\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_defines_nothing_unnamed(module):
    def text(roots):
        return "\n".join(p.read_text() for root in roots for p in (ROOT / root).rglob("*.py")
                         if p != PACKAGE / module)

    # a method that only tests call is dead unless TEST_ONLY_METHODS lists it
    dead = dead_definitions((PACKAGE / module).read_text(), text(("src", "tests", "bench")),
                            text(("src", "bench", "studies")))
    assert [name for name in dead if name not in TEST_ONLY_METHODS] == []


def test_each_method_that_tests_alone_keep_alive_is_dead_without_them():
    # a stale entry would name a deleted method, or one that the package calls again
    routing = PACKAGE / "routing.py"
    callers = "\n".join(p.read_text() for root in ("src", "bench", "studies")
                        for p in (ROOT / root).rglob("*.py") if p != routing)
    dead = dead_definitions(routing.read_text(), "", callers)
    assert [name for name in dead if name in TEST_ONLY_METHODS] == TEST_ONLY_METHODS


def duplicate_bodies(sources: dict) -> list:
    """The pairs of functions in ``sources`` (module name -> source) that take
    the same parameter names and have the same body, docstrings and
    annotations aside, each as (first, later) qualified names in source order."""
    first, pairs = {}, []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            name = f"{prefix}.{child.name}" if isinstance(child, scopes) else prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                params += [x and x.arg for x in (a.vararg, a.kwarg)]
                body = child.body
                if ast.get_docstring(child, clean=False) is not None:
                    body = body[1:]
                key = (tuple(params), tuple(ast.dump(stmt) for stmt in body))
                if key in first:
                    pairs.append((first[key], name))
                else:
                    first[key] = name
            visit(child, name)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return pairs


def test_duplicate_bodies_finds_each_copied_function():
    source = ('def f(x: int) -> int:\n    "Doc."\n    return x + 1\n'
              "def g(x):\n    return x + 1\n"
              "def h(y):\n    return y + 1\n"
              "def k(x, *rest):\n    return x + 1\n"
              "class C:\n    def m(self):\n        return self.a\n"
              '    @property\n    def n(self) -> int:\n        "Doc."\n        return self.a\n')
    assert duplicate_bodies({"m": source}) == [("m.f", "m.g"), ("m.C.m", "m.C.n")]
    other = "class D:\n    def g(x):\n        return x + 1\n"
    assert duplicate_bodies({"m": source, "o": other})[-1] == ("m.f", "o.D.g")


def test_no_function_body_is_written_twice():
    # an alias (``dim = n_players``) shares one body instead of copying it
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert duplicate_bodies(sources) == []


def errors_mentioning(source: str, phrase: str) -> list:
    """The functions of ``source`` that raise an error whose message mentions
    ``phrase``, in source order, each once, by dotted name within the module
    (``Class.method``, ``outer.inner``; None at module level)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope is None else f"{scope}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = " ".join(n.value for n in ast.walk(node.exc)
                            if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if phrase in text and scope not in found:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_errors_mentioning_finds_each_raising_function():
    source = ("def check_incentive(p, n):\n    raise ValueError('incentive vector must be finite')\n"
              "def solve(p):\n    if p.size:\n        def inner():\n"
              "            raise E(f'incentive vector has shape {p.shape}')\n"
              "    raise E('dimension mismatch')\n"
              "class Game:\n    def target(self, p):\n        raise E('bad ' 'incentive vector')\n"
              "raise E(msg='incentive vector at import')\n")
    assert errors_mentioning(source, "incentive vector") == [
        "check_incentive", "solve.inner", "Game.target", None]
    assert errors_mentioning(source, "dimension") == ["solve"]


def raisers_in_package(phrase: str) -> dict:
    """Per module of the package, the functions that :func:`errors_mentioning` finds."""
    found = {module: errors_mentioning((PACKAGE / module).read_text(), phrase)
             for module in MODULES}
    return {m: f for m, f in found.items() if f}


def test_only_check_incentive_builds_an_incentive_vector_error():
    # one module decides what a valid incentive is and what error names a bad one
    assert raisers_in_package("incentive vector") == {"games.py": ["check_incentive"]}


@pytest.mark.parametrize("phrase", ["has wrong length", "must be finite and nonnegative",
                                    "violates"])
def test_only_check_feasible_builds_a_simplex_feasibility_error(phrase):
    # one method decides what a feasible simplex strategy is, for a network and
    # a non-atomic game alike, and what error names an infeasible one
    assert raisers_in_package(phrase) == {"games.py": ["_BlockSpace.check_feasible"]}


@pytest.mark.parametrize("phrase", ["strategy profile has shape", "strategy profile must be finite",
                                    "strategy profile lies outside its box"])
def test_only_the_atomic_check_feasible_builds_a_box_feasibility_error(phrase):
    # an atomic game's box rule has its own phrases; the simplex test above keeps
    # its phrases out of this method
    assert raisers_in_package(phrase) == {"games.py": ["AtomicGame.check_feasible"]}


def test_only_check_positive_builds_a_finite_and_positive_error():
    # a constructor value and a call's tol alike; the caller picks the error class
    assert raisers_in_package("must be finite and positive") == {
        "dynamics.py": ["_check_positive"]}


def test_only_require_finite_builds_any_other_must_be_finite_error():
    # the incentive and feasibility rules keep their own phrases
    assert raisers_in_package("must be finite") == {
        "dynamics.py": ["_require_finite", "_check_positive"],
        "games.py": ["check_incentive", "_BlockSpace.check_feasible", "AtomicGame.check_feasible"]}


def test_no_function_builds_a_strategy_shape_error_of_its_own():
    # a certificate takes its strategy through the model's check_feasible
    assert raisers_in_package("strategy has shape") == {}


def test_check_start_is_written_once_and_is_feasible_nowhere():
    # every model checks its start by its one feasibility rule, check_feasible
    defined = Counter(node.name for module in MODULES
                      for node in ast.walk(ast.parse((PACKAGE / module).read_text()))
                      if isinstance(node, FUNCTIONS))
    assert (defined["check_start"], defined["is_feasible"]) == (1, 0)


def unchecked_tolerances(source: str) -> list:
    """The module-level public functions of ``source`` that take a ``tol``
    parameter and call no ``check_tolerance``, in source order. Private
    helpers receive a checked ``tol``; ``check_tolerance`` is the check."""
    found = []
    for node in ast.parse(source).body:
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("_") or node.name == "check_tolerance"):
            continue
        a = node.args
        if "tol" not in [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]:
            continue
        called = {n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
                  for n in ast.walk(node) if isinstance(n, ast.Call)}
        if "check_tolerance" not in called:
            found.append(node.name)
    return found


def test_unchecked_tolerances_finds_each_public_function():
    source = ("def check_tolerance(tol):\n    pass\n"
              "def solve(x, tol=1e-10):\n    return x\n"
              "def certify(x, tol):\n    games.check_tolerance(tol)\n"
              "def probe(x, *, tol):\n    check_tolerance(tol)\n"
              "def search(x, *, tol, max_iter):\n    return tol\n"
              "def _helper(x, tol):\n    return x <= tol\n"
              "def tolerant(x, x_tol):\n    return x\n"
              "class Game:\n    def is_feasible(self, x, tol=1e-9):\n        return x <= tol\n")
    assert unchecked_tolerances(source) == ["solve", "search"]


def test_every_public_tolerance_is_checked_at_its_entry():
    # a NaN or negative tol fails every ``<=``, so a solver would run its whole budget
    found = {module: unchecked_tolerances((PACKAGE / module).read_text()) for module in MODULES}
    assert {m: f for m, f in found.items() if f} == {}


def loaded_modules(code: str, package: str = "scipy") -> list:
    """The ``package*`` modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code += ("\nimport sys; print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_cli_import_leaves_out_scipy_optimize():
    # scipy took most of the CLI's start-up; the package needs only numpy
    assert loaded_modules("import incentive_dynamics.cli") == []


@pytest.mark.parametrize("argv", [
    ["list-fixtures"], ["verify", "--config", "{routing}"],
    ["run", "--config", "{routing}", "--out", "{out}"], ["verify", "--config", "{aggregative}"],
    ["run", "--config", "{aggregative}", "--out", "{out}"]])
def test_cli_calls_load_no_scipy(tmp_path, argv):
    routing_config = tmp_path / "braess.json"
    routing_config.write_text(json.dumps({
        "game": {"builtin": "braess"},
        "run": {"max_iterations": 200, "convergence_tol": 1e-2},
        "analyses": [{"op": "verify_fixed_point_optimality"}, {"op": "nondegeneracy"}]}))
    # M = [[1, 0.5], [0.5, 1]] with y† <= 0 passes the global and the local conditions
    aggregative_config = tmp_path / "agg.json"
    aggregative_config.write_text(json.dumps({
        "game": {"aggregative": {"q": [1.0, 1.0], "A": [[0, 0.5], [0.5, 0]],
                                 "alpha": 1.0, "zeta": [-0.5, -1.0]}},
        "run": {"max_iterations": 2000, "convergence_tol": 1e-2},
        "analyses": [{"op": "global_conditions"}, {"op": "local_conditions"},
                     {"op": "condition_c2", "p_samples": [[0.5, -0.5], [-1.0, 2.0]]},
                     {"op": "verify_fixed_point_optimality"}]}))
    argv = [a.format(routing=routing_config, aggregative=aggregative_config,
                     out=tmp_path / "out") for a in argv]
    code = f"from incentive_dynamics import cli; assert cli.main({argv!r}) == 0"
    assert loaded_modules(code) == []


@pytest.mark.parametrize("run", [None, "config", "directory"])
def test_cli_and_its_runs_load_no_multiprocessing(tmp_path, run):
    # a directory of configs runs them one after another in this process
    code = "from incentive_dynamics import cli\n"
    if run:
        configs = tmp_path / "configs"
        configs.mkdir()
        games = {"agg": {"aggregative": {"q": [1.0, 1.0], "A": [[0, 0.5], [0.5, 0]],
                                         "alpha": 1.0, "zeta": [0.5, -0.5]}},
                 "two_link": {"builtin": "two_link"}}
        for name, game in games.items():
            (configs / f"{name}.json").write_text(json.dumps({
                "game": game, "run": {"max_iterations": 2000, "convergence_tol": 1e-4}}))
        config = configs if run == "directory" else configs / "agg.json"
        argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
        code += f"assert cli.main({argv!r}) == 0\n"
    assert loaded_modules(code, "multiprocessing") == []


def unseeded_settings(source: str) -> list:
    """The lines of ``source`` where a ``@settings`` decorator does not set
    ``derandomize=True``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", []):
            func = dec.func if isinstance(dec, ast.Call) else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "settings" and not any(
                    k.arg == "derandomize" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in getattr(dec, "keywords", [])):
                lines.append(dec.lineno)
    return sorted(lines)


def test_unseeded_settings_finds_each_random_property():
    source = ("@given(st.floats())\n@settings(max_examples=5)\ndef test_a(v):\n    pass\n"
              "@hypothesis.settings(derandomize=True, max_examples=5)\ndef test_b(v):\n    pass\n"
              "@settings(derandomize=False)\ndef test_c(v):\n    pass\n"
              "@settings\ndef test_d(v):\n    pass\n")
    assert unseeded_settings(source) == [2, 8, 11]


def test_every_property_is_derandomized():
    # each tier-1 run draws the same examples
    found = {p.name: unseeded_settings(p.read_text()) for p in (ROOT / "tests").rglob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


def imported_test_modules(source: str) -> list:
    """The ``test_*`` modules that ``source`` imports, top-level imports first."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("test_")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("test_"):
            found.append(node.module)
    return found


def test_imported_test_modules_finds_each_import_of_a_test_module():
    source = ("import json, test_games\nfrom corpus import grid34\n"
              "from test_dynamics import seeded_spec\nimport test_routing.cases as r\n"
              "def f():\n    from test_cli import write_config\n"
              "import testing\nfrom contest_data import test_x\n")
    assert imported_test_modules(source) == [
        "test_games", "test_dynamics", "test_routing.cases", "test_cli"]


def test_no_test_module_imports_another():
    # a model or helper that several test modules share lives in tests/corpus.py
    found = {p.name: imported_test_modules(p.read_text()) for p in (ROOT / "tests").rglob("*.py")}
    assert {name: modules for name, modules in found.items() if modules} == {}
