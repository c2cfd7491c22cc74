"""Every name a package module imports is used there, every private helper
is still called, and the package loads a module only when it is used.

An import kept only so that another module can patch or re-export it under
that name says so with `# noqa: F401` on its line. `__future__` imports are
skipped.

A function or class whose name starts with one underscore is private to the
package, so when no code in the package names it any more, the caller that
was deleted left it behind.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softbounds

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "softbounds"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom typing import Dict, List  # noqa: F401\nfrom x import y\ny()\n"
    assert unused_imports(source) == [(1, "os")]


def unreferenced_private(sources):
    """The (module, name) of each function or class, at any depth, whose name
    starts with one underscore and that no `Name` or `Attribute` node in any
    of `sources` (module name -> source text) refers to."""
    defined = set()
    referenced = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add((module, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_every_private_helper_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private(sources) == []


def test_an_unreferenced_helper_is_found():
    sources = {
        "a.py": "def _used():\n    pass\n\nclass _Left:\n    def _method(self):\n        pass\n",
        "b.py": "from a import _used\n_used()\n\ndef __getattr__(name):\n    pass\n",
    }
    assert unreferenced_private(sources) == [("a.py", "_Left"), ("a.py", "_method")]


# The names the package exported when its `__init__` imported every module,
# by the module that defines them.
EXPORTS = {
    "core": "INFINITY CapError ContractError Domain ParseError SolverError "
    "ValuationStructure Variable ominus oplus",
    "costfn": "AntiFunctionalNeq CostFunction ExtTable FunctionalEq FunctionOverlay "
    "LinPlus MonoLeq Spacer evaluate min_over_box min_over_box_pinned validate_semiconvex",
    "fileformat": "emit parse_path parse_text",
    "generators": "gen_random gen_satellite gen_spacerchain",
    "network": "Instance is_solution total_cost",
    "oracle": "OracleBudget brute_min_over_box brute_optimum naive_bac_fixpoint "
    "naive_bac_zero_fixpoint",
    "propagation": "AC_VALUE_CAP INF SUP ConsistencyReport PropState enforce_ac_star "
    "enforce_bac enforce_bac_zero enforce_nc narrow project_to_zero project_unary prune",
    "reify": "CrispNetwork compare_strength enforce_crisp_bc reify",
    "search": "SearchOptions SearchResult solve",
}
EXPORTED = sorted(name for names in EXPORTS.values() for name in names.split())


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_home_module_object(module):
    home = importlib.import_module(f"softbounds.{module}")
    for name in EXPORTS[module].split():
        assert getattr(softbounds, name) is getattr(home, name), name


def test_the_package_lists_every_export():
    assert len(EXPORTED) == 56
    assert sorted(softbounds.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(softbounds))
    namespace = {}
    exec("from softbounds import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED
    assert all(namespace[name] is getattr(softbounds, name) for name in EXPORTED)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        softbounds.no_such_name
    assert not hasattr(softbounds, "cli_main")


def _child(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_a_bare_import_loads_no_module_until_a_name_is_used():
    code, out, err = _child(
        "-c",
        "import sys, softbounds\n"
        "print(sorted(m for m in sys.modules if m.startswith('softbounds.')))\n"
        "print(softbounds.search.__name__, softbounds.search.solve is softbounds.solve)\n"
        "import softbounds.reify\n"
        "print(type(softbounds.reify).__name__, softbounds.reify.__module__)\n",
    )
    assert code == 0, err
    # Loading the module `reify` leaves the package's name `reify` on the function.
    assert out.splitlines() == ["[]", "softbounds.search True", "function softbounds.reify"]


def loaded_modules(stderr: str):
    """The `softbounds` modules named in the report of `-X importtime`."""
    names = (line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if "|" in line)
    return {name for name in names if name.startswith("softbounds.")}


@pytest.mark.parametrize(
    "command, loads",
    [("propagate", set()), ("solve", set()), ("verify", {"oracle"}), ("reify", {"reify"})],
)
def test_a_command_loads_the_oracle_and_reify_only_if_it_runs_them(tmp_path, command, loads):
    path = tmp_path / "pair.wcsp"
    path.write_text("wcsp pair\nk 5\nvar 0 0 3\nvar 1 0 3\nfun linplus 0 1 1 1 0\n")
    code, out, err = _child("-X", "importtime", "-m", "softbounds", command, str(path), "--json")
    assert code == 0, err
    assert out.startswith(f'{{"command": "{command}"')
    modules = loaded_modules(err)
    assert "softbounds.cli" in modules
    assert {m for m in ("oracle", "reify") if f"softbounds.{m}" in modules} == loads
