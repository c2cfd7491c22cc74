"""Every name a package module imports is used there, and every private
helper is still called.

An import kept only so that another module can patch or re-export it under
that name says so with `# noqa: F401` on its line. `__init__.py` is skipped,
as its imports are the package's re-exports, and so are `__future__` imports.

A function or class whose name starts with one underscore is private to the
package, so when no code in the package names it any more, the caller that
was deleted left it behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "softbounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
