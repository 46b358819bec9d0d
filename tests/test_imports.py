"""Every name a critlab module imports is used in it, and every name it
exports exists.

An unused import is either dead weight left behind by a change, or a
re-export that callers look up on the module (the benchmark's tracer patches
some names where they are imported).  A re-export says so with
``# noqa: F401`` on its line; any other unused import fails here.  The
package's ``__init__.py`` imports nothing and is not checked.  Built on the
``ast`` module alone, as pyflakes does for its F401.

A re-export is kept only for the tracer: each must be a ``(module, name)``
that ``critbench/tracing.py`` wraps, so one the tracer stops wrapping fails
here as dead.

A name left in a module's ``__all__`` after its definition is gone fails
only ``from module import *``; the export check looks each one up.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

from test_tracing_boundaries import _boundaries

SRC = Path(__file__).resolve().parent.parent / "src" / "critlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, name)`` of each name a module imports, ``__future__`` aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    return imported


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each import in ``source`` whose name the module
    never reads and whose line has no ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in _imports(tree)
            if name not in used and "# noqa: F401" not in lines[line - 1]]


def reexports(source: str) -> list[str]:
    """The names ``source`` imports on a line marked ``# noqa: F401``."""
    lines = source.splitlines()
    return [name for line, name in _imports(ast.parse(source))
            if "# noqa: F401" in lines[line - 1]]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("import os\nimport sys\nfrom json import dumps, loads  # noqa: F401\n"
              "from math import inf\nprint(sys.argv, inf)\n")
    assert unused_imports(source) == [(1, "os")]
    assert reexports(source) == ["dumps", "loads"]


def test_every_reexport_is_a_traced_boundary():
    traced = {(owner.__name__, attr) for owner, attr, *_ in _boundaries()
              if isinstance(owner, ModuleType)}
    found = [(f"critlab.{path.stem}", name) for path in MODULES
             for name in reexports(path.read_text())]
    assert found
    assert [pair for pair in found if pair not in traced] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    module = importlib.import_module(f"critlab.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
