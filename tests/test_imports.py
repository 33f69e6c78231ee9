"""Every module in src/dqw uses each name it imports.

A standard-library stand-in for a linter's unused-import rule: parse each
module with `ast`, collect the names its import statements bind, and fail on
any that the module never reads.  `from __future__` imports and names the
module re-exports through `__all__` are exempt, and so is the package's
`__init__.py`, whose imports are the public re-export surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dqw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Names inside a quoted annotation such as `-> "Polynomial"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never read, sorted."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                args.vararg,
                args.kwarg,
            ]:
                if arg is not None:
                    used |= _annotation_names(arg.annotation)
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    unused = set(imported) - used - _exported(tree)
    return sorted(unused, key=lambda name: (imported[name], name))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_injected_unused_import_is_caught():
    # negative control: the real source of a module plus one stray import
    source = (SRC / "poly.py").read_text(encoding="utf-8")
    assert unused_imports(source + "\nfrom itertools import chain\n") == ["chain"]


def test_exemptions():
    source = (
        "from __future__ import annotations\n"
        "from fractions import Fraction\n"
        "import os.path\n"
        "from math import gcd as g\n"
        "from typing import Sequence\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return g(1, 2)\n"
    )
    assert unused_imports(source) == ["os"]
