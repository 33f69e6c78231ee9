"""Every module in src/dqw uses each name it imports, and the package reads
every private name it defines.

A standard-library stand-in for a linter's unused-import rule: parse each
module with `ast`, collect the names its import statements bind, and fail on
any that the module never reads.  `from __future__` imports and names the
module re-exports through `__all__` are exempt, and so is the package's
`__init__.py`, whose imports are the public re-export surface.

The unused-private-name rule is the same idea across the package: every
private module-level function, class or constant, and every private method,
defined in src/dqw must be read (as a name, an attribute or an imported
name) somewhere in src/dqw, so that a helper a consolidation leaves behind is
caught.  Dunder names are not private.

The packed-layout rule keeps `BiDiffOp`'s packed rows behind one module: no
module of src/dqw other than `bidiff.py` imports a private name from
`bidiff` or calls `BiDiffOp._unchecked`, so every other module builds its
operators through the checking constructor and reads them through the
public views.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions, classes and constants, and private
    methods, each with the line of its first definition."""
    defined: dict[str, int] = {}
    for node in tree.body:
        named: list[tuple[str, int]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            named.append((node.name, node.lineno))
        elif isinstance(node, ast.Assign):
            named += [(t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            named.append((node.target.id, node.lineno))
        if isinstance(node, ast.ClassDef):
            named += [
                (f.name, f.lineno)
                for f in node.body
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        for name, line in named:
            if _is_private(name):
                defined.setdefault(name, line)
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names and attributes, and the
    names its `from` imports take from other modules."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private name defined in one of the sources
    and read in none of them, sorted."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in read
    )


def _package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_package_reads_every_private_name():
    sources = _package_sources()
    assert unused_private_names(sources) == []
    defined = [private_definitions(ast.parse(text)) for text in sources.values()]
    assert sum(map(len, defined)) >= 80  # the rule has something to check


def test_stray_private_helper_is_caught():
    # negative control: the real source of a module plus one unread helper
    sources = _package_sources()
    sources["pbw.py"] += "\n\ndef _unused():\n    return 1\n"
    assert unused_private_names(sources) == ["pbw.py:_unused"]


def test_private_name_kinds():
    source = (
        "_LIMIT = 3\n"
        "_table: dict = {}\n"
        "def _helper():\n"
        "    return _LIMIT\n"
        "class _Box:\n"
        "    __slots__ = ()\n"
        "    def _method(self):\n"
        "        return self._other()\n"
        "    def _other(self):\n"
        "        return 1\n"
        "    def __repr__(self):\n"
        "        return ''\n"
    )
    # `_LIMIT` and `_other` are read inside the module; dunders are exempt
    assert unused_private_names({"m.py": source}) == [
        "m.py:_Box",
        "m.py:_helper",
        "m.py:_method",
        "m.py:_table",
    ]
    # a read in another module counts, under an import alias too
    other = "from m import _Box as B\nB()._method()\n_helper\n"
    assert unused_private_names({"m.py": source, "n.py": other}) == ["m.py:_table"]


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


def packed_layout_leaks(sources: dict[str, str]) -> list[str]:
    """`module:name` for each private name a module other than `bidiff.py`
    imports from `bidiff`, and each of its calls of `BiDiffOp._unchecked`,
    sorted."""
    leaks = []
    for module, text in sources.items():
        if module == "bidiff.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "bidiff":
                leaks += [f"{module}:{alias.name}" for alias in node.names if _is_private(alias.name)]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_unchecked"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "BiDiffOp"
            ):
                leaks.append(f"{module}:BiDiffOp._unchecked")
    return sorted(leaks)


def test_packed_layout_stays_in_bidiff():
    sources = _package_sources()
    assert packed_layout_leaks(sources) == []
    # the rule has something to check: bidiff's own calls, and the other
    # modules' imports from it
    assert "BiDiffOp._unchecked(" in sources["bidiff.py"]
    assert sum("from .bidiff import" in text for text in sources.values()) >= 3


def test_packed_layout_leak_is_caught():
    # negative control: the real source of a module plus a private import
    # and an unchecked build; `Polynomial._unchecked` stays allowed
    sources = _package_sources()
    sources["kontsevich.py"] += (
        "\nfrom .bidiff import _pack, pair_keys as keys\n"
        "op = BiDiffOp._unchecked(1, 0, ({}, 1, 0))\n"
        "p = Polynomial._unchecked(1, {})\n"
    )
    assert packed_layout_leaks(sources) == [
        "kontsevich.py:BiDiffOp._unchecked",
        "kontsevich.py:_pack",
    ]
