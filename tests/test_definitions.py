"""Every function, method and class in src/dqw is used somewhere.

A standard-library stand-in for a linter's unused-definition rule: parse
every module under `src/`, `tests/` and `perfbench/` with `ast`, and fail
on any definition in `src/dqw` whose name is never referenced outside its
own body.  A reference is a name, an attribute, or a string that is an
identifier or a dotted path of identifiers, because the benchmark's tracer
and the tests patch functions by name (`(dkon, "graph_to_operator", ...)`,
`monkeypatch.setattr(dqw.cli, "parse_graph", ...)`).  A recursive call
inside the definition's own body does not count.  Dunder methods, which
Python calls itself, are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dqw"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute and identifier string."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.end_lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.extend((part, node.lineno) for part in parts)
    return out


def _definitions(tree: ast.Module):
    """(qualified name, name, first line, last line) of every definition,
    nested ones included."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                qualified = prefix + child.name
                yield qualified, child.name, child.lineno, child.end_lineno
                yield from walk(child, qualified + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def unused_definitions(checked: dict[str, str], sources: dict[str, str]) -> list[str]:
    """"file:qualified name" of each definition in `checked` (file -> source)
    that neither `checked` nor `sources` references outside its own body."""
    refs = {name: _references(ast.parse(text)) for name, text in {**sources, **checked}.items()}
    counts = Counter(name for found in refs.values() for name, _ in found)
    unused = []
    for path, text in checked.items():
        for qualified, name, first, last in _definitions(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = sum(1 for ref, line in refs[path] if ref == name and first <= line <= last)
            if counts[name] == inside:
                unused.append(f"{path}:{qualified}")
    return unused


def _read(paths) -> dict[str, str]:
    return {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in paths}


def scanned_sources() -> tuple[dict[str, str], dict[str, str]]:
    """(the src/dqw modules, every other module under the scanned roots)."""
    checked = _read(sorted(SRC.glob("*.py")))
    others = _read(p for root in SCANNED for p in sorted(root.rglob("*.py")))
    return checked, {k: v for k, v in others.items() if k not in checked}


def test_every_definition_is_referenced():
    checked, others = scanned_sources()
    assert unused_definitions(checked, others) == []


def test_injected_unused_definition_is_caught():
    # negative control: the real source of a module plus one stray function
    checked, others = scanned_sources()
    key = "src/dqw/poly.py"
    checked[key] += "\n\ndef never_called(x):\n    return never_called(x - 1) if x else 0\n"
    assert unused_definitions(checked, others) == [f"{key}:never_called"]


def test_reference_kinds_and_exemptions():
    checked = {
        "m.py": (
            "class Kept:\n"
            "    def __repr__(self):\n"
            "        return ''\n"
            "    def by_attribute(self):\n"
            "        return 1\n"
            "    def dropped(self):\n"
            "        return self.dropped()\n"
            "def by_string():\n"
            "    pass\n"
            "def by_dotted_string():\n"
            "    pass\n"
            "def outer():\n"
            "    def inner():\n"
            "        pass\n"
            "    return inner\n"
        )
    }
    sources = {
        "t.py": (
            "import m\n"
            "m.Kept().by_attribute()\n"
            "setattr(m, 'by_string', None)\n"
            "patch('m.by_dotted_string')\n"
            "m.outer()\n"
            "# a docstring that names 'dropped' as prose is not a reference\n"
            "'''calls dropped() here'''\n"
        )
    }
    assert unused_definitions(checked, sources) == ["m.py:Kept.dropped"]
