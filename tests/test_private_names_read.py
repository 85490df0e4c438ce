"""Every private name a library module defines at top level is read in the package.

A private helper that nothing reads is dead code: it still has to be kept
correct, and it misleads the reader about which checks run.  ``ast``
collects the private names (one leading underscore, not a dunder) that
each module under ``src/splitclust/`` binds at top level with ``def``,
``class`` or an assignment, and the names that the package loads, by name
or as an attribute.  A load inside the name's own definition, such as a
recursive call, does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitclust"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement binds by ``def``, ``class`` or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _loads(node: ast.AST) -> set[str]:
    """The names loaded inside node, as names or as attributes."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
    return found


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each top-level private name nothing else loads, sorted."""
    # (module, top-level statement, the names it loads), for every statement
    statements = [
        (module, node, _loads(node))
        for module, source in sources.items()
        for node in ast.parse(source).body
    ]
    unread = []
    for module, node, _ in statements:
        for name in filter(_is_private, _defined(node)):
            if not any(
                name in loads and other is not node for _, other, loads in statements
            ):
                unread.append(f"{module}:{name}")
    return sorted(unread)


def test_modules_are_found():
    assert {"__init__.py", "graphs.py", "multicut.py"} <= {p.name for p in MODULES}


def test_the_check_sees_unread_private_names():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _helper(x):\n    return x < _LIMIT\n"
            "def _recursive(x):\n    return _recursive(x - 1) if x else 0\n"
            "class _Dead:\n    pass\n"
            "def public():\n    return 1\n"
        ),
        "b": "from .a import _helper\n",
    }
    assert unread_private_names(sources) == [
        "a:_Dead",
        "a:_UNUSED",
        "a:_helper",
        "a:_recursive",
    ]
    sources["b"] += "_helper(1)\nprint(a._Dead, _UNUSED, _recursive)\n"
    assert unread_private_names(sources) == []


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unread_private_names(sources) == []
