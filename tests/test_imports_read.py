"""Every name a library module imports is read in that module.

An import that nothing reads costs a lookup at import time and misleads
the reader about what the module depends on.  ``ast`` collects the names
each ``import`` under ``src/splitclust/`` binds and the names the module
loads.  A name listed in ``__all__`` counts as read, which covers the
re-exports of ``__init__.py``; ``from __future__`` imports bind no name
and are exempt.  A module-level assignment to names that the module never
reads and does not list in ``__all__``, such as a ``TypeVar`` that no
annotation uses, keeps none of the names it loads alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "splitclust"
MODULES = sorted(PACKAGE.glob("*.py"))


def _loads(node: ast.AST) -> set[str]:
    """The names loaded anywhere inside node."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def unread_imports(source: str) -> list[str]:
    """The names the module's imports bind and nothing in it reads, sorted."""
    tree = ast.parse(source)
    read: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    loaded = _loads(tree)
    for node in tree.body:
        if not (
            isinstance(node, ast.Assign)
            and all(
                isinstance(t, ast.Name) and t.id not in loaded | read
                for t in node.targets
            )
        ):
            read |= _loads(node)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - read)


def test_modules_are_found():
    assert {"__init__.py", "graphs.py", "detect.py"} <= {p.name for p in MODULES}


def test_the_check_sees_unread_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re as regex\n"
        "from typing import TypeVar, Hashable\n"
        "from .graphs import BLUE\n"
        "__all__ = ['BLUE']\n"
        "V = TypeVar('V', bound=Hashable)\n"
    )
    assert unread_imports(source) == ["Hashable", "TypeVar", "os", "regex"]
    assert unread_imports(source + "print(V, os.sep, regex)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
