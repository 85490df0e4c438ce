"""Every Python file parses under the oldest supported grammar.

``pyproject.toml`` asks for Python 3.10 or later.  ``ast.parse`` with
``feature_version=(3, 10)`` rejects syntax that 3.10 lacks, such as
``except*`` groups, so this checks the grammar on any newer interpreter.
It checks no standard library API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def test_sources_are_found():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {
        "src",
        "tests",
        "demos",
        "perfbench",
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
