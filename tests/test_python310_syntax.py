"""Every source file parses with the grammar of the oldest supported Python.

``pyproject.toml`` requires Python 3.10, so syntax that only a later
version accepts (``except*``, a starred subscript, ...) must not slip into
the package, its tests or the benchmark harness unseen on a newer
interpreter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SOURCES}
    assert {"src/courseforge/cli.py", "perfbench/run.py",
            "tests/test_python310_syntax.py"} <= names


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
