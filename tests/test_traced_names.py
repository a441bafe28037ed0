"""The names the benchmark tracer wraps still exist where it looks for them.

``perfbench/tracer.py`` skips a name the program no longer defines, so a
rename would drop its per-layer metric without an error. The tracer's
``WRAPPED`` table is read from its source, without running it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import courseforge.cli  # noqa: F401  (the tracer relies on it loading every module)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrapped() -> dict[str, list[str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no WRAPPED table")


def test_every_traced_name_is_defined_by_its_owner():
    wrapped = _wrapped()
    assert wrapped
    missing = []
    for short, names in wrapped.items():
        module = sys.modules.get(f"courseforge.{short}")
        for dotted in names:
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            # tracer.install wraps only what vars() of the owner holds
            if owner is None or attr not in vars(owner):
                missing.append(f"{short}.{dotted}")
    assert missing == []
