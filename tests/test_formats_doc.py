"""The JSON examples in formats.md list the fields of the types they show.

The ``--json`` documents are written from dataclasses, so a field added to
one of them is a new key; it must then appear in the documented example,
in its place.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from courseforge.analytics import ActivitySeries
from courseforge.grader import GradeReport, TestOutcome

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _json_example(section: str):
    """The first JSON example under a level-2 heading of formats.md."""
    text = FORMATS.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n"):]
    body = body[:body.find("\n## ", 1)]
    return json.loads(body.split("```json\n", 1)[1].split("```", 1)[0])


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def test_grade_report_example_lists_the_fields_in_order():
    report = _json_example("Grade report (JSON)")
    assert list(report) == _names(GradeReport)
    assert [list(o) for o in report["outcomes"]] == [_names(TestOutcome)]


def test_stats_example_lists_the_fields_in_order():
    stats = _json_example("Activity statistics (JSON)")
    assert list(stats) == ["activity", "grade_progress"]
    assert [list(row) for row in stats["activity"]] == [_names(ActivitySeries)]
