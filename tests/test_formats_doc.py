"""The examples in formats.md hold for the code.

The ``--json`` documents are written from dataclasses, so a field added to
one of them is a new key; it must then appear in the documented example,
in its place. The YAML examples load with the parsers they document.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from courseforge.analytics import ActivitySeries
from courseforge.config import parse_config
from courseforge.grader import GradeReport, TestOutcome, parse_manifest

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"


def _example(section: str, lang: str) -> str:
    """The first ``lang`` example under a level-2 heading of formats.md."""
    text = FORMATS.read_text(encoding="utf-8")
    body = text[text.index(f"\n## {section}\n"):]
    body = body[:body.find("\n## ", 1)]
    return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _json_example(section: str):
    return json.loads(_example(section, "json"))


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


def test_the_configuration_example_loads(tmp_path):
    config = parse_config(_example("Course configuration (YAML)", "yaml"),
                          base_dir=tmp_path)
    assert config.course_id == "cs101"
    assert [t.task_id for t in config.tasks] == ["t1"]


def test_the_manifest_example_loads():
    manifest = parse_manifest(_example("Grade manifest (YAML)", "yaml"))
    assert [t.depends_on for t in manifest.tests][-1] \
        == manifest.tests[0].test_id
