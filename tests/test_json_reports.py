"""The documents ``grade --json`` writes, pinned byte for byte.

One course is graded under a fixed clock on four submissions: one that
passes, one that fails two tests, one that does not compile and one whose
repository lacks the latest template. Each document's text is compared
whole, key order and layout included. Only the test durations, which
differ from run to run, are masked. The failing submission exits with a
message of its own rather than a traceback, whose layout differs between
Python versions.
"""

from __future__ import annotations

import re
import time

from courseforge.cli import dispatch
from courseforge.config import load_config
from courseforge.repomodel import InMemoryHosting, snapshot_to_dir
from util import (
    SOLVED_COUNTER,
    course_yaml,
    solution_files,
    solution_snapshot,
    student_commit,
)

CLOCK = 1767225600.0

SUBMISSIONS = {
    "alice": SOLVED_COUNTER,
    "bob": SOLVED_COUNTER.replace(
        "return x * factor",
        'raise SystemExit(f"scale({x}, {factor}) is not written yet")'),
    "carol": "def increment(x)\n    return x + 1\n",
    "dave": SOLVED_COUNTER,
}

_PASSED = """\
    {
      "test_id": "<test>",
      "status": "PASS",
      "duration_wall": <s>,
      "duration_cpu": <s>,
      "detail": "",
      "exit_code": 0,
      "term_signal": null
    }"""

EXPECTED = {
    "alice": """\
{
  "task_id": "t1",
  "commit_id": "<head>",
  "earned": 1.0,
  "maximum": 1.0,
  "up_to_date": true,
  "messages": [],
  "outcomes": [
""" + ",\n".join(_PASSED.replace("<test>", t)
                 for t in ("mytest1", "mytest2", "hidden_prop")) + """
  ]
}
""",
    "bob": """\
{
  "task_id": "t1",
  "commit_id": "<head>",
  "earned": 0.625,
  "maximum": 1.0,
  "up_to_date": true,
  "messages": [
    "You forgot to consider this particular case"
  ],
  "outcomes": [
""" + _PASSED.replace("<test>", "mytest1") + """,
    {
      "test_id": "mytest2",
      "status": "FAIL",
      "duration_wall": <s>,
      "duration_cpu": <s>,
      "detail": "scale(6, 7) is not written yet\\n",
      "exit_code": 1,
      "term_signal": null
    },
    {
      "test_id": "hidden_prop",
      "status": "FAIL",
      "duration_wall": <s>,
      "duration_cpu": <s>,
      "detail": "scale(-3, -3) is not written yet\\n",
      "exit_code": 1,
      "term_signal": null
    }
  ]
}
""",
    "carol": """\
{
  "task_id": "t1",
  "commit_id": "<head>",
  "earned": 0.0,
  "maximum": 1.0,
  "up_to_date": true,
  "messages": [],
  "outcomes": [
    {
      "test_id": "compile",
      "status": "ERROR",
      "duration_wall": <s>,
      "duration_cpu": null,
      "detail": "*** Error compiling './counter.py'...\\n  File \\"./counter.py\\", \
line 1\\n    def increment(x)\\n                    ^\\nSyntaxError: expected ':'\\n\\n",
      "exit_code": null,
      "term_signal": null
    }
  ]
}
""",
    "dave": """\
{
  "task_id": "t1",
  "commit_id": "<head>",
  "earned": 0.0,
  "maximum": 1.0,
  "up_to_date": false,
  "messages": [
    "Your repository does not contain the latest template commit (<template>). \
Integrate the update, then push and submit again:\\n    git fetch template\\n    \
git merge template/main\\nResolve any conflicts, commit, and push before \
resubmitting."
  ],
  "outcomes": []
}
""",
}


def _mask(text: str) -> str:
    return re.sub(r'("duration_(?:wall|cpu)": )[-+.e0-9]+', r"\1<s>", text)


def _dispatch(capsys, argv: list[str]) -> None:
    rc = dispatch(argv)
    _, err = capsys.readouterr()
    assert rc == 0, err


def test_grade_json_documents_keep_their_text(tmp_path, capsys, monkeypatch):
    # dave enrolls before the template's second version and never merges it,
    # so his submission is stale; the other three enroll on that version
    monkeypatch.setattr(time, "time", lambda: CLOCK)
    config_path = tmp_path / "course.yaml"
    config_path.write_text(course_yaml(), encoding="utf-8")
    config = ["--config", str(config_path)]
    solution = tmp_path / "solution"
    snapshot_to_dir(solution_snapshot(), solution)
    _dispatch(capsys, ["publish", *config, "--teacher-dir", str(solution)])
    _dispatch(capsys, ["enroll", *config, "--user", "dave"])
    revised = solution_files()
    revised["README.md"] += b"\nRevision 2.\n"
    snapshot_to_dir(solution_snapshot().with_files(revised), solution)
    _dispatch(capsys, ["publish", *config, "--teacher-dir", str(solution)])
    roster = tmp_path / "roster.txt"
    roster.write_text("alice\nbob\ncarol\n", encoding="utf-8")
    _dispatch(capsys, ["enroll", *config, "--roster", str(roster)])

    state = tmp_path / "state" / "hosting-state.json"
    hosting = InMemoryHosting.load_state(state)
    heads = {user: student_commit(hosting, load_config(config_path), user,
                                  {"counter.py": counter.encode()},
                                  timestamp=1767229200)
             for user, counter in SUBMISSIONS.items()}
    hosting.save_state(state)
    template = hosting.fetch("cs101-template", "coursebot").head()

    documents, expected = {}, {}
    for user, head in heads.items():
        report = tmp_path / f"{user}.json"
        _dispatch(capsys, ["grade", *config, "--user", user, "--task", "t1",
                           "--json", str(report)])
        documents[user] = _mask(report.read_text(encoding="utf-8"))
        expected[user] = EXPECTED[user].replace("<head>", head) \
            .replace("<template>", template[:12])
    assert documents == expected
