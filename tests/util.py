"""Shared fixtures: a tiny Python course, hosting setup, scripted executors.

The course has one task (t1) graded by two weighted tests plus one hidden,
weight-zero property test. Graded tests are plain scripts run as
subprocesses; exit status zero means pass. All hosting flows run against
the in-memory backend.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from courseforge.config import CourseConfig, parse_config
from courseforge.enrollment import enroll
from courseforge.executor import RawResult, TestStatus
from courseforge.grader import GradeLedger, GradeRecord
from courseforge.publisher import PublishResult, publish_template
from courseforge.repomodel import (
    Commit,
    HostingService,
    InMemoryHosting,
    Repo,
    Snapshot,
    in_memory_hosting,
    walk,
)
from merging import merge

PYTHON = sys.executable


def course_yaml(extra: str = "") -> str:
    compile_cmd = json.dumps([PYTHON, "-m", "compileall", "-q", "."])
    test_cmd = json.dumps([PYTHON, "tests/{test_id}.py"])
    return f"""\
course_id: cs101
bot_account: coursebot
timezone: UTC
state_dir: state
teacher_only_paths:
  - "tests/hidden_*.py"
  - "tasks/**"
replaced_paths:
  - "tests/**"
archive_paths:
  - "*.py"
sensitive_patterns:
  - "secrets/**"
tasks:
  - id: t1
    manifest: tasks/t1.yaml
executor:
  compile_command: {compile_cmd}
  test_command: {test_cmd}
{extra}"""


def make_config(tmp_path, extra: str = "") -> CourseConfig:
    return parse_config(course_yaml(extra), source="<test>", base_dir=tmp_path)


_TEST_PREAMBLE = """\
import os
import sys

sys.path.insert(0, os.getcwd())

"""

SOLUTION_COUNTER = """\
def increment(x):
    # STUDENT raise NotImplementedError("increment")
    # BEGIN STRIP
    return x + 1
    # END STRIP


def scale(x, factor):
    # STUDENT raise NotImplementedError("scale")
    # BEGIN STRIP
    return x * factor
    # END STRIP
"""

SOLVED_COUNTER = """\
def increment(x):
    return x + 1


def scale(x, factor):
    return x * factor
"""

MANIFEST_T1 = """\
suite_max: 1
tests:
  - id: mytest1
    weight: 5
    cpu_timeout: 10
    forbidden: [threading]
  - id: mytest2
    weight: 3
    feedback_on_fail: "You forgot to consider this particular case"
  - id: hidden_prop
    weight: 0
"""


def solution_files() -> dict[str, bytes]:
    return {
        "counter.py": SOLUTION_COUNTER.encode(),
        "tests/mytest1.py": (
            _TEST_PREAMBLE
            + "from counter import increment\n\n"
            + "assert increment(3) == 4\nassert increment(-1) == 0\n"
        ).encode(),
        "tests/mytest2.py": (
            _TEST_PREAMBLE
            + "from counter import scale\n\n"
            + "assert scale(6, 7) == 42\nassert scale(0, 9) == 0\n"
        ).encode(),
        "tests/hidden_prop.py": (
            _TEST_PREAMBLE
            + "from counter import increment, scale\n\n"
            + "assert increment(10 ** 6) == 10 ** 6 + 1\n"
            + "assert scale(-3, -3) == 9\n"
        ).encode(),
        "tasks/t1.yaml": MANIFEST_T1.encode(),
        "README.md": b"# cs101 exercises\n\nFill in counter.py.\n",
        "logo.bin": bytes(range(256)),
    }


def solution_snapshot() -> Snapshot:
    return Snapshot(solution_files())


class ScriptedExecutor:
    """Executor double: canned results per test id, every call recorded."""

    def __init__(self, compile_ok: bool = True, compile_message: str = "",
                 results: dict[str, TestStatus] | None = None,
                 default_status: TestStatus = TestStatus.PASS):
        self.compile_ok = compile_ok
        self.compile_message = compile_message
        self.results = dict(results or {})
        self.default_status = default_status
        self.compile_calls: list[str] = []
        self.test_calls: list[str] = []

    def compile(self, workdir):
        self.compile_calls.append(str(workdir))
        return self.compile_ok, self.compile_message

    def run_test(self, workdir, test_id, cpu_timeout, wall_timeout, *,
                 started=None):
        self.test_calls.append(test_id)
        if started is not None:
            started()
        status = self.results.get(test_id, self.default_status)
        exit_code = 0 if status is TestStatus.PASS else 1
        return RawResult(status, exit_code, None, 0.01, 0.02,
                         f"{test_id}: scripted {status.name}")


def setup_course(hosting: HostingService, config: CourseConfig,
                 snapshot: Snapshot | None = None,
                 executor=None, timestamp: int | None = None) -> PublishResult:
    """Create teacher and template repos, import the solution, publish."""
    if snapshot is None:
        snapshot = solution_snapshot()
    hosting.create_repo(config.teacher_repo_name, config.bot_account, "private")
    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    head = teacher.head()
    c = Commit.create(() if head is None else (head,), snapshot,
                      "Update solution" if head else "Import solution",
                      config.bot_account,
                      timestamp if timestamp is not None else int(time.time()))
    hosting.push(config.teacher_repo_name, config.bot_account,
                 teacher.default_branch, c)
    hosting.create_repo(config.template_repo_name, config.bot_account, "public")
    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    return publish_template(hosting, teacher, template, config,
                            executor or ScriptedExecutor(),
                            timestamp=timestamp)


def push_root(hosting: HostingService, name: str, owner: str,
              snapshot: Snapshot, message: str, author: str,
              timestamp: int) -> str:
    """Make a repository's first commit; returns its id."""
    c = Commit.create((), snapshot, message, author, timestamp)
    hosting.push(name, owner, "main", c)
    return c.commit_id


def student_commit(hosting: HostingService, config: CourseConfig,
                   username: str, updates: dict[str, bytes],
                   message: str = "Work", drop: tuple[str, ...] = (),
                   timestamp: int | None = None) -> str:
    """Commit file updates onto a student repository; returns the new head."""
    repo_name = f"{config.course_id}-{username}"
    repo = hosting.fetch(repo_name, config.bot_account)
    head = repo.head()
    snap = repo.get_commit(head).snapshot.without(drop).with_files(updates)
    c = Commit.create((head,), snap, message, username,
                      timestamp if timestamp is not None else int(time.time()))
    hosting.push(repo_name, config.bot_account, repo.default_branch, c)
    return c.commit_id


def merge_template_update(hosting: HostingService, config: CourseConfig,
                          username: str, timestamp: int | None = None) -> str:
    """Replay 'git fetch template && git merge' for one student repository."""
    repo_name = f"{config.course_id}-{username}"
    clone = hosting.fetch(repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    template_head = template.head()
    for c in walk(template, template_head):
        if c.commit_id not in clone.commits:
            clone.add_commit(c)
    merged = merge(clone, clone.default_branch, template_head, username,
                   timestamp=timestamp)
    hosting.push(repo_name, config.bot_account, clone.default_branch,
                 *walk(clone, merged.commit_id))
    return merged.commit_id


def repo_snapshot(repo: Repo) -> Snapshot:
    return repo.head_commit().snapshot


def utc(y: int, m: int, d: int, hour: int = 0, minute: int = 0) -> int:
    return int(datetime(y, m, d, hour, minute, tzinfo=timezone.utc).timestamp())


def build_week_fixture(tmp_path) -> tuple[CourseConfig, InMemoryHosting,
                                          GradeLedger]:
    """A two-student week of activity with hand-checkable statistics.

    Timeline (UTC):
      Mar 1: course published, alice and bob enroll        (setup noise)
      Mar 2: bob commits once, alice commits twice
      Mar 3: teacher publishes an update; alice merges it; the merge
             commit is graded
      Mar 4: bob commits once more and that commit is graded
      Mar 5-8: silence

    Over Mar 2..Mar 8 with two repositories the per-repo averages are:
      Mar 2 -> total 1.5 (three work commits)
      Mar 3 -> total 0.5 (the template update in alice's history),
               graded 0.5, merges 0.5 (her merge, excluded from totals)
      Mar 4 -> total 0.5, graded 0.5
      Mar 5..8 -> all zeros
    """
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=utc(2026, 3, 1, 12))
    enroll(hosting, "alice", config, timestamp=utc(2026, 3, 1, 13))
    enroll(hosting, "bob", config, timestamp=utc(2026, 3, 1, 13, 30))

    student_commit(hosting, config, "bob", {"counter.py": b"# try\n"},
                   timestamp=utc(2026, 3, 2, 9))
    student_commit(hosting, config, "alice", {"counter.py": b"# a1\n"},
                   timestamp=utc(2026, 3, 2, 10))
    student_commit(hosting, config, "alice", {"counter.py": b"# a2\n"},
                   timestamp=utc(2026, 3, 2, 14))

    updated = solution_snapshot().with_files({"README.md": b"# rev 2\n"})
    setup_course(hosting, config, snapshot=updated,
                 timestamp=utc(2026, 3, 3, 9))
    merge_head = merge_template_update(hosting, config, "alice",
                                       timestamp=utc(2026, 3, 3, 10))

    final = student_commit(hosting, config, "bob",
                           {"counter.py": SOLVED_COUNTER.encode()},
                           timestamp=utc(2026, 3, 4, 11))

    ledger = GradeLedger(Path(config.state_dir) / "grades.jsonl")
    ledger.append(GradeRecord("alice", "t1", merge_head, 1.0, 1.0, True,
                              utc(2026, 3, 3, 11)))
    ledger.append(GradeRecord("bob", "t1", final, 1.0, 1.0, True,
                              utc(2026, 3, 4, 12)))
    return config, hosting, ledger
