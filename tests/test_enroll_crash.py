"""Crash safety of ``enroll``, ``publish --teacher-dir`` and ``grade``.

Enrollment writes two durable things: the hosting state (one atomic
``os.replace``) and the enrollment ledger (one locked append of every new
record). The record is the commit point, so a failure at either write
leaves no record naming a repository the state lacks, and a rerun heals
what the failed run left. ``publish`` makes one durable write, the state
``os.replace``; ``grade`` makes two, the grade-ledger append and then the
archive rename. Each command is run once per durable write, failing at
that write, and must leave state that loads, ledgers without a torn line
and no archived submission without a grade record; a rerun then ends
``RESULT ok`` with what an uninterrupted run leaves. Failures are injected
in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import pytest

from courseforge.cli import dispatch
from courseforge.config import load_config
from courseforge.enrollment import EnrollmentLedger
from courseforge.grader import GradeLedger
from courseforge.ledger import JsonlLedger
from courseforge.repomodel import (
    InMemoryHosting,
    in_memory_hosting,
    is_ancestor,
    snapshot_to_dir,
)
from util import SOLVED_COUNTER, course_yaml, solution_snapshot, student_commit

ROSTER = "alice\nbob\npair: carol dave\nerin\n"
MEMBERS = {"user": ["alice"],
           "roster": ["alice", "bob", "carol", "dave", "erin"]}


class Crash(Exception):
    """The injected failure."""


def _run(capsys, argv):
    rc = dispatch(argv)
    out, _ = capsys.readouterr()
    return rc, out


def _last(out: str) -> str:
    return out.strip().splitlines()[-1]


def _published(tmp_path, capsys) -> str:
    """Publish a course and write its roster; returns the config path."""
    config_path = tmp_path / "course.yaml"
    config_path.write_text(course_yaml(), encoding="utf-8")
    snapshot_to_dir(solution_snapshot(), tmp_path / "solution")
    rc, _ = _run(capsys, ["publish", "--config", str(config_path),
                          "--teacher-dir", str(tmp_path / "solution")])
    assert rc == 0
    (tmp_path / "roster.txt").write_text(ROSTER, encoding="utf-8")
    return str(config_path)


def _enroll_argv(tmp_path, config_path: str, how: str) -> list[str]:
    who = ["--user", "alice"] if how == "user" \
        else ["--roster", str(tmp_path / "roster.txt")]
    return ["enroll", "--config", config_path, *who]


def _state(tmp_path) -> InMemoryHosting:
    path = tmp_path / "state" / "hosting-state.json"
    # no state file is the state of a course never saved
    return InMemoryHosting.load_state(path) if path.exists() \
        else in_memory_hosting()


def _records(tmp_path):
    return EnrollmentLedger(tmp_path / "state" / "enrollment.jsonl").records()


def _assert_records_name_saved_repos(tmp_path) -> None:
    """Every record's repository exists and descends from its template."""
    hosting = _state(tmp_path)
    repos = {r.name: r for r in hosting.list_repos()}
    for record in _records(tmp_path):
        assert record.repo_name in repos, record
        repo = repos[record.repo_name]
        assert is_ancestor(repo, record.template_commit, repo.head())


def _outcome(tmp_path):
    """Repositories, collaborators and records, apart from timestamps."""
    repos = {}
    for repo in _state(tmp_path).list_repos():
        head = repo.head_commit()
        repos[repo.name] = (repo.visibility, sorted(repo.collaborators),
                            len(repo.commits), head.message, head.parents,
                            head.snapshot)
    records = [(r.username, r.repo_name, r.template_commit)
               for r in _records(tmp_path)]
    return repos, records


@pytest.mark.parametrize("how", ["user", "roster"])
def test_failed_state_save_leaves_no_record(tmp_path, capsys, monkeypatch,
                                            how):
    config_path = _published(tmp_path, capsys)
    argv = _enroll_argv(tmp_path, config_path, how)

    def failing_save(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(InMemoryHosting, "save_state", failing_save)
    rc, out = _run(capsys, argv)
    assert rc == 2
    assert _last(out) == "RESULT error cmd=enroll code=2 reason=io"
    monkeypatch.undo()
    _assert_records_name_saved_repos(tmp_path)

    rc, out = _run(capsys, argv)
    assert rc == 0
    assert out.startswith("enrolled alice -> cs101-alice")
    rc, out = _run(capsys, ["grade", "--config", config_path,
                            "--user", "alice", "--task", "t1"])
    assert rc == 0, out
    assert _last(out).startswith("RESULT ok cmd=grade user=alice")


@pytest.mark.parametrize("how", ["user", "roster"])
def test_failed_record_append_is_healed_by_a_rerun(tmp_path, capsys,
                                                   monkeypatch, how):
    argv = _enroll_argv(tmp_path, _published(tmp_path, capsys), how)

    def failing_append(self, *records):
        raise OSError("disk full")

    monkeypatch.setattr(JsonlLedger, "append", failing_append)
    rc, _ = _run(capsys, argv)
    assert rc == 2
    monkeypatch.undo()
    assert _records(tmp_path) == []
    saved = {r.name: r for r in _state(tmp_path).list_repos()}
    assert "cs101-alice" in saved  # the state save came first

    rc, _ = _run(capsys, argv)
    assert rc == 0
    records = _records(tmp_path)
    assert [r.username for r in records] == MEMBERS[how]  # each once
    hosting = _state(tmp_path)
    for record in records:
        repo = hosting.fetch(record.repo_name, "coursebot")
        # the rerun adds no second enrollment commit
        assert set(repo.commits) == set(saved[record.repo_name].commits)
        assert repo.head_commit().message.startswith("Enroll ")
        assert record.template_commit == repo.head_commit().parents[0]


# Every durable write a command may make, by the call that makes it.
DURABLE_WRITES = {"state": (os, "replace"), "ledger": (JsonlLedger, "append"),
                  "archive": (os, "rename")}


def _grades(tmp_path):
    return GradeLedger(tmp_path / "state" / "grades.jsonl").records()


def _assert_consistent(tmp_path) -> None:
    """The state loads, every record names a saved repository, no ledger
    ends in a torn line and every archived submission has a grade record."""
    _assert_records_name_saved_repos(tmp_path)
    state = tmp_path / "state"
    for ledger in state.glob("*.jsonl"):
        data = ledger.read_bytes()
        assert not data or data.endswith(b"\n"), ledger
    graded = {(r.task_id, r.username, r.commit_id) for r in _grades(tmp_path)}
    for meta in state.glob("archive/*/*/*/meta.json"):
        doc = json.loads(meta.read_text(encoding="utf-8"))
        assert (doc["task_id"], doc["username"], doc["commit_id"]) in graded


def _crash_outcome(tmp_path):
    """What a run leaves, apart from timestamps. A rerun of ``grade`` after
    a failed archive appends a second, equal record, so grade records are
    compared as a set. Every directory in the archive store counts, so a
    staging copy (``*.tmp``) a failed archive left shows as a difference."""
    repos, records = _outcome(tmp_path)
    grades = {(r.username, r.task_id, r.commit_id, r.earned, r.maximum,
               r.authoritative) for r in _grades(tmp_path)}
    archived = sorted(str(p.relative_to(tmp_path / "state"))
                      for p in (tmp_path / "state").glob("archive/*/*/*"))
    return repos, records, grades, archived


def _crash_at_each_write(tmp_path, capsys, monkeypatch, argv) -> list[str]:
    """Run ``argv`` from the state as it is now, failing at each of its
    durable writes in turn, and check what each failed run leaves and that
    a rerun heals it. Returns the writes of an uninterrupted run."""
    state = tmp_path / "state"
    start = tmp_path / "start"
    state.mkdir(exist_ok=True)
    shutil.copytree(state, start)
    writes: list[str] = []
    crash_at = -1

    def durable(kind, write):
        def wrapper(*args, **kwargs):
            writes.append(kind)
            if len(writes) - 1 == crash_at:
                raise Crash(f"crash at {kind} write {crash_at}")
            return write(*args, **kwargs)
        return wrapper

    def run_from_start(k: int) -> tuple[int, str]:
        nonlocal crash_at
        shutil.rmtree(state)
        shutil.copytree(start, state)
        writes.clear()
        crash_at = k
        with monkeypatch.context() as m:
            for kind, (owner, name) in DURABLE_WRITES.items():
                m.setattr(owner, name, durable(kind, getattr(owner, name)))
            return _run(capsys, argv)

    rc, out = run_from_start(-1)
    assert rc == 0, out
    order, result = list(writes), _last(out).split()[:4]
    expected = _crash_outcome(tmp_path)
    for k in range(len(order)):
        assert run_from_start(k)[0] == 2
        _assert_consistent(tmp_path)
        rc, out = _run(capsys, argv)
        assert rc == 0
        assert _last(out).split()[:4] == result
        assert _crash_outcome(tmp_path) == expected, f"crash at write {k}"
    return order


def test_enroll_roster_survives_a_crash_at_each_durable_write(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    argv = _enroll_argv(tmp_path, _published(tmp_path, capsys), "roster")
    order = _crash_at_each_write(tmp_path, capsys, monkeypatch, argv)
    records = _records(tmp_path)
    assert [r.username for r in records] == MEMBERS["roster"]
    # the state first, then every record in one append
    assert order == ["state", "ledger"]


@pytest.mark.parametrize("course", ["new", "changed"])
def test_publish_survives_a_crash_at_each_durable_write(tmp_path, capsys,
                                                        monkeypatch, course):
    config_path = tmp_path / "course.yaml"
    config_path.write_text(course_yaml(), encoding="utf-8")
    solution = tmp_path / "solution"
    snapshot_to_dir(solution_snapshot(), solution)
    argv = ["publish", "--config", str(config_path),
            "--teacher-dir", str(solution)]
    # the template commit's message names the solution commit, whose id
    # holds the time of the import
    monkeypatch.setattr(time, "time", lambda: 1767225600.0)
    if course == "changed":
        assert _run(capsys, argv)[0] == 0
        assert _run(capsys, ["enroll", "--config", str(config_path),
                             "--user", "alice"])[0] == 0
        (solution / "README.md").write_text("# rev 2\n", encoding="utf-8")
    order = _crash_at_each_write(tmp_path, capsys, monkeypatch, argv)
    template = _state(tmp_path).fetch("cs101-template", "coursebot")
    assert len(template.commits) == (1 if course == "new" else 2)
    assert order == ["state"]


def _graded_alice(tmp_path, capsys) -> tuple[str, list[str]]:
    """A course whose student alice has pushed a solution; returns its
    head commit and the argv that grades it."""
    config_path = _published(tmp_path, capsys)
    assert _run(capsys, _enroll_argv(tmp_path, config_path, "user"))[0] == 0
    hosting = _state(tmp_path)
    head = student_commit(hosting, load_config(config_path), "alice",
                          {"counter.py": SOLVED_COUNTER.encode()},
                          timestamp=1700000500)
    hosting.save_state(tmp_path / "state" / "hosting-state.json")
    return head, ["grade", "--config", config_path, "--user", "alice",
                  "--task", "t1"]


def test_grade_survives_a_crash_at_each_durable_write(tmp_path, capsys,
                                                      monkeypatch):
    head, argv = _graded_alice(tmp_path, capsys)
    order = _crash_at_each_write(tmp_path, capsys, monkeypatch, argv)
    assert {(r.commit_id, r.earned) for r in _grades(tmp_path)} \
        == {(head, 1.0)}
    # the grade record first, then the archive
    assert order == ["ledger", "archive"]


def test_an_interrupted_archive_leaves_nothing_to_export(tmp_path, capsys,
                                                         monkeypatch):
    head, argv = _graded_alice(tmp_path, capsys)

    def interrupted(src, dst):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(os, "rename", interrupted)
        with pytest.raises(KeyboardInterrupt):
            dispatch(argv)
    capsys.readouterr()
    _assert_consistent(tmp_path)
    user_dir = tmp_path / "state" / "archive" / "t1" / "alice"
    assert list(user_dir.iterdir()) == []
    rc, out = _run(capsys, ["archive-export", "--config", argv[2],
                            "--task", "t1", "--dest", str(tmp_path / "out")])
    assert rc == 0
    assert _last(out) == "RESULT ok cmd=archive-export task=t1 students=0"
    # a rerun archives the submission once, under its key
    assert _run(capsys, argv)[0] == 0
    assert [p.name for p in user_dir.iterdir()] == [head]
