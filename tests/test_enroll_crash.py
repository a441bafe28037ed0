"""Crash safety of ``enroll``: the state save, then the records.

Enrollment writes two durable things: the hosting state (one atomic
``os.replace``) and the enrollment ledger (one locked append of every new
record). The record is the commit point, so a failure at either write
leaves no record naming a repository the state lacks, and a rerun heals
what the failed run left. Failures are injected in-process.
"""

from __future__ import annotations

import os
import shutil

import pytest

from courseforge.cli import dispatch
from courseforge.enrollment import EnrollmentLedger
from courseforge.ledger import JsonlLedger
from courseforge.repomodel import InMemoryHosting, is_ancestor, snapshot_to_dir
from util import course_yaml, solution_snapshot

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
    return InMemoryHosting.load_state(tmp_path / "state" / "hosting-state.json")


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


def test_enroll_roster_survives_a_crash_at_each_durable_write(tmp_path,
                                                              capsys,
                                                              monkeypatch):
    argv = _enroll_argv(tmp_path, _published(tmp_path, capsys), "roster")
    state = tmp_path / "state"
    start = tmp_path / "start"
    shutil.copytree(state, start)
    replace, append = os.replace, JsonlLedger.append
    writes: list[str] = []
    crash_at = -1

    def durable(kind, write):
        def wrapper(*args, **kwargs):
            writes.append(kind)
            if len(writes) - 1 == crash_at:
                raise Crash(f"crash at {kind} write {crash_at}")
            return write(*args, **kwargs)
        return wrapper

    def run_from_start(k: int) -> int:
        nonlocal crash_at
        shutil.rmtree(state)
        shutil.copytree(start, state)
        writes.clear()
        crash_at = k
        with monkeypatch.context() as m:
            m.setattr(os, "replace", durable("state", replace))
            m.setattr(JsonlLedger, "append", durable("ledger", append))
            rc, _ = _run(capsys, argv)
        return rc

    assert run_from_start(-1) == 0
    order = list(writes)
    expected = _outcome(tmp_path)
    assert [username for username, _, _ in expected[1]] == MEMBERS["roster"]

    for k in range(len(order)):
        assert run_from_start(k) == 2
        _assert_records_name_saved_repos(tmp_path)
        for ledger in state.glob("*.jsonl"):
            data = ledger.read_bytes()
            assert not data or data.endswith(b"\n"), ledger
        rc, out = _run(capsys, argv)
        assert rc == 0
        assert _last(out) == "RESULT ok cmd=enroll count=5"
        assert _outcome(tmp_path) == expected, f"crash at write {k}"
    # the state first, then every record in one append
    assert order == ["state", "ledger"]
