"""Enrollment: repo provisioning, idempotency, groups, rosters, the ledger."""

from __future__ import annotations

import json
import threading

import pytest

from courseforge.enrollment import (
    EnrollmentError,
    EnrollmentLedger,
    EnrollmentRecord,
    enroll,
    enroll_group,
    enroll_roster,
    parse_roster,
    RosterEntry,
    student_repo_name,
)
from courseforge.grader import check_up_to_date
from courseforge.repomodel import (
    in_memory_hosting,
    is_ancestor,
    repo_to_doc,
    walk,
)
from util import (
    make_config,
    merge_template_update,
    push_root,
    setup_course,
    solution_snapshot,
    student_commit,
)


def _course(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=1700000000)
    return config, hosting


def test_enroll_provisions_private_repo_from_template(tmp_path):
    config, hosting = _course(tmp_path)
    record = enroll(hosting, "alice", config, timestamp=1700000100)

    assert record.username == "alice"
    assert record.repo_name == "cs101-alice"
    assert record.created_at == 1700000100
    assert student_repo_name(config, "alice") == "cs101-alice"

    template = hosting.fetch(config.template_repo_name, config.bot_account)
    student = hosting.fetch("cs101-alice", config.bot_account)
    assert student.visibility == "private"
    assert student.owner == "coursebot"
    assert student.collaborators == {"alice"}

    head = student.head_commit()
    assert head.message == "Enroll alice"
    assert head.author == "coursebot"
    assert head.parents == (template.head(),)
    assert head.snapshot == template.head_commit().snapshot
    assert record.template_commit == template.head()
    assert is_ancestor(student, template.head(), student.head())
    ok, _ = check_up_to_date(student, template)
    assert ok


def test_enroll_is_idempotent(tmp_path):
    config, hosting = _course(tmp_path)
    first = enroll(hosting, "alice", config, timestamp=1700000100)
    before = hosting.fetch("cs101-alice", config.bot_account)
    again = enroll(hosting, "alice", config, timestamp=1799999999)
    assert again == first  # the original record, original timestamp
    after = hosting.fetch("cs101-alice", config.bot_account)
    assert set(after.commits) == set(before.commits)
    assert after.head() == before.head()
    ledger = EnrollmentLedger(f"{config.state_dir}/enrollment.jsonl")
    assert [r.username for r in ledger.records()] == ["alice"]


def test_enroll_requires_a_published_template(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    hosting.create_repo(config.template_repo_name, config.bot_account, "public")
    with pytest.raises(EnrollmentError, match="has no commits"):
        enroll(hosting, "alice", config)


def test_enroll_rejects_malformed_usernames(tmp_path):
    config, hosting = _course(tmp_path)
    for username in ("", "a b", "tab\tname", "nl\nname", " lead"):
        with pytest.raises(EnrollmentError, match="invalid username"):
            enroll(hosting, username, config)


def test_enrollment_after_template_update_tracks_new_head(tmp_path):
    config, hosting = _course(tmp_path)
    enroll(hosting, "early", config, timestamp=1700000100)
    updated = solution_snapshot().with_files({"README.md": b"# rev 2\n"})
    setup_course(hosting, config, snapshot=updated, timestamp=1700000200)
    record = enroll(hosting, "late", config, timestamp=1700000300)

    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert record.template_commit == template.head()
    late = hosting.fetch("cs101-late", config.bot_account)
    ok, _ = check_up_to_date(late, template)
    assert ok
    early = hosting.fetch("cs101-early", config.bot_account)
    ok, _ = check_up_to_date(early, template)
    assert not ok  # enrolled before the update, has not merged it


def test_group_enrollment_shares_one_repository(tmp_path):
    config, hosting = _course(tmp_path)
    records = enroll_group(hosting, "team-rocket", ["jessie", "james"], config,
                           timestamp=1700000100)
    assert [r.username for r in records] == ["jessie", "james"]
    assert {r.repo_name for r in records} == {"cs101-team-rocket"}
    repo = hosting.fetch("cs101-team-rocket", config.bot_account)
    assert repo.visibility == "private"
    assert repo.collaborators == {"jessie", "james"}
    assert repo.head_commit().message == "Enroll jessie james"
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert {r.template_commit for r in records} == {template.head()}


def test_group_enrollment_is_idempotent_and_extendable(tmp_path):
    config, hosting = _course(tmp_path)
    enroll_group(hosting, "duo", ["ann", "ben"], config, timestamp=1700000100)
    repo_before = hosting.fetch("cs101-duo", config.bot_account)

    again = enroll_group(hosting, "duo", ["ann", "ben"], config,
                         timestamp=1799999999)
    assert [r.created_at for r in again] == [1700000100, 1700000100]

    extended = enroll_group(hosting, "duo", ["ann", "ben", "cal"], config,
                            timestamp=1700000500)
    assert extended[2].username == "cal"
    assert extended[2].repo_name == "cs101-duo"
    assert extended[2].template_commit == again[0].template_commit
    repo_after = hosting.fetch("cs101-duo", config.bot_account)
    assert repo_after.head() == repo_before.head()  # no extra commits
    assert repo_after.collaborators == {"ann", "ben", "cal"}


def test_member_enrolled_elsewhere_keeps_existing_record(tmp_path):
    config, hosting = _course(tmp_path)
    solo = enroll(hosting, "alice", config, timestamp=1700000100)
    records = enroll_group(hosting, "pair", ["alice", "bob"], config,
                           timestamp=1700000200)
    assert records[0] == solo  # untouched: still her individual repo
    assert records[1].repo_name == "cs101-pair"
    pair = hosting.fetch("cs101-pair", config.bot_account)
    assert pair.collaborators == {"bob"}


def test_group_validation(tmp_path):
    config, hosting = _course(tmp_path)
    with pytest.raises(EnrollmentError, match="invalid group name"):
        enroll_group(hosting, "bad name", ["a"], config)
    with pytest.raises(EnrollmentError, match="has no members"):
        enroll_group(hosting, "empty", [], config)


def test_group_members_are_validated_before_anything_changes(tmp_path):
    config, hosting = _course(tmp_path)
    enroll(hosting, "alice", config, timestamp=1700000100)
    ledger = tmp_path / "state" / "enrollment.jsonl"
    before = ledger.read_bytes(), [repo_to_doc(r) for r in hosting.list_repos()]
    with pytest.raises(EnrollmentError, match="invalid username: 'a b'"):
        enroll_group(hosting, "g1", ["a b", ""], config)
    with pytest.raises(EnrollmentError, match="invalid username: ''"):
        enroll_group(hosting, "g1", ["bob", ""], config)
    assert (ledger.read_bytes(),
            [repo_to_doc(r) for r in hosting.list_repos()]) == before


def _unchanged(tmp_path, hosting):
    """The course's repositories and enrollment ledger, to compare."""
    ledger = tmp_path / "state" / "enrollment.jsonl"
    return ([repo_to_doc(r) for r in hosting.list_repos()],
            ledger.read_bytes() if ledger.exists() else None)


@pytest.mark.parametrize("name", ["../../../escape", "a/b", "a\\b", ".", "..",
                                  "solutions", "template"])
def test_names_outside_the_course_namespace_are_rejected(tmp_path, name):
    config, hosting = _course(tmp_path)
    before = _unchanged(tmp_path, hosting)
    with pytest.raises(EnrollmentError, match="invalid username"):
        enroll(hosting, name, config)
    with pytest.raises(EnrollmentError, match="invalid username"):
        enroll_group(hosting, "duo", ["alice", name], config)
    with pytest.raises(EnrollmentError, match="invalid group name"):
        enroll_group(hosting, name, ["alice"], config)
    assert _unchanged(tmp_path, hosting) == before


def test_a_roster_naming_a_course_repository_is_rejected_whole(tmp_path):
    config, hosting = _course(tmp_path)
    before = _unchanged(tmp_path, hosting)
    with pytest.raises(EnrollmentError, match="invalid username: 'solutions'"):
        enroll_roster(hosting, parse_roster("alice\nsolutions\n"), config)
    assert _unchanged(tmp_path, hosting) == before


def test_extending_a_group_with_work_records_its_enrollment_template(
        tmp_path):
    config, hosting = _course(tmp_path)
    first = enroll_group(hosting, "duo", ["ann", "ben"], config,
                         timestamp=1700000100)
    student_commit(hosting, config, "duo", {"counter.py": b"# 1\n"},
                   timestamp=1700000200)
    setup_course(hosting, config, timestamp=1700000300,
                 snapshot=solution_snapshot().with_files(
                     {"README.md": b"# rev 2\n"}))
    merge_template_update(hosting, config, "duo", timestamp=1700000400)
    student_commit(hosting, config, "duo", {"counter.py": b"# 2\n"},
                   timestamp=1700000500)
    before = hosting.fetch("cs101-duo", config.bot_account)

    cal = enroll_group(hosting, "duo", ["ann", "ben", "cal"], config,
                       timestamp=1700000600)[2]
    assert cal.template_commit == first[0].template_commit
    after = hosting.fetch("cs101-duo", config.bot_account)
    assert set(after.commits) == set(before.commits)
    assert after.head() == before.head()


@pytest.mark.parametrize("template_moved", [False, True])
def test_template_history_without_enrollment_commit_is_finished(
        tmp_path, template_moved):
    config, hosting = _course(tmp_path)
    setup_course(hosting, config, timestamp=1700000100,
                 snapshot=solution_snapshot().with_files(
                     {"README.md": b"# rev 2\n"}))
    # state written by an older version, whose run was cut after replaying
    # the template history, before the enrollment commit
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    hosting.create_repo("cs101-alice", config.bot_account)
    hosting.push("cs101-alice", config.bot_account, "main",
                 *walk(template, template.head()))
    if template_moved:
        setup_course(hosting, config, timestamp=1700000200,
                     snapshot=solution_snapshot().with_files(
                         {"README.md": b"# rev 3\n"}))
    template = hosting.fetch(config.template_repo_name, config.bot_account)

    record = enroll(hosting, "alice", config, timestamp=1700000300)
    assert record.template_commit == template.head()
    repo = hosting.fetch("cs101-alice", config.bot_account)
    head = repo.head_commit()
    assert head.message == "Enroll alice"
    assert head.parents == (template.head(),)
    assert set(repo.commits) == set(template.commits) | {head.commit_id}
    assert repo.collaborators == {"alice"}


def test_a_repository_without_enrollment_commit_is_not_adopted(tmp_path):
    config, hosting = _course(tmp_path)
    hosting.create_repo("cs101-alice", config.bot_account)
    push_root(hosting, "cs101-alice", config.bot_account, solution_snapshot(),
              "Unrelated", "alice", 1700000100)
    before = _unchanged(tmp_path, hosting)
    with pytest.raises(EnrollmentError, match="holds no enrollment commit"):
        enroll(hosting, "alice", config, timestamp=1700000200)
    assert _unchanged(tmp_path, hosting) == before


def test_roster_parsing():
    text = (
        "# fall roster\n"
        "\n"
        "alice\n"
        "  bob  \n"
        "team-rocket: jessie  james\tmeowth\n"
        "carol\n"
    )
    assert parse_roster(text) == [
        RosterEntry("alice"),
        RosterEntry("bob"),
        RosterEntry("team-rocket", ("jessie", "james", "meowth")),
        RosterEntry("carol"),
    ]


def test_roster_parse_errors_carry_line_numbers():
    with pytest.raises(EnrollmentError, match="roster line 2: expected one"):
        parse_roster("alice\nbob carol\n")
    with pytest.raises(EnrollmentError, match="roster line 1: malformed group"):
        parse_roster("team:\n")
    with pytest.raises(EnrollmentError, match="roster line 3: malformed group"):
        parse_roster("a\nb\n: x y\n")


def test_enroll_roster_handles_mixed_entries(tmp_path):
    config, hosting = _course(tmp_path)
    entries = parse_roster("alice\nbob\npair: carol dave\n")
    records = enroll_roster(hosting, entries, config, timestamp=1700000100)
    assert [r.username for r in records] == ["alice", "bob", "carol", "dave"]
    names = {r.name for r in hosting.list_repos(config.bot_account)}
    assert {"cs101-alice", "cs101-bob", "cs101-pair"} <= names
    ledger = EnrollmentLedger(f"{config.state_dir}/enrollment.jsonl")
    assert len(ledger.records()) == 4


def test_ledger_header_and_round_trip(tmp_path):
    path = tmp_path / "enrollment.jsonl"
    ledger = EnrollmentLedger(path)
    record = EnrollmentRecord("alice", "cs101-alice", 1700000100, "e" * 64)
    ledger.append(record)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"format": "enrollment-ledger", "version": 1}
    assert EnrollmentLedger(path).records() == [record]
    assert EnrollmentLedger(path).find("alice") == record
    assert EnrollmentLedger(path).find("nobody") is None


def test_ledger_rejects_foreign_files(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"format": "grade-ledger", "version": 1}\n')
    with pytest.raises(EnrollmentError, match="not a supported enrollment"):
        EnrollmentLedger(path).records()
    assert EnrollmentLedger(tmp_path / "absent.jsonl").records() == []


def test_thirty_student_class_audit(tmp_path):
    config, hosting = _course(tmp_path)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    for i in range(30):
        enroll(hosting, f"student{i:02d}", config, timestamp=1700000100 + i)
    repos = [r for r in hosting.list_repos(config.bot_account)
             if r.name not in (config.template_repo_name,
                               config.teacher_repo_name)]
    assert len(repos) == 30
    for repo in repos:
        assert repo.visibility == "private"
        assert repo.owner == config.bot_account
        username = repo.name.removeprefix("cs101-")
        assert repo.collaborators == {username}
        assert is_ancestor(repo, template.head(), repo.head())
    ledger = EnrollmentLedger(f"{config.state_dir}/enrollment.jsonl")
    assert len(ledger.records()) == 30


def test_parallel_enrollment_of_distinct_students(tmp_path):
    config, hosting = _course(tmp_path)
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            enroll(hosting, f"par{i}", config, timestamp=1700000100)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    ledger = EnrollmentLedger(f"{config.state_dir}/enrollment.jsonl")
    assert {r.username for r in ledger.records()} \
        == {f"par{i}" for i in range(16)}
    assert {r.name for r in hosting.list_repos(config.bot_account)} \
        >= {f"cs101-par{i}" for i in range(16)}
