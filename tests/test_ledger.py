"""The JSONL ledger both enrollment and grading keep: bytes, locking, index."""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from courseforge.enrollment import (
    EnrollmentError,
    EnrollmentLedger,
    EnrollmentRecord,
    RosterEntry,
    enroll_roster,
)
from courseforge.grader import GradeLedger, GradeRecord, GraderError
from courseforge.repomodel import in_memory_hosting
from util import make_config, setup_course

ENROLLMENT = (EnrollmentLedger, EnrollmentError,
              lambda i: EnrollmentRecord(f"s{i}", f"cs101-s{i}",
                                         1700000000 + i, "e" * 64),
              "enrollment")
GRADE = (GradeLedger, GraderError,
         lambda i: GradeRecord(f"s{i}", "t1", f"{i:064x}", 0.625, 1.0,
                               i % 2 == 0, 1700000000 + i),
         "grade")
BOTH = pytest.mark.parametrize("kind", [ENROLLMENT, GRADE],
                               ids=["enrollment", "grade"])


def test_ledger_bytes_are_unchanged(tmp_path):
    enrollments = EnrollmentLedger(tmp_path / "enrollment.jsonl")
    enrollments.append(ENROLLMENT[2](1))
    grades = GradeLedger(tmp_path / "grades.jsonl")
    grades.append(GRADE[2](1))
    grades.append(GRADE[2](2))
    assert enrollments.path.read_bytes() == (
        b'{"format": "enrollment-ledger", "version": 1}\n'
        b'{"created_at": 1700000001, "repo_name": "cs101-s1", '
        b'"template_commit": "' + b"e" * 64 + b'", "username": "s1"}\n')
    assert grades.path.read_bytes() == (
        b'{"format": "grade-ledger", "version": 1}\n'
        b'{"authoritative": false, "commit_id": "' + b"0" * 63 + b'1", '
        b'"earned": 0.625, "graded_at": 1700000001, "maximum": 1.0, '
        b'"task_id": "t1", "username": "s1"}\n'
        b'{"authoritative": true, "commit_id": "' + b"0" * 63 + b'2", '
        b'"earned": 0.625, "graded_at": 1700000002, "maximum": 1.0, '
        b'"task_id": "t1", "username": "s2"}\n')


@BOTH
def test_zero_length_ledger_reads_empty(tmp_path, kind):
    # what a reader sees between an append creating the file and writing
    # its header, were it not for the lock
    cls, _, make, _ = kind
    path = tmp_path / "ledger.jsonl"
    path.write_bytes(b"")
    assert cls(path).records() == []
    if cls is EnrollmentLedger:
        assert cls(path).find("s1") is None
    cls(path).append(make(1))
    assert cls(path).records() == [make(1)]


@pytest.mark.parametrize("kind, header, reason", [
    (ENROLLMENT, '{"format": "grade-ledger", "version": 1}',
     " is not a supported enrollment ledger"),
    (ENROLLMENT, '{"format": "enrollment-ledger", "version": 2}',
     " is not a supported enrollment ledger"),
    (GRADE, '{"format": "enrollment-ledger", "version": 1}',
     " is not a supported grade ledger"),
    (GRADE, '["not", "a", "header"]', " is not a supported grade ledger"),
    (GRADE, "grades, not JSON", ":1: malformed ledger header: Expecting "
     "value: line 1 column 1 (char 0)"),
], ids=["enrollment-grade", "enrollment-v2", "grade-enrollment", "grade-list",
        "grade-not-json"])
def test_append_refuses_a_foreign_file(tmp_path, kind, header, reason):
    cls, error, make, _ = kind
    path = tmp_path / "ledger.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(error) as err:
        cls(path).append(make(1))
    assert str(err.value) == f"{path}{reason}"
    assert path.read_text() == header + "\n"


@BOTH
@pytest.mark.parametrize("tail", ['{"username": "s9", "repo_na',
                                  '{"username": "s9"}'])
def test_append_refuses_to_glue_onto_a_torn_line(tmp_path, kind, tail):
    cls, error, make, _ = kind
    path = tmp_path / "ledger.jsonl"
    cls(path).append(make(1))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(tail)  # a crash mid-append
    before = path.read_bytes()
    with pytest.raises(error, match=f"{path}:3: torn ledger line"):
        cls(path).append(make(2))
    assert path.read_bytes() == before


@BOTH
def test_a_reader_reads_once_and_a_fresh_one_sees_the_file(
        tmp_path, kind, monkeypatch):
    cls, _, make, _ = kind
    path = tmp_path / "ledger.jsonl"
    shared = []
    flock = fcntl.flock

    def counting(fd, operation):
        if operation == fcntl.LOCK_SH:
            shared.append(fd)
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", counting)
    reader = cls(path)
    cls(path).append(make(1))
    assert reader.records() == [make(1)]
    cls(path).append(make(2))  # another process appends
    reader.append(make(3))
    assert reader.records() == [make(1), make(3)]
    if cls is EnrollmentLedger:
        assert reader.find("s1") == make(1) and reader.find("s3") == make(3)
        assert reader.find("s2") is None
    assert len(shared) == 1
    assert cls(path).records() == [make(1), make(2), make(3)]

    shorter = tmp_path / "shorter.jsonl"
    cls(shorter).append(make(4))
    os.replace(shorter, path)
    assert cls(path).records() == [make(4)]
    with open(path, "r+b") as fh:  # truncated in place to its header
        fh.truncate(len(fh.readline()))
    assert cls(path).records() == []
    path.unlink()
    assert cls(path).records() == []
    assert reader.records() == [make(1), make(3)]


def test_find_returns_the_first_record_of_a_username(tmp_path):
    path = tmp_path / "enrollment.jsonl"
    ledger = EnrollmentLedger(path)
    first = EnrollmentRecord("alice", "cs101-alice", 1700000000, "e" * 64)
    later = EnrollmentRecord("alice", "cs101-team", 1700000100, "f" * 64)
    ledger.append(first)
    assert ledger.find("alice") == first
    ledger.append(later)
    assert ledger.find("alice") == first
    assert ledger.records() == [first, later]


def test_roster_enrollment_parses_each_ledger_line_once(tmp_path, monkeypatch):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=1700000000)
    path = Path(config.state_dir) / "enrollment.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(
        ['{"format": "enrollment-ledger", "version": 1}']
        + [json.dumps({"created_at": 1700000000, "repo_name": f"cs101-o{i}",
                       "template_commit": "e" * 64, "username": f"o{i}"},
                      sort_keys=True) for i in range(1000)]) + "\n")
    parsed = 0
    loads = json.loads

    def counting(*args, **kwargs):
        nonlocal parsed
        parsed += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    roster = [RosterEntry(f"n{i}") for i in range(200)]
    records = enroll_roster(hosting, roster, config, timestamp=1700000100)
    assert [r.username for r in records] == [f"n{i}" for i in range(200)]
    assert parsed <= 1000 + 200 + 1
    monkeypatch.undo()
    assert len(EnrollmentLedger(path).records()) == 1200


@pytest.mark.parametrize("kind, field, value", [
    (GRADE, "authoritative", "false"),
    (GRADE, "authoritative", 0),
    (GRADE, "earned", "0.625"),
    (GRADE, "maximum", True),
    (GRADE, "maximum", 10 ** 400),
    (GRADE, "graded_at", 1700000001.5),
    (GRADE, "username", 7),
    (ENROLLMENT, "created_at", "1700000001"),
    (ENROLLMENT, "created_at", False),
    (ENROLLMENT, "template_commit", None),
], ids=lambda v: v[3] if isinstance(v, tuple) else repr(v)[:12])
def test_a_field_of_the_wrong_json_type_is_a_malformed_record(
        tmp_path, kind, field, value):
    cls, error, make, _ = kind
    path = tmp_path / "ledger.jsonl"
    cls(path).append(make(1))
    doc = asdict(make(2))
    doc[field] = value
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")
    with pytest.raises(error, match="ledger.jsonl:3: malformed ledger record: "
                                    f"({field} must be|int too large)"):
        cls(path).records()


def test_a_grade_written_as_an_integer_reads_as_a_float(tmp_path):
    path = tmp_path / "grades.jsonl"
    GradeLedger(path).append(GRADE[2](1))
    path.write_text(path.read_text().replace('"earned": 0.625', '"earned": 5'))
    record, = GradeLedger(path).records()
    assert record.earned == 5.0 and isinstance(record.earned, float)
