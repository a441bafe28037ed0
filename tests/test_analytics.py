"""Activity statistics: per-day averages, merge exclusion, grade progress."""

from __future__ import annotations

import dataclasses
import random
from datetime import date, datetime
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest

from courseforge.analytics import (
    ActivitySeries,
    AnalyticsError,
    activity_table,
    commit_activity,
    grade_progress,
)
from courseforge.config import parse_config
from courseforge.enrollment import EnrollmentRecord, default_ledger, enroll
from courseforge.grader import GradeLedger, GradeRecord
from courseforge.repomodel import in_memory_hosting
from util import (
    build_week_fixture,
    course_yaml,
    make_config,
    setup_course,
    student_commit,
    utc,
)


def _ledger(tmp_path) -> GradeLedger:
    return GradeLedger(Path(tmp_path) / "grades.jsonl")


def _one_student_course(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=utc(2026, 3, 1, 12))
    enroll(hosting, "alice", config, timestamp=utc(2026, 3, 1, 13))
    return config, hosting


def test_week_fixture_matches_hand_computed_averages(tmp_path):
    config, hosting, ledger = build_week_fixture(tmp_path)
    rows = commit_activity(hosting, ledger, config,
                           date(2026, 3, 2), date(2026, 3, 8))
    assert rows == [
        ActivitySeries(date(2026, 3, 2), 1.5, 0.0, 0.0),
        ActivitySeries(date(2026, 3, 3), 0.5, 0.5, 0.5),
        ActivitySeries(date(2026, 3, 4), 0.5, 0.5, 0.0),
        ActivitySeries(date(2026, 3, 5), 0.0, 0.0, 0.0),
        ActivitySeries(date(2026, 3, 6), 0.0, 0.0, 0.0),
        ActivitySeries(date(2026, 3, 7), 0.0, 0.0, 0.0),
        ActivitySeries(date(2026, 3, 8), 0.0, 0.0, 0.0),
    ]


def test_activity_table_layout(tmp_path):
    config, hosting, ledger = build_week_fixture(tmp_path)
    rows = commit_activity(hosting, ledger, config,
                           date(2026, 3, 2), date(2026, 3, 4))
    assert activity_table(rows) == (
        "day\tcommits_total\tcommits_graded\tmerges_excluded\n"
        "2026-03-02\t1.5\t0\t0\n"
        "2026-03-03\t0.5\t0.5\t0.5\n"
        "2026-03-04\t0.5\t0.5\t0"
    )


def test_single_student_daily_counts(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    graded_id = None
    for hour in (9, 12, 15):
        graded_id = student_commit(hosting, config, "alice",
                                   {"counter.py": f"# {hour}\n".encode()},
                                   timestamp=utc(2026, 3, 2, hour))
    ledger = _ledger(tmp_path)
    ledger.append(GradeRecord("alice", "t1", graded_id, 1.0, 1.0, True,
                              utc(2026, 3, 2, 16)))
    rows = commit_activity(hosting, ledger, config,
                           date(2026, 3, 2), date(2026, 3, 2))
    assert rows == [ActivitySeries(date(2026, 3, 2), 3.0, 1.0, 0.0)]


def test_averages_divide_by_student_repo_count(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    enroll(hosting, "bob", config, timestamp=utc(2026, 3, 1, 14))
    for i in range(2):
        student_commit(hosting, config, "alice", {"a.py": f"# {i}\n".encode()},
                       timestamp=utc(2026, 3, 2, 9 + i))
    for i in range(4):
        student_commit(hosting, config, "bob", {"b.py": f"# {i}\n".encode()},
                       timestamp=utc(2026, 3, 2, 9 + i))
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 3, 2), date(2026, 3, 2))
    assert rows == [ActivitySeries(date(2026, 3, 2), 3.0, 0.0, 0.0)]


def test_course_without_student_repos_yields_nothing(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=utc(2026, 3, 1, 12))
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 3, 1), date(2026, 3, 2))
    assert rows == []


def test_commitless_repos_do_not_dilute_averages(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    hosting.create_repo("cs101-ghost", config.bot_account, "private")
    default_ledger(config).append(
        EnrollmentRecord("ghost", "cs101-ghost", utc(2026, 3, 1, 14), "c" * 64))
    student_commit(hosting, config, "alice", {"a.py": b"# hi\n"},
                   timestamp=utc(2026, 3, 2, 9))
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 3, 2), date(2026, 3, 2))
    assert rows[0].commits_total == 1.0  # divided by 1, not 2


def test_inverted_date_range_is_rejected(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    with pytest.raises(AnalyticsError, match="empty date range"):
        commit_activity(hosting, _ledger(tmp_path), config,
                        date(2026, 3, 9), date(2026, 3, 2))


def test_quiet_days_still_get_rows(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 4, 1), date(2026, 4, 5))
    assert [r.day for r in rows] == [date(2026, 4, d) for d in range(1, 6)]
    assert all(r.commits_total == r.commits_graded == r.merges_excluded == 0.0
               for r in rows)


def test_days_bucket_in_the_course_timezone(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    # alice's history holds the template commit (Mar 1 12:00 UTC) and her
    # enrollment commit (13:00); this one lands at 01:00 UTC on Mar 2,
    # which is still Mar 1 evening in New York (UTC-5)
    student_commit(hosting, config, "alice", {"a.py": b"# night owl\n"},
                   timestamp=utc(2026, 3, 2, 1))
    rows_utc = commit_activity(hosting, _ledger(tmp_path), config,
                               date(2026, 3, 1), date(2026, 3, 2))
    assert [r.commits_total for r in rows_utc] == [2.0, 1.0]

    ny = dataclasses.replace(config, timezone="America/New_York")
    rows_ny = commit_activity(hosting, _ledger(tmp_path), ny,
                              date(2026, 3, 1), date(2026, 3, 2))
    assert [r.commits_total for r in rows_ny] == [3.0, 0.0]


def test_random_scatter_agrees_with_direct_bucketing(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    rng = random.Random(2026)
    timestamps = [utc(2026, 3, 2 + rng.randrange(5), rng.randrange(24),
                      rng.randrange(60)) for _ in range(40)]
    for i, ts in enumerate(sorted(timestamps)):
        student_commit(hosting, config, "alice", {"a.py": f"# {i}\n".encode()},
                       timestamp=ts)
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 3, 2), date(2026, 3, 6))
    tz = ZoneInfo("UTC")
    expected: dict[date, int] = {}
    for ts in timestamps:
        day = datetime.fromtimestamp(ts, tz).date()
        expected[day] = expected.get(day, 0) + 1
    for row in rows:
        assert row.commits_total == float(expected.get(row.day, 0))
        assert row.merges_excluded == 0.0
    assert sum(r.commits_total for r in rows) == len(timestamps)


def test_stats_count_only_repositories_the_enrollment_ledger_names(tmp_path):
    # two courses on one bot account: cs102's template, solution and
    # students are bot-owned too, but no record of cs101's ledger names them
    config, hosting = _one_student_course(tmp_path / "cs101")
    other = parse_config(course_yaml().replace("cs101", "cs102"),
                         base_dir=tmp_path / "cs102")
    setup_course(hosting, other, timestamp=utc(2026, 3, 1, 12))
    enroll(hosting, "bob", other, timestamp=utc(2026, 3, 1, 13))
    for hour in (9, 10):
        student_commit(hosting, other, "bob", {"b.py": f"# {hour}\n".encode()},
                       timestamp=utc(2026, 3, 2, hour))
    student_commit(hosting, config, "alice", {"a.py": b"# hi\n"},
                   timestamp=utc(2026, 3, 2, 9))
    rows = commit_activity(hosting, _ledger(tmp_path), config,
                           date(2026, 3, 1), date(2026, 3, 2))
    # alice's template and enrollment commits, then her one work commit
    assert rows == [ActivitySeries(date(2026, 3, 1), 2.0, 0.0, 0.0),
                    ActivitySeries(date(2026, 3, 2), 1.0, 0.0, 0.0)]


def test_grade_progress_keeps_each_students_newest_grade(tmp_path):
    ledger = _ledger(tmp_path)
    assert grade_progress(ledger) == {}
    rows = [
        GradeRecord("alice", "t1", "a1", 0.5, 1.0, True, 100),
        GradeRecord("alice", "t1", "a2", 1.0, 1.0, True, 200),   # newer wins
        GradeRecord("bob", "t1", "b1", 1.0, 1.0, True, 150),
        GradeRecord("carol", "t1", "c1", 0.625, 1.0, True, 150),
        GradeRecord("dave", "t1", "d1", 0.0, 1.0, False, 400),   # stale: skip
        GradeRecord("alice", "t2", "a3", 0.375, 1.0, True, 300),
    ]
    for r in rows:
        ledger.append(r)
    progress = grade_progress(ledger)
    assert progress == {
        "t1": {"1": 2, "0.625": 1},
        "t2": {"0.375": 1},
    }


def test_grade_progress_stale_record_does_not_erase_prior_grade(tmp_path):
    ledger = _ledger(tmp_path)
    ledger.append(GradeRecord("alice", "t1", "a1", 1.0, 1.0, True, 100))
    ledger.append(GradeRecord("alice", "t1", "a2", 0.0, 1.0, False, 200))
    assert grade_progress(ledger) == {"t1": {"1": 1}}


def test_activity_table_of_empty_series_is_just_the_header():
    assert activity_table([]) \
        == "day\tcommits_total\tcommits_graded\tmerges_excluded"


def test_stats_read_one_version_of_the_grade_ledger(tmp_path):
    config, hosting = _one_student_course(tmp_path)
    first, second = (student_commit(hosting, config, "alice",
                                    {"counter.py": f"# {hour}\n".encode()},
                                    timestamp=utc(2026, 3, 2, hour))
                     for hour in (9, 12))
    _ledger(tmp_path).append(
        GradeRecord("alice", "t1", first, 0.5, 1.0, True, utc(2026, 3, 2, 10)))
    day = date(2026, 3, 2)
    ledger = _ledger(tmp_path)
    rows = commit_activity(hosting, ledger, config, day, day)
    # a grade run of another process lands between the two tables
    _ledger(tmp_path).append(
        GradeRecord("alice", "t1", second, 1.0, 1.0, True, utc(2026, 3, 2, 13)))
    assert rows == [ActivitySeries(day, 2.0, 1.0, 0.0)]
    assert grade_progress(ledger) == {"t1": {"0.5": 1}}
    assert commit_activity(hosting, _ledger(tmp_path), config, day, day) \
        == [ActivitySeries(day, 2.0, 2.0, 0.0)]
    assert grade_progress(_ledger(tmp_path)) == {"t1": {"1": 1}}
