"""Course activity statistics from repository histories and the grade ledger.

Activity is reported as per-day averages across the repositories the
enrollment ledger names: how many commits landed, how many of those were
submitted for grading, and how many merge commits were excluded. Merges
(two or more parents) are template integrations, not authored work, so they
stay out of the totals; a commit counts as graded when its id appears in
the grade ledger. Days are bucketed in the course's configured timezone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date, datetime, timedelta

from courseforge.config import CourseConfig
from courseforge.enrollment import default_ledger
from courseforge.grader import GradeLedger, GradeRecord
from courseforge.repomodel import HostingService, walk


class AnalyticsError(Exception):
    """Raised for an empty date range."""


@dataclass(frozen=True)
class ActivitySeries:
    """One day's averages per student-repository; its fields are the keys
    of a ``stats --json`` activity row, in order."""

    day: date
    commits_total: float
    commits_graded: float
    merges_excluded: float


def commit_activity(hosting: HostingService, ledger: GradeLedger,
                    config: CourseConfig, start: date,
                    end: date) -> list[ActivitySeries]:
    """Per-day commit averages over [start, end], one row per day.

    Totals count single-parent (and root) commits; merge commits are tallied
    separately as excluded. Graded counts ledger-known commit ids whatever
    their shape. Every figure is divided by the number of student
    repositories holding a commit, so one row reads as "the average student
    did this much that day". An empty course yields an empty list.
    """
    if end < start:
        raise AnalyticsError(f"empty date range: {start} to {end}")
    enrolled = {r.repo_name for r in default_ledger(config).records()}
    repos = [r for r in hosting.list_repos(config.bot_account)
             if r.name in enrolled and r.head() is not None]
    if not repos:
        return []
    graded_ids = {r.commit_id for r in ledger.records()}
    tz = config.zone

    days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    totals = {d: 0 for d in days}
    graded = {d: 0 for d in days}
    merges = {d: 0 for d in days}
    for repo in repos:
        for c in walk(repo, repo.head()):
            try:
                day = datetime.fromtimestamp(c.timestamp, tz).date()
            except (OverflowError, OSError, ValueError):
                continue  # outside years 1-9999, so outside every window
            if not start <= day <= end:
                continue
            if len(c.parents) >= 2:
                merges[day] += 1
            else:
                totals[day] += 1
            if c.commit_id in graded_ids:
                graded[day] += 1

    n = len(repos)
    return [ActivitySeries(d, totals[d] / n, graded[d] / n, merges[d] / n)
            for d in days]


def grade_progress(ledger: GradeLedger) -> dict[str, Counter[str]]:
    """Per-task distribution of current grades.

    A student's current grade for a task is their newest authoritative
    ledger record (stale-submission records carry no grade and are skipped).
    Returns {task_id: {"%g earned": student count}}: grades that print
    alike, such as 1/7 and 100000/700001, share a key.
    """
    current: dict[tuple[str, str], GradeRecord] = {}
    for record in ledger.records():  # file order is append order
        if record.authoritative:
            current[(record.username, record.task_id)] = record
    out: dict[str, Counter[str]] = {}
    for record in current.values():
        out.setdefault(record.task_id, Counter())[f"{record.earned:g}"] += 1
    return out


def activity_table(series: list[ActivitySeries]) -> str:
    """Render the activity series as a tab-separated table with a header."""
    lines = ["day\tcommits_total\tcommits_graded\tmerges_excluded"]
    for row in series:
        lines.append(f"{row.day.isoformat()}\t{row.commits_total:g}"
                     f"\t{row.commits_graded:g}\t{row.merges_excluded:g}")
    return "\n".join(lines)
