"""Enrollment: provision a private per-student repository from the template.

Enrolling a student creates ``<course>-<username>`` owned by the bot
account, replays the template history into it, adds one enrollment commit
whose parent is the template head (so the grading ancestry check holds from
day one), and invites the student as collaborator. Records go to an
append-only ledger that doubles as the student-to-repository mapping for
grading and analytics. Group rosters map several usernames to one shared
repository.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from courseforge.config import CourseConfig
from courseforge.ledger import JsonlLedger
from courseforge.repomodel import (
    Commit,
    HostingService,
    push_missing,
)


class EnrollmentError(Exception):
    """Raised when enrollment cannot proceed (no template, bad roster)."""


@dataclass(frozen=True)
class EnrollmentRecord:
    username: str
    repo_name: str
    created_at: int
    template_commit: str


def student_repo_name(config: CourseConfig, username: str) -> str:
    return f"{config.course_id}-{username}"


class EnrollmentLedger(JsonlLedger[EnrollmentRecord]):
    """Append-only JSONL store of enrollments; first line is a header."""

    FORMAT = "enrollment-ledger"
    KIND = "enrollment"
    ERROR = EnrollmentError

    @staticmethod
    def _record(d) -> EnrollmentRecord:
        return EnrollmentRecord(d["username"], d["repo_name"],
                                int(d["created_at"]), d["template_commit"])

    def _clear(self) -> None:
        super()._clear()
        self._first: dict[str, EnrollmentRecord] = {}

    def _add(self, records: list[EnrollmentRecord]) -> None:
        super()._add(records)
        for record in records:
            self._first.setdefault(record.username, record)

    def records(self) -> list[EnrollmentRecord]:
        return list(self._sync())

    def find(self, username: str) -> EnrollmentRecord | None:
        """The student's first record in file order, or None."""
        if self._stale():
            self.records()  # every read of the file goes through records()
        return self._first.get(username)


def default_ledger(config: CourseConfig) -> EnrollmentLedger:
    return EnrollmentLedger(Path(config.state_dir) / "enrollment.jsonl")


def _provision_repo(hosting: HostingService, repo_name: str,
                    config: CourseConfig, member_list: str,
                    timestamp: int) -> str:
    """Create/initialize a private repo from the template; returns the
    template head commit its enrollment commit descends from."""
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    template_head = template.head()
    if template_head is None:
        raise EnrollmentError(
            f"template repository {config.template_repo_name} has no commits")

    hosting.create_repo(repo_name, config.bot_account, "private")
    existing = hosting.fetch(repo_name, config.bot_account)
    if existing.head() is not None:
        # already provisioned (e.g. a groupmate enrolled first); the
        # enrollment commit's parent is the template head it started from
        head = existing.head_commit()
        return head.parents[0] if head.parents else template_head

    branch = template.default_branch
    push_missing(hosting, repo_name, config.bot_account, branch,
                 template, template_head)
    enrollment_commit = Commit.create(
        (template_head,), template.get_commit(template_head).snapshot,
        f"Enroll {member_list}", config.bot_account, timestamp)
    hosting.push(repo_name, config.bot_account, branch, enrollment_commit)
    return template_head


def enroll(hosting: HostingService, username: str, config: CourseConfig, *,
           ledger: EnrollmentLedger | None = None,
           timestamp: int | None = None) -> EnrollmentRecord:
    """Enroll one student; idempotent per username.

    A group of one named after the student. Returns the existing record
    unchanged when the student is already enrolled (no new repository, no
    second invitation).

    Raises:
        EnrollmentError: for an empty or whitespace-bearing username, or
            when the template repository has no commits.
    """
    return enroll_group(hosting, username, [username], config,
                        ledger=ledger, timestamp=timestamp)[0]


def enroll_group(hosting: HostingService, group_name: str,
                 usernames: list[str], config: CourseConfig, *,
                 ledger: EnrollmentLedger | None = None,
                 timestamp: int | None = None) -> list[EnrollmentRecord]:
    """Enroll several students onto one shared repository.

    The repository is named after the group; each member gets an invitation
    and an individual ledger record. Members already enrolled (in this group
    or elsewhere) keep their existing record. Every name is checked before
    anything is created, invited or recorded.
    """
    for username in usernames:
        if not username or any(c.isspace() for c in username):
            raise EnrollmentError(f"invalid username: {username!r}")
    if not group_name or any(c.isspace() for c in group_name):
        raise EnrollmentError(f"invalid group name: {group_name!r}")
    if not usernames:
        raise EnrollmentError(f"group '{group_name}' has no members")
    ledger = ledger or default_ledger(config)
    if timestamp is None:
        timestamp = int(time.time())
    repo_name = f"{config.course_id}-{group_name}"
    records: list[EnrollmentRecord] = []
    provisioned: str | None = None
    for username in usernames:
        existing = ledger.find(username)
        if existing is not None:
            records.append(existing)
            continue
        if provisioned is None:
            provisioned = _provision_repo(hosting, repo_name, config,
                                          " ".join(usernames), timestamp)
        hosting.invite_collaborator(repo_name, config.bot_account, username)
        record = EnrollmentRecord(username, repo_name, timestamp, provisioned)
        ledger.append(record)
        records.append(record)
    return records


@dataclass(frozen=True)
class RosterEntry:
    """One roster line: a single username, or a named group with members."""

    name: str
    members: tuple[str, ...] | None = None  # None for an individual


def parse_roster(text: str) -> list[RosterEntry]:
    """Parse a roster file: one username per line, or ``group: a b c``.

    Blank lines and lines starting with ``#`` are ignored.
    """
    entries: list[RosterEntry] = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip()
            members = tuple(rest.split())
            if not name or not members:
                raise EnrollmentError(f"roster line {n}: malformed group entry")
            entries.append(RosterEntry(name, members))
        else:
            if len(line.split()) != 1:
                raise EnrollmentError(
                    f"roster line {n}: expected one username (or 'group: a b')")
            entries.append(RosterEntry(line))
    return entries


def enroll_roster(hosting: HostingService, entries: list[RosterEntry],
                  config: CourseConfig, *,
                  ledger: EnrollmentLedger | None = None,
                  timestamp: int | None = None) -> list[EnrollmentRecord]:
    ledger = ledger or default_ledger(config)
    records: list[EnrollmentRecord] = []
    for entry in entries:
        if entry.members is None:
            records.append(enroll(hosting, entry.name, config,
                                  ledger=ledger, timestamp=timestamp))
        else:
            records.extend(enroll_group(hosting, entry.name,
                                        list(entry.members), config,
                                        ledger=ledger, timestamp=timestamp))
    return records
