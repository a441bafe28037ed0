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
from courseforge.repomodel import Commit, HostingService, Repo, push_missing


class EnrollmentError(Exception):
    """Raised when enrollment cannot proceed (no template, bad roster)."""


@dataclass(frozen=True)
class EnrollmentRecord:
    username: str
    repo_name: str
    created_at: int
    template_commit: str


def student_repo_name(config: CourseConfig, name: str) -> str:
    return f"{config.course_id}-{name}"


def repo_student_name(config: CourseConfig, repo_name: str) -> str:
    """The student or group a repository is named after."""
    return repo_name.removeprefix(student_repo_name(config, ""))


class EnrollmentLedger(JsonlLedger[EnrollmentRecord]):
    """Append-only JSONL store of enrollments; first line is a header."""

    FORMAT = "enrollment-ledger"
    KIND = "enrollment"
    ERROR = EnrollmentError
    RECORD = EnrollmentRecord

    def __init__(self, path: str | Path):
        super().__init__(path)
        self._first: dict[str, EnrollmentRecord] = {}
        self._members: dict[str, set[str]] = {}

    def _add(self, records: list[EnrollmentRecord]) -> None:
        super()._add(records)
        for record in records:
            if self._first.setdefault(record.username, record) is record:
                self._members.setdefault(record.repo_name, set()).add(
                    record.username)

    def records(self) -> list[EnrollmentRecord]:
        return list(self._read())

    def find(self, username: str) -> EnrollmentRecord | None:
        """The student's first record in file order, or None."""
        if self._records is None:
            self.records()  # every read of the file goes through records()
        return self._first.get(username)

    def members(self, repo_name: str) -> set[str]:
        """The students whose record names the repository."""
        if self._records is None:
            self.records()
        return set(self._members.get(repo_name, ()))


class PendingEnrollments(EnrollmentLedger):
    """A ledger whose new records answer lookups but reach the file only
    on ``write``, in one append: written after a state save, a record
    never names a repository the saved state lacks."""

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.pending: dict[str, EnrollmentRecord] = {}

    def find(self, username: str) -> EnrollmentRecord | None:
        return self.pending.get(username) or super().find(username)

    def members(self, repo_name: str) -> set[str]:
        return super().members(repo_name) | {
            u for u, r in self.pending.items() if r.repo_name == repo_name}

    def append(self, *records: EnrollmentRecord) -> None:
        self.pending.update((r.username, r) for r in records)

    def write(self) -> None:
        if self.pending:
            super().append(*self.pending.values())


def default_ledger(config: CourseConfig) -> EnrollmentLedger:
    return EnrollmentLedger(Path(config.state_dir) / "enrollment.jsonl")


def _provision_repo(hosting: HostingService, repo_name: str,
                    config: CourseConfig, template: Repo | None,
                    member_list: str, timestamp: int) -> str:
    """Create a private repo from the template (the caller's copy, if any),
    or find the one a groupmate or an earlier run provisioned; returns the
    template commit its enrollment commit descends from."""
    template = template or hosting.fetch(config.template_repo_name,
                                         config.bot_account)
    template_head = template.head()
    if template_head is None:
        raise EnrollmentError(
            f"template repository {config.template_repo_name} has no commits")

    repo = hosting.create_repo(repo_name, config.bot_account, "private")
    head = repo.head()
    if head is not None and head not in template.commits:
        # already provisioned: the enrollment commit is the first one, along
        # first parents from the head, whose first parent is a template commit
        c = repo.get_commit(head)
        while c.parents and c.parents[0] not in template.commits:
            c = repo.get_commit(c.parents[0])
        if not c.parents:
            raise EnrollmentError(
                f"repository {repo_name} holds no enrollment commit")
        return c.parents[0]

    # a new repository, or template history that a cut run left without
    # its enrollment commit
    branch = template.default_branch
    push_missing(hosting, repo, branch, template, template_head)
    enrollment_commit = Commit.create(
        (template_head,), template.get_commit(template_head).snapshot,
        f"Enroll {member_list}", config.bot_account, timestamp)
    hosting.push(repo_name, config.bot_account, branch, enrollment_commit)
    return template_head


def _check_group(config: CourseConfig, ledger: EnrollmentLedger,
                 group_name: str, usernames: list[str],
                 joined: dict[str, str]) -> None:
    """Every name may name a repository of its own under the course and a
    directory of the archive store, so one rule holds for each. A group
    joins a repository that has students only through one of them.
    ``joined`` maps each student that earlier groups of the same command
    enroll to their repository, and gains this group's new members."""
    names = [("username", u) for u in usernames] + [("group name", group_name)]
    for what, name in names:
        if not name or name in (".", "..") \
                or any(c.isspace() or c in "/\\" for c in name) \
                or student_repo_name(config, name) in (
                    config.template_repo_name, config.teacher_repo_name):
            raise EnrollmentError(f"invalid {what}: {name!r}")
    if not usernames:
        raise EnrollmentError(f"group '{group_name}' has no members")
    repo_name = student_repo_name(config, group_name)
    members = ledger.members(repo_name) | {
        u for u, r in joined.items() if r == repo_name}
    if members and members.isdisjoint(usernames):
        raise EnrollmentError(
            f"{' '.join(usernames)} cannot join repository {repo_name}: its "
            f"students ({', '.join(sorted(members))}) are not among them")
    joined.update((u, repo_name) for u in usernames
                  if u not in joined and ledger.find(u) is None)


def enroll(hosting: HostingService, username: str, config: CourseConfig, *,
           ledger: EnrollmentLedger | None = None,
           timestamp: int | None = None) -> EnrollmentRecord:
    """Enroll one student; idempotent per username.

    A group of one named after the student. Returns the existing record
    unchanged when the student is already enrolled (no new repository, no
    second invitation).

    Raises:
        EnrollmentError: for a username the name rule rejects (empty,
            holding whitespace or a slash, ``.`` or ``..``, or naming the
            template or solution repository), for one naming a group's
            repository, or when the template repository has no commits.
    """
    return enroll_group(hosting, username, [username], config,
                        ledger=ledger, timestamp=timestamp)[0]


def enroll_group(hosting: HostingService, group_name: str,
                 usernames: list[str], config: CourseConfig, *,
                 ledger: EnrollmentLedger | None = None,
                 timestamp: int | None = None,
                 template: Repo | None = None) -> list[EnrollmentRecord]:
    """Enroll several students onto one shared repository.

    The repository is named after the group; each member gets an invitation
    and an individual ledger record. Members already enrolled (in this group
    or elsewhere) keep their existing record. Every name, and the group's
    claim on a repository that already has students, is checked before
    anything is created, invited or recorded. ``template`` is the caller's
    copy of the template repository, if it has one.
    """
    ledger = ledger or default_ledger(config)
    _check_group(config, ledger, group_name, usernames, {})
    timestamp = int(time.time()) if timestamp is None else timestamp
    repo_name = student_repo_name(config, group_name)
    records: list[EnrollmentRecord] = []
    provisioned: str | None = None
    for username in usernames:
        record = ledger.find(username)
        if record is None:
            provisioned = provisioned or _provision_repo(
                hosting, repo_name, config, template, " ".join(usernames),
                timestamp)
            hosting.invite_collaborator(repo_name, config.bot_account,
                                        username)
            record = EnrollmentRecord(username, repo_name, timestamp,
                                      provisioned)
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
        name, colon, rest = line.partition(":")
        if colon:
            name, members = name.strip(), tuple(rest.split())
            if not name or not members:
                raise EnrollmentError(f"roster line {n}: malformed group entry")
            entries.append(RosterEntry(name, members))
        elif len(line.split()) != 1:
            raise EnrollmentError(
                f"roster line {n}: expected one username (or 'group: a b')")
        else:
            entries.append(RosterEntry(line))
    return entries


def enroll_roster(hosting: HostingService, entries: list[RosterEntry],
                  config: CourseConfig, *,
                  ledger: EnrollmentLedger | None = None,
                  timestamp: int | None = None) -> list[EnrollmentRecord]:
    """Enroll every roster entry; an individual is a group of one. Every
    name is checked before anything is created, invited or recorded. The
    template is fetched once, and only if some member needs enrolling."""
    ledger = ledger or default_ledger(config)
    groups = [(entry.name, list(entry.members or (entry.name,)))
              for entry in entries]
    joined: dict[str, str] = {}
    for name, members in groups:
        _check_group(config, ledger, name, members, joined)
    template = hosting.fetch(config.template_repo_name, config.bot_account) \
        if any(ledger.find(u) is None for _, m in groups for u in m) else None
    return [record for name, members in groups
            for record in enroll_group(hosting, name, members, config,
                                       ledger=ledger, timestamp=timestamp,
                                       template=template)]
