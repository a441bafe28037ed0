"""Template publication: strip the solution, gate on its tests, push or abort.

A solution push triggers this workflow (typically from CI): strip the
teacher tree, run the full solution test suite through the same executor
contract grading uses, and only then commit the stripped tree to the
template repository. Any marker violation aborts before tests; any failing
test aborts before publication. Publishing the same solution twice is a
no-op, so template history stays free of empty updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from courseforge.config import CourseConfig
from courseforge.executor import Executor, TestStatus
from courseforge.grader import GradeManifest, load_manifest, run_graded_tests
from courseforge.repomodel import (
    Commit,
    HostingError,
    HostingService,
    Repo,
    Snapshot,
)
from courseforge.stripper import strip_snapshot


class PublishError(Exception):
    """Raised when the solution has no commits or the template push fails."""


class PublishStatus(Enum):
    PUBLISHED = "published"
    UNCHANGED = "unchanged"
    ABORTED = "aborted"


@dataclass(frozen=True)
class PublishResult:
    status: PublishStatus
    template_commit: str | None
    failing_tests: tuple[str, ...]
    message: str


def _solution_gate(teacher_snap: Snapshot, config: CourseConfig,
                   executor: Executor) -> list[str]:
    """Run the full solution suite; returns failing 'task:test' labels.

    The suite is the union of every task manifest's tests, run against the
    unstripped solution. With no tasks configured, a compile check still
    runs so a broken build never publishes.
    """
    failing: list[str] = []
    if not config.tasks:
        outcomes = run_graded_tests(teacher_snap, GradeManifest(), executor)
        failing.extend(f"-:{o.test_id}" for o in outcomes
                       if o.status is not TestStatus.PASS)
        return failing
    for task in config.tasks:
        manifest = load_manifest(teacher_snap, task)
        outcomes = run_graded_tests(teacher_snap, manifest, executor)
        failing.extend(f"{task.task_id}:{o.test_id}" for o in outcomes
                       if o.status is not TestStatus.PASS)
    return failing


def publish_template(hosting: HostingService, teacher_repo: Repo,
                     template_repo: Repo, config: CourseConfig,
                     executor: Executor, *,
                     timestamp: int | None = None) -> PublishResult:
    """Regenerate the template from the teacher repository head.

    Returns PUBLISHED with the new template commit, UNCHANGED when the
    stripped tree already equals the template head, or ABORTED with the
    failing test list when the solution suite fails (template untouched).
    The published commit's message records the solution commit id it was
    generated from.

    Raises:
        MarkerViolationError: invalid markers; aborts before any test runs.
        PublishError: the solution repository has no commits, or the
            hosting push failed (the message includes retry guidance).
    """
    teacher_head = teacher_repo.head()
    if teacher_head is None:
        raise PublishError(
            f"solution repository {teacher_repo.name} has no commits")
    teacher_snap = teacher_repo.get_commit(teacher_head).snapshot

    stripped = strip_snapshot(teacher_snap, config)

    failing = _solution_gate(teacher_snap, config, executor)
    if failing:
        return PublishResult(
            PublishStatus.ABORTED, None, tuple(failing),
            "solution test suite failed; template left untouched")

    template_head = template_repo.head()
    if template_head is not None \
            and template_repo.get_commit(template_head).snapshot == stripped:
        return PublishResult(
            PublishStatus.UNCHANGED, template_head, (),
            "stripped solution matches the template head; nothing to publish")

    message = f"Publish template from solution {teacher_head}"
    try:
        if template_head is None:
            new_id = hosting.init_from_snapshot(
                template_repo.name, template_repo.owner, stripped,
                message, config.bot_account, timestamp)
        else:
            commit = Commit.create(
                (template_head,), stripped, message, config.bot_account,
                timestamp if timestamp is not None else int(time.time()))
            hosting.push(template_repo.name, template_repo.owner,
                         template_repo.default_branch, commit)
            new_id = commit.commit_id
    except HostingError as exc:
        raise PublishError(
            f"template push failed: {exc}; the template is unchanged, "
            f"check hosting connectivity and retry") from exc
    return PublishResult(PublishStatus.PUBLISHED, new_id, (),
                         f"template updated to {new_id[:12]}")
