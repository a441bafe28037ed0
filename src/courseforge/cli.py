"""Command-line entry point binding all pipelines.

Subcommands: strip, publish, enroll, grade, stats, archive-export. Exit
codes: 0 success (a stale-repository grade report is success: staleness is
feedback), 1 usage or configuration error, 2 pipeline failure (marker
violations, aborted publication, grading errors) or internal error. The last
stdout line of every run is machine-parsable:

    RESULT <ok|error> cmd=<subcommand> [key=value ...]

The hosting backend is selected per invocation: ``memory:<statefile>`` runs
hermetically against the in-memory backend persisted to a state file, and
``remote:<url>`` talks to a hosting service over HTTP (credential via the
COURSEFORGE_TOKEN environment variable only).
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import json
import logging
import os
import sys
import traceback
from dataclasses import asdict
from datetime import date
from pathlib import Path

from courseforge.analytics import (
    AnalyticsError,
    activity_table,
    commit_activity,
    grade_progress,
)
from courseforge.config import ConfigError, CourseConfig, load_config
from courseforge.enrollment import (
    EnrollmentError,
    PendingEnrollments,
    RosterEntry,
    default_ledger,
    enroll_roster,
    parse_roster,
)
from courseforge.executor import ExecutorError, LocalProcessExecutor
from courseforge.grader import (
    GraderError,
    default_archive_store,
    default_grade_ledger,
    export_archives,
    grade_task,
    render_report,
)
from courseforge.publisher import (
    PublishError,
    PublishStatus,
    publish_template,
)
from courseforge.repomodel import (
    HostingError,
    HostingService,
    InMemoryHosting,
    Repo,
    RepoModelError,
    commit,
    in_memory_hosting,
    snapshot_from_dir,
    snapshot_to_dir,
)
from courseforge.stripper import MarkerViolationError, strip_snapshot

log = logging.getLogger("courseforge")

REMOTE_URL_ENV = "COURSEFORGE_REMOTE_URL"

_PIPELINE_ERRORS = (MarkerViolationError, GraderError, PublishError,
                    HostingError, EnrollmentError, AnalyticsError,
                    RepoModelError, ExecutorError)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for pipeline
    failures, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _result(ok: bool, cmd: str, **fields) -> None:
    parts = [f"RESULT {'ok' if ok else 'error'}", f"cmd={cmd}"]
    parts.extend(f"{k}={v}" for k, v in fields.items())
    print(" ".join(parts))


def _open_backend(spec: str | None, config: CourseConfig):
    """Resolve --backend into (hosting, save-callback)."""
    kind, _, arg = (spec or "memory:").partition(":")
    if kind == "memory":
        path = Path(arg or Path(config.state_dir, "hosting-state.json"))
        hosting = (InMemoryHosting.load_state(path) if path.exists()
                   else in_memory_hosting())

        def save() -> None:
            path.parent.mkdir(parents=True, exist_ok=True)
            hosting.save_state(path)

        return hosting, save
    if kind == "remote":
        url = arg or os.environ.get(REMOTE_URL_ENV, "")
        if not url:
            raise ConfigError(
                f"remote backend needs remote:<url> or {REMOTE_URL_ENV}")
        from courseforge.remote import RestHosting
        return RestHosting(url), lambda: None
    raise ConfigError(f"unknown backend {spec!r} "
                      f"(expected memory:<statefile> or remote:<url>)")


@contextlib.contextmanager
def _course_lock(config: CourseConfig):
    """Hold an exclusive flock on ``<state_dir>/course.lock``.

    The kernel releases it when the file closes or the process dies. The
    file stays empty and is never unlinked: a waiter on an unlinked file
    would lock a different file than the next opener.
    """
    state_dir = Path(config.state_dir)
    state_dir.mkdir(parents=True, exist_ok=True)
    with open(state_dir / "course.lock", "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def _build_executor(config: CourseConfig) -> LocalProcessExecutor:
    return LocalProcessExecutor(config.compile_command, config.test_command)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_strip(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    solution = snapshot_from_dir(args.input)
    template = strip_snapshot(solution, config)
    snapshot_to_dir(template, args.output)
    _result(True, "strip", files=len(template), out=args.output)
    return 0


def _ingest_teacher_dir(hosting: HostingService, teacher: Repo,
                        directory: str, config: CourseConfig) -> Repo:
    """Sync a checked-out solution tree into the teacher repository; returns
    the repository. Only a changed tree makes a commit, so a CI job can call
    publish on every push."""
    snap = snapshot_from_dir(directory)
    head = teacher.head()
    if head is not None and teacher.get_commit(head).snapshot == snap:
        return teacher
    c = commit(teacher, teacher.default_branch, snap,
               "Update solution" if head else "Import solution",
               config.bot_account)
    hosting.push(teacher.name, teacher.owner, teacher.default_branch, c)
    return teacher


def _cmd_publish(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    with _course_lock(config):
        hosting, save = _open_backend(args.backend, config)
        teacher = hosting.create_repo(config.teacher_repo_name,
                                      config.bot_account, "private")
        if args.teacher_dir:
            teacher = _ingest_teacher_dir(hosting, teacher, args.teacher_dir,
                                          config)
        template = hosting.create_repo(config.template_repo_name,
                                       config.bot_account, "public")

        result = publish_template(hosting, teacher, template, config,
                                  _build_executor(config))
        save()
        print(result.message)
        if result.status is PublishStatus.ABORTED:
            for test in result.failing_tests:
                print(f"failing: {test}", file=sys.stderr)
            _result(False, "publish", status=result.status.value,
                    failing=len(result.failing_tests))
            return 2
        _result(True, "publish", status=result.status.value,
                commit=result.template_commit)
        return 0


def _read_roster(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EnrollmentError(f"roster file {path}: {exc}") from None


def _cmd_enroll(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    with _course_lock(config):
        hosting, save = _open_backend(args.backend, config)
        entries = [RosterEntry(args.user)] if args.user \
            else parse_roster(_read_roster(args.roster))
        ledger = PendingEnrollments(default_ledger(config).path)
        records = enroll_roster(hosting, entries, config, ledger=ledger)
        save()
        ledger.write()  # the records last: each names a saved repository
        for r in records:
            print(f"enrolled {r.username} -> {r.repo_name} "
                  f"(template {r.template_commit[:12]})")
        _result(True, "enroll", count=len(records))
        return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    # the record before the state: enroll writes them in the reverse order
    ledger = default_ledger(config)
    ledger.find(args.user)
    hosting, _ = _open_backend(args.backend, config)
    # the report file is opened before grading records or archives anything,
    # so a path that cannot be written fails the run with nothing recorded
    with (open(args.json, "w", encoding="utf-8") if args.json
          else contextlib.nullcontext()) as report_file:
        report = grade_task(hosting, args.user, args.task, config,
                            _build_executor(config), ledger=ledger)
        print(render_report(report))
        if report_file:
            # each TestStatus is written by its name
            report_file.write(json.dumps(asdict(report), indent=2,
                                         default=lambda s: s.name) + "\n")
    _result(True, "grade", user=args.user, task=args.task,
            earned=f"{report.earned:g}", maximum=f"{report.maximum:g}",
            up_to_date=str(report.up_to_date).lower())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    hosting, _ = _open_backend(args.backend, config)
    ledger = default_grade_ledger(config)
    series = commit_activity(hosting, ledger, config, args.start, args.end)
    print(activity_table(series))
    if args.json:
        doc = {"activity": [asdict(row) for row in series],
               "grade_progress": grade_progress(ledger)}
        Path(args.json).write_text(
            json.dumps(doc, indent=2, default=date.isoformat) + "\n",
            encoding="utf-8")
    _result(True, "stats", days=len(series))
    return 0


def _cmd_archive_export(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    store = args.store or default_archive_store(config)
    created = export_archives(store, args.task, args.dest)
    for path in created:
        print(path)
    _result(True, "archive-export", task=args.task, students=len(created))
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    base = _Parser(add_help=False)
    base.add_argument("--config", required=True, metavar="FILE",
                      help="course configuration file")
    base.add_argument("--verbose", action="store_true",
                      help="enable debug logging")
    backend = _Parser(add_help=False)
    backend.add_argument("--backend", metavar="SPEC",
                         help="hosting backend: memory:<statefile> or "
                              "remote:<url> (default: memory state file under "
                              "the course state directory)")

    parser = _Parser(prog="courseforge",
                     description="Classroom repository tooling: templates, "
                                 "per-student repos, grading, activity stats.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("strip", parents=[base],
                       help="materialize the student template from a "
                            "solution tree")
    p.add_argument("--in", dest="input", required=True, metavar="DIR",
                   help="solution working tree")
    p.add_argument("--out", dest="output", required=True, metavar="DIR",
                   help="where to write the stripped tree")
    p.set_defaults(handler=_cmd_strip)

    p = sub.add_parser("publish", parents=[base, backend],
                       help="strip, gate on the solution tests, and push the "
                            "template")
    p.add_argument("--teacher-dir", metavar="DIR",
                   help="sync this working tree into the teacher repository "
                        "first (CI checkout)")
    p.set_defaults(handler=_cmd_publish)

    p = sub.add_parser("enroll", parents=[base, backend],
                       help="create and initialize private student repos")
    who = p.add_mutually_exclusive_group(required=True)
    who.add_argument("--user", metavar="NAME", help="enroll one username")
    who.add_argument("--roster", metavar="FILE",
                     help="enroll every entry of a roster file")
    p.set_defaults(handler=_cmd_enroll)

    p = sub.add_parser("grade", parents=[base, backend],
                       help="run the grading pipeline for one student and task")
    p.add_argument("--user", required=True, metavar="NAME")
    p.add_argument("--task", required=True, metavar="ID")
    p.add_argument("--json", metavar="FILE",
                   help="also write the report as JSON")
    p.set_defaults(handler=_cmd_grade)

    p = sub.add_parser("stats", parents=[base, backend],
                       help="per-day commit activity table")
    p.add_argument("--from", dest="start", required=True,
                   type=date.fromisoformat, metavar="YYYY-MM-DD")
    p.add_argument("--to", dest="end", required=True,
                   type=date.fromisoformat, metavar="YYYY-MM-DD")
    p.add_argument("--json", metavar="FILE",
                   help="also write activity and grade distributions as JSON")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("archive-export", parents=[base],
                       help="export newest archived submissions for one task")
    p.add_argument("--task", required=True, metavar="ID")
    p.add_argument("--dest", required=True, metavar="DIR")
    p.add_argument("--store", metavar="DIR",
                   help="archive store (default: <state>/archive)")
    p.set_defaults(handler=_cmd_archive_export)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    verbose = getattr(args, "verbose", False)
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    cmd = args.command
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        _result(False, cmd, code=1, reason="config")
        return 1
    except MarkerViolationError as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        _result(False, cmd, code=2, reason="marker-violations",
                count=len(exc.violations))
        return 2
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        _result(False, cmd, code=2, reason=type(exc).__name__)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _result(False, cmd, code=2, reason="io")
        return 2
    except Exception as exc:
        # A defect, not a pipeline outcome: still end in a RESULT line.
        if verbose:
            traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        _result(False, cmd, code=2, reason="internal")
        return 2


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
