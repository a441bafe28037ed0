"""Secure grading pipeline: weighted manifests, isolated runs, grade ledger.

Grading a task walks seven steps: (1) fetch the student, template and
teacher repositories; (2) require the template head to be an ancestor of
the student head (staleness is feedback, not execution); assemble a
grading tree where (3) every replaced path comes from the teacher and (4)
sensitive files are gone; (5) compile and (6) run the manifest's tests
through an Executor, up to one per usable CPU at once, aggregating a
weighted grade with feedback that is appended to the grade ledger; and
only then (7) archive the marked submission files, so every archived
submission has a grade record.

Student code never runs when the repository is stale, and tampering with a
replaced path cannot affect the grade because the teacher's bytes win.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from courseforge.config import (
    CourseConfig,
    Fields,
    TaskDef,
    require_distinct,
)
from courseforge.enrollment import default_ledger, repo_student_name
from courseforge.executor import Executor, TestStatus
from courseforge.ledger import JsonlLedger
from courseforge.repomodel import (
    Repo,
    Snapshot,
    is_ancestor,
    snapshot_to_dir,
)


class GraderError(Exception):
    """Raised for manifest problems, misconfiguration, or pipeline failures."""


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

COMPILE_STEP = "compile"  # the compile step's outcome id, which no test takes


@dataclass(frozen=True)
class GradedTest:
    """One graded test declaration."""

    test_id: str
    weight: float = 1.0
    cpu_timeout: float | None = None
    wall_timeout: float | None = None
    feedback_on_fail: str | None = None
    forbidden: tuple[str, ...] = ()
    depends_on: str | None = None

    def __post_init__(self) -> None:
        if not self.test_id:
            raise GraderError("test 'id' must be a non-empty string")
        if not all(self.forbidden):
            raise GraderError(
                f"test '{self.test_id}': forbidden prefixes must be non-empty")
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise GraderError(
                f"test '{self.test_id}': weight must be >= 0 and finite")
        for name, value in (("cpu_timeout", self.cpu_timeout),
                            ("wall_timeout", self.wall_timeout)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise GraderError(
                    f"test '{self.test_id}': {name} must be > 0 and finite")


@dataclass(frozen=True)
class GradeManifest:
    suite_max: float = 1.0
    tests: tuple[GradedTest, ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.suite_max) and self.suite_max > 0):
            raise GraderError("suite_max must be > 0 and finite")
        require_distinct((t.test_id for t in self.tests), "test id",
                         GraderError)
        # a test depends only on one declared before it, so no chain cycles
        earlier: set[str] = set()
        for t in self.tests:
            if t.test_id == COMPILE_STEP:
                raise GraderError(f"test id '{COMPILE_STEP}' is reserved for "
                                  f"the compile step")
            if t.depends_on is not None and t.depends_on not in earlier:
                raise GraderError(
                    f"test '{t.test_id}' depends on '{t.depends_on}', which "
                    f"is not a test declared before it")
            earlier.add(t.test_id)


_TEST_KEYS = {"id", "weight", "cpu_timeout", "wall_timeout", "feedback_on_fail",
              "forbidden", "depends_on"}


def parse_manifest(text: str, source: str = "<manifest>") -> GradeManifest:
    """Parse a manifest file; schema documented in ``docs/formats.md``."""
    doc = Fields.load(text, {"suite_max", "tests"}, source, GraderError)
    tests = []
    for t in doc.entries("tests", _TEST_KEYS, "test"):
        # a null field of a test reads as absent
        t.data = {key: value for key, value in t.data.items() if value is not None}
        tests.append(t.construct(
            GradedTest, t.string("id"), t.number("weight", 1.0),
            t.number("cpu_timeout"), t.number("wall_timeout"),
            t.string("feedback_on_fail", None),
            t.strings("forbidden", single=True), t.string("depends_on", None)))
    return doc.construct(GradeManifest,
                         doc.number("suite_max", 1.0, name="suite_max"),
                         tuple(tests))


def load_manifest(teacher_snap: Snapshot, task: TaskDef) -> GradeManifest:
    data = teacher_snap.get(task.manifest_path)
    if data is None:
        raise GraderError(
            f"manifest for task '{task.task_id}' not found at "
            f"{task.manifest_path!r} in the teacher repository")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise GraderError(f"manifest {task.manifest_path!r} is not UTF-8") from None
    return parse_manifest(text, source=task.manifest_path)


# ---------------------------------------------------------------------------
# Outcomes and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestOutcome:
    test_id: str
    status: TestStatus
    duration_wall: float
    duration_cpu: float | None
    detail: str = ""
    exit_code: int | None = None
    term_signal: int | None = None


@dataclass(frozen=True)
class GradeReport:
    """One grading run. Its fields, and those of each outcome, are the keys
    of the ``grade --json`` document, in order."""

    task_id: str
    commit_id: str
    earned: float
    maximum: float
    up_to_date: bool
    messages: tuple[str, ...]
    outcomes: tuple[TestOutcome, ...]


def aggregate_grade(manifest: GradeManifest, outcomes: list[TestOutcome] |
                    tuple[TestOutcome, ...], *, task_id: str = "",
                    commit_id: str = "") -> GradeReport:
    """Weighted aggregation of one up-to-date run's outcomes into a report.

    earned = suite_max * (sum of weights of PASS tests) / (sum of all
    weights); an all-zero weight table earns 0. Feedback messages collect
    ``feedback_on_fail`` for every declared test that did not pass.

    The outcomes must cover the manifest's tests exactly, in any order; the
    single outcome of a failed compile step is the one allowed exception.

    Raises:
        GraderError: when outcomes and manifest do not line up.
    """
    outcomes = tuple(outcomes)
    expected = [t.test_id for t in manifest.tests]
    got = [o.test_id for o in outcomes]
    compile_error = got == [COMPILE_STEP]
    if not compile_error and sorted(got) != sorted(expected):
        raise GraderError(
            f"outcomes do not match the manifest: expected {sorted(expected)}, "
            f"got {sorted(got)}")

    messages: list[str] = []
    earned = 0.0
    if not compile_error:
        by_id = {o.test_id: o for o in outcomes}
        total = sum(t.weight for t in manifest.tests)
        passed = sum(t.weight for t in manifest.tests
                     if by_id[t.test_id].status is TestStatus.PASS)
        earned = manifest.suite_max * passed / total if total > 0 else 0.0
        for t in manifest.tests:
            if t.feedback_on_fail and by_id[t.test_id].status is not TestStatus.PASS:
                messages.append(t.feedback_on_fail)
    return GradeReport(task_id, commit_id, earned, manifest.suite_max, True,
                       tuple(messages), outcomes)


def render_report(report: GradeReport) -> str:
    """Human-readable report block: one line per test, feedback, total."""
    lines = [f"task: {report.task_id}",
             f"commit: {report.commit_id}",
             f"up to date: {'yes' if report.up_to_date else 'NO'}"]
    for o in report.outcomes:
        status = o.status.name.ljust(12)
        lines.append(f"  {status} {o.test_id}  ({o.duration_wall:.2f}s)")
    if report.messages:
        lines.append("feedback:")
        lines.extend(f"  - {m}" for m in report.messages)
    lines.append(f"grade: {report.earned:g} / {report.maximum:g}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipeline steps
# ---------------------------------------------------------------------------

def check_up_to_date(student: Repo, template: Repo) -> tuple[bool, str]:
    """Step 2: is the template head an ancestor of the student head?

    Returns (flag, remediation); the remediation text spells out the fetch
    and merge commands a student needs when the flag is false.
    """
    template_head = template.head()
    if template_head is None:
        return True, ""
    student_head = student.head()
    ok = (student_head is not None
          and template_head in student.commits
          and is_ancestor(student, template_head, student_head))
    if ok:
        return True, ""
    branch = template.default_branch
    remediation = (
        f"Your repository does not contain the latest template commit "
        f"({template_head[:12]}). Integrate the update, then push and "
        f"submit again:\n"
        f"    git fetch template\n"
        f"    git merge template/{branch}\n"
        f"Resolve any conflicts, commit, and push before resubmitting.")
    return False, remediation


def assemble_grading_project(student_snap: Snapshot, teacher_snap: Snapshot,
                             config: CourseConfig) -> Snapshot:
    """Steps 3 and 4: teacher files win on replaced paths, secrets drop out.

    Every path matching ``replaced_paths`` is taken from the teacher tree
    (hidden tests included, whether or not the student has the path), and
    every path matching ``sensitive_patterns`` is removed. A student path
    where the teacher's files need a directory, or under one of them, is
    dropped too, so the teacher's tree wins there as well.

    Raises:
        GraderError: when a replaced-path pattern matches nothing in the
            teacher tree, which indicates a misconfigured course.
    """
    replaced = config.replaced
    unmatched = replaced.unmatched_patterns(teacher_snap.paths())
    if unmatched:
        raise GraderError(
            "replaced_paths pattern(s) match nothing in the teacher "
            "repository: " + ", ".join(sorted(unmatched)))
    teacher = {p: d for p, d in teacher_snap.items() if replaced.matches(p)}
    teacher_dirs = {p[:i] for p in teacher for i, c in enumerate(p) if c == "/"}
    entries = {p: d for p, d in student_snap.items()
               if not replaced.matches(p) and p not in teacher_dirs
               and not any(p[:i] in teacher for i, c in enumerate(p) if c == "/")}
    entries.update(teacher)
    sensitive = config.sensitive
    entries = {p: d for p, d in entries.items() if not sensitive.matches(p)}
    return Snapshot(entries)


def archive_submission(student: Repo, commit_id: str, config: CourseConfig,
                       store: str | Path, *, task_id: str) -> str:
    """Step 7: persist a graded submission's marked files for later analysis.

    The archive key is ``task/username/commit``; re-archiving an existing
    key is a no-op, also when another call archives it at the same time.
    The username is recovered from the repository name.

    Returns the archive key.
    """
    snap = student.get_commit(commit_id).snapshot
    username = repo_student_name(config, student.name)
    key = f"{task_id}/{username}/{commit_id}"
    target = Path(store) / task_id / username / commit_id
    if target.exists():
        return key
    archived = config.archived
    target.parent.mkdir(parents=True, exist_ok=True)
    # a temporary directory per call, so two archives of one key cannot meet
    tmp = Path(tempfile.mkdtemp(prefix=f"{commit_id}.", suffix=".tmp",
                                dir=target.parent))
    try:
        # mkdtemp makes it private; an archive keeps its parent's mode
        tmp.chmod(target.parent.stat().st_mode & 0o777)
        for path, data in snap.items():
            if not archived.matches(path):
                continue
            dest = tmp / "files" / path
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(data)
        now = time.time_ns()
        meta = {"username": username, "task_id": task_id, "commit_id": commit_id,
                "archived_at": now // 10**9, "archived_ns": now}
        (tmp / "meta.json").write_text(
            json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")
        tmp.rename(target)
    except BaseException as exc:
        shutil.rmtree(tmp, ignore_errors=True)
        if not isinstance(exc, OSError) or not target.is_dir():
            raise
        # another call archived this key first
    return key


def _archived_ns(meta_path: Path) -> int:
    """When an archive was written, by its ``meta.json``. A damaged file is
    an error, not a skipped archive: skipping it could export an older
    submission."""
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise GraderError(f"{meta_path}: malformed archive metadata: {exc}") \
            from None
    if isinstance(meta, dict):
        at = meta.get("archived_at", 0)
        ns = meta.get("archived_ns", at * 10**9 if type(at) is int else None)
        if type(at) is int and type(ns) is int:
            return ns
    raise GraderError(f"{meta_path}: malformed archive metadata: not an "
                      f"object whose archived_at and archived_ns are integers")


def export_archives(store: str | Path, task_id: str,
                    dest: str | Path) -> list[Path]:
    """Materialize each student's newest archived submission for one task.

    Produces one directory per student under ``dest`` (layout a plagiarism
    checker can consume directly). Returns the created directories.
    """
    task_dir = Path(store) / task_id
    created: list[Path] = []
    if not task_dir.is_dir():
        return created
    for user_dir in sorted(p for p in task_dir.iterdir() if p.is_dir()):
        best: tuple[int, str] | None = None
        for commit_dir in user_dir.iterdir():
            meta_path = commit_dir / "meta.json"
            # a staging copy a killed grade left is not an archived submission
            if not re.fullmatch("[0-9a-f]{64}", commit_dir.name) \
                    or not meta_path.is_file():
                continue
            rank = (_archived_ns(meta_path), commit_dir.name)
            if best is None or rank > best:
                best = rank
        if best is None:
            continue
        src = user_dir / best[1] / "files"
        out = Path(dest) / user_dir.name
        if out.exists():
            shutil.rmtree(out)
        if src.is_dir():
            shutil.copytree(src, out)
        else:
            out.mkdir(parents=True)
        created.append(out)
    return created


@dataclass(frozen=True)
class ForbiddenViolation:
    path: str
    line: int
    prefix: str
    reference: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}: forbidden dependency "
                f"{self.reference!r} (prefix {self.prefix!r})")


_NAME_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def scan_forbidden(snapshot: Snapshot, test: GradedTest,
                   config: CourseConfig) -> list[ForbiddenViolation]:
    """Static check of one test's forbidden dependency prefixes.

    Only student-authored source files count: paths matching replaced_paths
    are the teacher's and are skipped, as are files without a dialect or
    that are not text. A reference is any dotted-name token whose spelling
    starts with a forbidden prefix.
    """
    if not test.forbidden:
        return []
    replaced = config.replaced
    violations: list[ForbiddenViolation] = []
    for path, data in snapshot.items():
        if replaced.matches(path) or config.dialect_for(path) is None:
            continue
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            continue
        for line_no, line in enumerate(text.splitlines(), start=1):
            for m in _NAME_RE.finditer(line):
                token = m.group()
                for prefix in test.forbidden:
                    if token.startswith(prefix):
                        violations.append(
                            ForbiddenViolation(path, line_no, prefix, token))
                        break
    return violations


def run_graded_tests(project: Snapshot, manifest: GradeManifest,
                     executor: Executor,
                     config: CourseConfig | None = None) -> list[TestOutcome]:
    """Steps 5 and 6: compile, then run the manifest's tests.

    A compile failure stops everything and yields the single ERROR outcome
    (test id ``COMPILE_STEP``) carrying the compiler's message. Tests start
    in declaration order, once their dependency has finished and the
    previous start has its process, at most one per usable CPU at a time.
    Tests whose dependency did not pass are SKIPPED without running;
    forbidden-dependency hits (scanned when a config is supplied)
    preempt execution with a FORBIDDEN outcome. After a run raises, no test
    starts and the error propagates once the running ones have ended.
    """
    with tempfile.TemporaryDirectory(prefix="grading-") as tmp:
        workdir = Path(tmp)
        snapshot_to_dir(project, workdir)
        ok, message = executor.compile(workdir)
        if not ok:
            return [TestOutcome(COMPILE_STEP, TestStatus.ERROR, 0.0, None, message)]
        outcomes: dict[str, TestOutcome] = {}
        pending = list(manifest.tests)
        running: dict[Future, GradedTest] = {}
        workers = len(os.sched_getaffinity(0))
        with ThreadPoolExecutor(workers) as pool:
            while pending or running:
                # a test waits while the test it depends on waits or runs;
                # declared before it, that test has otherwise ended
                waiting = {t.test_id for t in running.values()}
                for test in list(pending):
                    if test.depends_on in waiting:
                        waiting.add(test.test_id)
                        continue
                    if test.depends_on and outcomes[test.depends_on].status \
                            is not TestStatus.PASS:
                        outcomes[test.test_id] = TestOutcome(
                            test.test_id, TestStatus.SKIPPED, 0.0, None,
                            f"dependency '{test.depends_on}' did not pass")
                    elif len(running) == workers:
                        break
                    elif hits := (scan_forbidden(project, test, config)
                                  if config is not None else []):
                        outcomes[test.test_id] = TestOutcome(
                            test.test_id, TestStatus.FORBIDDEN, 0.0, None,
                            "\n".join(str(v) for v in hits))
                    else:
                        started = threading.Event()
                        future = pool.submit(
                            executor.run_test, workdir, test.test_id,
                            test.cpu_timeout, test.wall_timeout,
                            started=started.set)
                        # a run that fails before its process exists
                        future.add_done_callback(lambda _, s=started: s.set())
                        started.wait()
                        if future.done():
                            future.result()  # raises if it failed
                        running[future] = test
                        waiting.add(test.test_id)
                    pending.remove(test)
                for future in (wait(running, return_when=FIRST_COMPLETED).done
                               if running else ()):
                    test, raw = running.pop(future), future.result()
                    outcomes[test.test_id] = TestOutcome(
                        test.test_id, raw.status, raw.wall_seconds,
                        raw.cpu_seconds, raw.output, raw.exit_code,
                        raw.term_signal)
        return [outcomes[t.test_id] for t in manifest.tests]


# ---------------------------------------------------------------------------
# Grade ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradeRecord:
    username: str
    task_id: str
    commit_id: str
    earned: float
    maximum: float
    authoritative: bool
    graded_at: int


class GradeLedger(JsonlLedger[GradeRecord]):
    """Append-only JSONL store of grading results; first line is a header."""

    FORMAT = "grade-ledger"
    KIND = "grade"
    ERROR = GraderError
    RECORD = GradeRecord

    def records(self) -> list[GradeRecord]:
        return list(self._read())


def default_grade_ledger(config: CourseConfig) -> GradeLedger:
    return GradeLedger(Path(config.state_dir) / "grades.jsonl")


def default_archive_store(config: CourseConfig) -> Path:
    return Path(config.state_dir) / "archive"


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

def grade_task(hosting, username: str, task_id: str, config: CourseConfig,
               executor: Executor) -> GradeReport:
    """Run the whole grading pipeline for one student and task.

    A stale repository (template head not merged) short-circuits with
    up_to_date=False, earned 0, remediation feedback, and no student code
    executed or archived; its ledger record is flagged non-authoritative.

    Raises:
        GraderError: unknown user or task, missing manifest, misconfigured
            replaced paths.
    """
    task = config.task(task_id)
    record = default_ledger(config).find(username)
    if record is None:
        raise GraderError(f"user '{username}' is not enrolled")

    # step 1: retrieve the three repositories
    student = hosting.fetch(record.repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    head = student.head()
    if head is None:
        raise GraderError(f"repository {record.repo_name} has no commits")
    teacher_snap = teacher.head_commit().snapshot
    manifest = load_manifest(teacher_snap, task)

    # step 2: up-to-date gate
    up_to_date, remediation = check_up_to_date(student, template)
    if up_to_date:
        # steps 3-6: teacher files in, sensitive files out, compile and test
        project = assemble_grading_project(student.get_commit(head).snapshot,
                                           teacher_snap, config)
        report = aggregate_grade(
            manifest, run_graded_tests(project, manifest, executor, config),
            task_id=task_id, commit_id=head)
    else:
        report = GradeReport(task_id, head, 0.0, manifest.suite_max, False,
                             (remediation,), ())
    default_grade_ledger(config).append(GradeRecord(
        username, task_id, head, report.earned, report.maximum,
        report.up_to_date, int(time.time())))

    # step 7: archive marked files for plagiarism tooling
    if report.up_to_date:
        archive_submission(student, head, config,
                           default_archive_store(config), task_id=task_id)
    return report
