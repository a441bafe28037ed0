"""Per-layer metrics: span self times from traced CLI runs, plus probes.

Spans come from ``tracer.py``; a span's self time is its duration minus
the durations of its direct children. Probes call public functions of the
program directly on the run's final state, for the figures no CLI command
isolates (import time, hashing, walking, ledger lookups, process spawns).
A name the program no longer has leaves its metric out.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

# metric -> span name whose median self time it reports
SPAN_TIMES = {
    "config.load_config_s": "config.load_config",
    "repomodel.load_state_s": "repomodel.InMemoryHosting.load_state",
    "repomodel.save_state_s": "repomodel.InMemoryHosting.save_state",
    "repomodel.list_repos_s": "repomodel.InMemoryHosting.list_repos",
    "repomodel.is_ancestor_s": "repomodel.is_ancestor",
    "repomodel.snapshot_to_dir_s": "repomodel.snapshot_to_dir",
    "repomodel.snapshot_from_dir_s": "repomodel.snapshot_from_dir",
    "stripper.strip_snapshot_s": "stripper.strip_snapshot",
    "publisher.publish_template_s": "publisher.publish_template",
    "grader.grade_task_s": "grader.grade_task",
    "grader.assemble_s": "grader.assemble_grading_project",
    "grader.archive_submission_s": "grader.archive_submission",
    "grader.run_graded_tests_s": "grader.run_graded_tests",
    "grader.ledger_records_s": "grader.GradeLedger.records",
    "grader.export_archives_s": "grader.export_archives",
    "executor.compile_s": "executor.LocalProcessExecutor.compile",
    "executor.run_test_s": "executor.LocalProcessExecutor.run_test",
    "analytics.commit_activity_s": "analytics.commit_activity",
    "analytics.grade_progress_s": "analytics.grade_progress",
}
UNITS = {"repomodel.state_bytes_per_unique_byte": "ratio",
         "repomodel.verify_mb_per_s": "MB/s",
         "repomodel.walk_commits_per_s": "1/s",
         "stripper.lines_per_s": "1/s",
         "enrollment.ledger_reads_per_student": "count"}
STATE_REPOS = ("-template", "-solutions")


def with_self_times(spans: list) -> list:
    """[name, duration, self time, note] for every finished span."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    return [[s[0], s[2] - s[1], s[2] - s[1] - child[i], s[4]]
            for i, s in enumerate(spans) if s[2] is not None]


def span_metrics(processes: list) -> tuple[dict, dict]:
    """Per-layer values from the spans of every traced CLI process.

    ``processes`` holds (command, roster students, wall seconds, spans).
    Returns the metrics and reference figures for the README: the share
    of each grade's wall time spent in load_state and in the executor, and
    of each enroll's in enrollment-ledger reads and in save_state.
    """
    selfs: dict = {}
    strip_rates, enroll_each, fetches, scans = [], [], [], []
    ledger_reads = roster_students = 0
    share: dict = {}
    for command, students, wall, spans in processes:
        rows = with_self_times(spans)
        for name, total, own, note in rows:
            selfs.setdefault(name, []).append(own)
            if name == "stripper.strip_snapshot" and own > 0:
                strip_rates.append(note / own)
            elif name == "enrollment.enroll":
                enroll_each.append(own)
            elif name == "enrollment.enroll_group":
                enroll_each.append(own / max(1, note))
            elif name == "repomodel.InMemoryHosting.fetch" \
                    and not str(note).endswith(STATE_REPOS):
                fetches.append(own)
            elif name == "grader.scan_forbidden" and note:
                scans.append(own)
        if command == "enroll":
            roster_students += students
            ledger_reads += sum(1 for r in rows
                                if r[0] == "enrollment.EnrollmentLedger.records")
            share.setdefault("enroll_ledger_share", []).append(sum(
                r[2] for r in rows
                if r[0].startswith("enrollment.EnrollmentLedger.")) / wall)
            share.setdefault("enroll_save_state_share", []).append(sum(
                r[1] for r in rows
                if r[0] == "repomodel.InMemoryHosting.save_state") / wall)
        if command == "grade":
            share.setdefault("grade_load_state_share", []).append(sum(
                r[1] for r in rows
                if r[0] == "repomodel.InMemoryHosting.load_state") / wall)
            share.setdefault("grade_executor_share", []).append(sum(
                r[1] for r in rows
                if r[0].startswith("executor.")) / wall)
    out = {m: statistics.median(selfs[s]) for m, s in SPAN_TIMES.items()
           if selfs.get(s)}
    if strip_rates:
        out["stripper.lines_per_s"] = statistics.median(strip_rates)
    if enroll_each:
        out["enrollment.enroll_s"] = statistics.median(enroll_each)
    if fetches:
        out["repomodel.fetch_s"] = statistics.median(fetches)
    if scans:
        out["grader.scan_forbidden_s"] = statistics.median(scans)
    if roster_students and "enrollment.EnrollmentLedger.records" in selfs:
        out["enrollment.ledger_reads_per_student"] = \
            ledger_reads / roster_students
    return out, {k: statistics.median(v) for k, v in share.items()}


def _median_time(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_import(env: dict, repeat: int = 5) -> dict:
    """``import courseforge.cli`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import courseforge.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeat):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout.strip()))
    return {"cli.import_s": statistics.median(times)}


def probe_state(state_file: Path, ledger_file: Path, workdir: Path) -> dict:
    """Probes on the final state: size ratio, hashing, walks, lookups,
    spawns. Each probe is skipped when the call it times is gone."""
    import courseforge.repomodel as rm
    import courseforge.enrollment as en
    import courseforge.executor as ex

    out: dict = {}
    hosting = rm.InMemoryHosting.load_state(state_file)
    repos = hosting.list_repos()
    commits = [c for r in repos for c in r.commits.values()]
    unique = {}
    for c in commits:
        for _, data in c.snapshot.items():
            unique[data] = len(data)
    out["repomodel.state_bytes_per_unique_byte"] = \
        state_file.stat().st_size / max(1, sum(unique.values()))

    if hasattr(rm.Commit, "verify"):
        # fresh trees, so no digest cached by the load is reused
        fresh = [rm.Commit(c.commit_id, c.parents,
                           rm.Snapshot(dict(c.snapshot.items())), c.message,
                           c.author, c.timestamp) for c in commits]
        hashed = sum(len(d) for c in fresh for _, d in c.snapshot.items())
        start = time.perf_counter()
        for c in fresh:
            c.verify()
        out["repomodel.verify_mb_per_s"] = \
            hashed / 2**20 / (time.perf_counter() - start)
        del fresh

    walk = getattr(rm, "walk", None)
    if walk is not None:
        students = [r for r in repos if not r.name.endswith(STATE_REPOS)
                    and r.head() is not None]
        start = time.perf_counter()
        walked = sum(sum(1 for _ in walk(r, r.head())) for r in students)
        out["repomodel.walk_commits_per_s"] = \
            walked / (time.perf_counter() - start)
    del hosting, repos, commits

    ledger_cls = getattr(en, "EnrollmentLedger", None)
    if ledger_cls is not None and hasattr(ledger_cls, "find"):
        last = json.loads(ledger_file.read_text().splitlines()[-1])["username"]
        ledger = ledger_cls(ledger_file)
        out["enrollment.ledger_find_s"] = _median_time(
            lambda: ledger.find(last), 5)

    executor_cls = getattr(ex, "LocalProcessExecutor", None)
    if executor_cls is not None:
        executor = executor_cls(None, ["true", "{test_id}"])
        out["executor.spawn_s"] = _median_time(
            lambda: executor.run_test(workdir, "probe", None, 10.0), 15)
    return out
