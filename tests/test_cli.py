"""End-user command-line behavior: exit codes, RESULT lines, workflows.

All invocations go through dispatch() in-process; stdout and stderr are
captured with capsys. The memory backend persists to a state file, so
each dispatch call is a fresh process as far as the tool can tell.
"""

from datetime import datetime, timezone
from pathlib import Path

import json
import os
import re
import signal
import subprocess
import threading
import time

import pytest

import courseforge
from courseforge.cli import _open_backend, dispatch
from courseforge.config import load_config
from courseforge.grader import GradeRecord, default_grade_ledger
from courseforge.remote import TOKEN_ENV
from courseforge.repomodel import InMemoryHosting, snapshot_to_dir
from util import (
    PYTHON,
    SOLVED_COUNTER,
    course_yaml,
    solution_files,
    solution_snapshot,
    student_commit,
)

TEMPLATE_COUNTER = (
    'def increment(x):\n'
    '    raise NotImplementedError("increment")\n'
    '\n'
    '\n'
    'def scale(x, factor):\n'
    '    raise NotImplementedError("scale")\n'
)


def _write_course(tmp_path) -> str:
    path = tmp_path / "course.yaml"
    path.write_text(course_yaml(), encoding="utf-8")
    return str(path)


def _write_solution(tmp_path, files: dict[str, bytes] | None = None) -> str:
    target = tmp_path / "solution"
    snapshot_to_dir(solution_snapshot() if files is None
                    else solution_snapshot().with_files(files), target)
    return str(target)


def _run(capsys, argv):
    rc = dispatch(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _last(out: str) -> str:
    return out.strip().splitlines()[-1]


def _push_solved(tmp_path, config_path: str, username: str = "alice",
                 counter: str = SOLVED_COUNTER) -> str:
    """Student work between CLI runs: load the state file, commit, save."""
    state = tmp_path / "state" / "hosting-state.json"
    hosting = InMemoryHosting.load_state(state)
    config = load_config(config_path)
    head = student_commit(hosting, config, username,
                          {"counter.py": counter.encode()},
                          message="Solve t1")
    hosting.save_state(state)
    return head


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--help"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert "archive-export" in out


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 1
    _, err = capsys.readouterr()
    assert "error:" in err


def test_missing_required_option_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["grade", "--config", _write_course(tmp_path),
                  "--user", "alice"])  # --task missing
    assert exc.value.code == 1


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc, out, err = _run(capsys, [
        "strip", "--config", str(tmp_path / "nope.yaml"),
        "--in", _write_solution(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "configuration error:" in err
    assert _last(out) == "RESULT error cmd=strip code=1 reason=config"


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "course.yaml"
    path.write_bytes(course_yaml().encode() + "# caf\u00e9\n".encode("latin-1"))
    rc, out, err = _run(capsys, [
        "strip", "--config", str(path),
        "--in", _write_solution(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"configuration error: cannot read config file {path}" in err
    assert _last(out) == "RESULT error cmd=strip code=1 reason=config"


def test_grade_with_a_test_command_lacking_the_placeholder_exits_one(
        tmp_path, capsys):
    path = tmp_path / "course.yaml"
    path.write_text(course_yaml().replace("{test_id}", "all"), encoding="utf-8")
    rc, out, err = _run(capsys, ["grade", "--config", str(path),
                                 "--user", "alice", "--task", "t1"])
    assert rc == 1
    assert "executor.test_command" in err
    assert _last(out) == "RESULT error cmd=grade code=1 reason=config"


@pytest.mark.parametrize("argv", [
    ["stats", "--from", "2026-01-01", "--to", "2026-01-01"],
    ["publish"], ["enroll", "--user", "alice"],
    ["grade", "--user", "alice", "--task", "t1"],
], ids=lambda argv: argv[0])
def test_an_unknown_timezone_fails_every_command_at_load(tmp_path, capsys,
                                                         argv):
    path = tmp_path / "course.yaml"
    path.write_text(course_yaml().replace("timezone: UTC", "timezone: ../x"),
                    encoding="utf-8")
    rc, out, err = _run(capsys, [argv[0], "--config", str(path), *argv[1:]])
    assert rc == 1
    assert f"configuration error: {path}: unknown timezone '../x'" in err
    assert _last(out) == f"RESULT error cmd={argv[0]} code=1 reason=config"
    assert not (tmp_path / "state").exists()


def test_strip_writes_template_tree(tmp_path, capsys):
    out_dir = tmp_path / "template"
    rc, out, _ = _run(capsys, [
        "strip", "--config", _write_course(tmp_path),
        "--in", _write_solution(tmp_path), "--out", str(out_dir)])
    assert rc == 0
    assert _last(out) == f"RESULT ok cmd=strip files=5 out={out_dir}"
    assert (out_dir / "counter.py").read_text() == TEMPLATE_COUNTER
    assert (out_dir / "tests" / "mytest1.py").exists()
    assert not (out_dir / "tests" / "hidden_prop.py").exists()
    assert not (out_dir / "tasks").exists()
    assert (out_dir / "logo.bin").read_bytes() == bytes(range(256))


def test_strip_reports_marker_violations(tmp_path, capsys):
    bad = b"def f():\n    # BEGIN STRIP\n    return 1\n"  # never closed
    rc, out, err = _run(capsys, [
        "strip", "--config", _write_course(tmp_path),
        "--in", _write_solution(tmp_path, {"counter.py": bad}),
        "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "counter.py:2: unclosed-begin" in err
    assert _last(out) == ("RESULT error cmd=strip code=2 "
                          "reason=marker-violations count=1")
    assert not (tmp_path / "out").exists()  # nothing half-written


def test_full_workflow_on_the_memory_backend(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    solution_dir = _write_solution(tmp_path)

    # publish: ingest the working tree, gate on the suite, push the template
    rc, out, _ = _run(capsys, [
        "publish", "--config", config_path, "--teacher-dir", solution_dir])
    assert rc == 0
    last = _last(out)
    assert last.startswith("RESULT ok cmd=publish status=published commit=")
    assert out.splitlines()[0].startswith("template updated to ")
    assert (tmp_path / "state" / "hosting-state.json").exists()

    # publishing again without changes is a no-op
    rc, out, _ = _run(capsys, [
        "publish", "--config", config_path, "--teacher-dir", solution_dir])
    assert rc == 0
    assert "status=unchanged" in _last(out)

    # enroll one student
    rc, out, _ = _run(capsys, [
        "enroll", "--config", config_path, "--user", "alice"])
    assert rc == 0
    assert out.splitlines()[0].startswith("enrolled alice -> cs101-alice")
    assert _last(out) == "RESULT ok cmd=enroll count=1"

    # the student solves the task between CLI runs
    head = _push_solved(tmp_path, config_path)

    # grade: full marks, report rendered, JSON written
    report_json = tmp_path / "report.json"
    rc, out, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1",
        "--json", str(report_json)])
    assert rc == 0
    assert "up to date: yes" in out
    assert "grade: 1 / 1" in out
    assert _last(out) == ("RESULT ok cmd=grade user=alice task=t1 "
                          "earned=1 maximum=1 up_to_date=true")
    doc = json.loads(report_json.read_text())
    assert doc["commit_id"] == head
    assert doc["earned"] == 1.0 and doc["maximum"] == 1.0
    assert [o["status"] for o in doc["outcomes"]] == ["PASS", "PASS", "PASS"]

    # stats: alice's history holds template + enrollment + work commits
    today = datetime.now(timezone.utc).date().isoformat()
    stats_json = tmp_path / "stats.json"
    rc, out, _ = _run(capsys, [
        "stats", "--config", config_path, "--from", today, "--to", today,
        "--json", str(stats_json)])
    assert rc == 0
    assert out.splitlines()[0] == \
        "day\tcommits_total\tcommits_graded\tmerges_excluded"
    assert _last(out) == "RESULT ok cmd=stats days=1"
    doc = json.loads(stats_json.read_text())
    assert doc["activity"][0]["commits_total"] == 3.0
    assert doc["activity"][0]["commits_graded"] == 1.0
    assert doc["grade_progress"] == {"t1": {"1": 1}}

    # archive-export: newest graded submission lands on disk
    dest = tmp_path / "export"
    rc, out, _ = _run(capsys, [
        "archive-export", "--config", config_path, "--task", "t1",
        "--dest", str(dest)])
    assert rc == 0
    assert _last(out) == "RESULT ok cmd=archive-export task=t1 students=1"
    assert (dest / "alice" / "counter.py").read_text() == SOLVED_COUNTER


def test_stale_grade_is_success_with_flag_down(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    backend = f"memory:{tmp_path / 'custom-state.json'}"
    rc, _, _ = _run(capsys, [
        "publish", "--config", config_path, "--backend", backend,
        "--teacher-dir", _write_solution(tmp_path)])
    assert rc == 0
    rc, _, _ = _run(capsys, [
        "enroll", "--config", config_path, "--backend", backend,
        "--user", "bob"])
    assert rc == 0

    # the solution gains a visible line, so the template moves forward
    files = solution_files()
    files["counter.py"] += b"\n\n# counters, revision 2\n"
    revised = tmp_path / "solution-v2"
    snapshot_to_dir(solution_snapshot().with_files(files), revised)
    rc, out, _ = _run(capsys, [
        "publish", "--config", config_path, "--backend", backend,
        "--teacher-dir", str(revised)])
    assert rc == 0
    assert "status=published" in _last(out)

    # bob never merged the update: graded as stale, but the run succeeds
    rc, out, _ = _run(capsys, [
        "grade", "--config", config_path, "--backend", backend,
        "--user", "bob", "--task", "t1"])
    assert rc == 0
    assert "up to date: NO" in out
    assert _last(out) == ("RESULT ok cmd=grade user=bob task=t1 "
                          "earned=0 maximum=1 up_to_date=false")


def test_grade_report_carries_exit_code_and_signal(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    # the hidden test crashes with SIGSEGV on a wrong increment
    crash = (b"import os, resource, signal, sys\n"
             b"sys.path.insert(0, os.getcwd())\n"
             b"from counter import increment\n"
             b"if increment(0) != 1:\n"
             b"    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"
             b"    os.kill(os.getpid(), signal.SIGSEGV)\n")
    solution_dir = _write_solution(tmp_path, {"tests/hidden_prop.py": crash})
    for argv in (["publish", "--teacher-dir", solution_dir],
                 ["enroll", "--user", "alice"]):
        rc, _, _ = _run(capsys, argv + ["--config", config_path])
        assert rc == 0
    _push_solved(tmp_path, config_path,
                 counter=SOLVED_COUNTER.replace("x + 1", "x"))

    report_json = tmp_path / "report.json"
    rc, _, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1",
        "--json", str(report_json)])
    assert rc == 0
    outcomes = {o["test_id"]: o
                for o in json.loads(report_json.read_text())["outcomes"]}
    assert (outcomes["mytest1"]["status"], outcomes["mytest1"]["exit_code"],
            outcomes["mytest1"]["term_signal"]) == ("FAIL", 1, None)
    assert "AssertionError" in outcomes["mytest1"]["detail"]
    assert (outcomes["mytest2"]["exit_code"],
            outcomes["mytest2"]["term_signal"]) == (0, None)
    assert (outcomes["hidden_prop"]["status"],
            outcomes["hidden_prop"]["exit_code"],
            outcomes["hidden_prop"]["term_signal"]) == ("FAIL", None, 11)


def test_publish_abort_exits_two(tmp_path, capsys):
    files = solution_files()
    files["counter.py"] = files["counter.py"].replace(b"x + 1", b"x - 1")
    broken = tmp_path / "solution-broken"
    snapshot_to_dir(solution_snapshot().with_files(files), broken)
    rc, out, err = _run(capsys, [
        "publish", "--config", _write_course(tmp_path),
        "--teacher-dir", str(broken)])
    assert rc == 2
    assert out.splitlines()[0] == \
        "solution test suite failed; template left untouched"
    assert "failing: t1:mytest1" in err
    assert "failing: t1:hidden_prop" in err
    assert _last(out) == "RESULT error cmd=publish status=aborted failing=2"


def test_grade_unknown_student_is_a_pipeline_error(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    rc, _, _ = _run(capsys, [
        "publish", "--config", config_path,
        "--teacher-dir", _write_solution(tmp_path)])
    assert rc == 0
    rc, out, err = _run(capsys, [
        "grade", "--config", config_path, "--user", "mallory", "--task", "t1"])
    assert rc == 2
    assert "not enrolled" in err
    assert _last(out) == "RESULT error cmd=grade code=2 reason=GraderError"


def test_remote_backend_requires_a_url(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("COURSEFORGE_REMOTE_URL", raising=False)
    rc, out, err = _run(capsys, [
        "enroll", "--config", _write_course(tmp_path),
        "--backend", "remote:", "--user", "alice"])
    assert rc == 1
    assert "remote backend needs" in err
    assert _last(out) == "RESULT error cmd=enroll code=1 reason=config"


def test_unknown_backend_kind_is_a_config_error(tmp_path, capsys):
    rc, out, err = _run(capsys, [
        "enroll", "--config", _write_course(tmp_path),
        "--backend", "carrier-pigeon:coop", "--user", "alice"])
    assert rc == 1
    assert "unknown backend" in err
    assert _last(out) == "RESULT error cmd=enroll code=1 reason=config"


def _course_term(root: Path, capsys, backend: str) -> dict:
    """Publish, enroll a student and a group, grade two of them and take
    stats on ``backend``; returns what the commands left, with the test
    durations, grading directories and archive times masked."""
    root.mkdir()
    config_path = _write_course(root)
    results = []

    def run(*argv: str) -> None:
        rc, out, err = _run(capsys, [argv[0], "--config", config_path,
                                     "--backend", backend, *argv[1:]])
        assert rc == 0, err
        results.append(_last(out))

    (root / "roster.txt").write_text("alice\nduo: bob carol\n",
                                     encoding="utf-8")
    run("publish", "--teacher-dir", _write_solution(root))
    run("enroll", "--roster", str(root / "roster.txt"))
    config = load_config(config_path)
    hosting, save = _open_backend(backend, config)
    student_commit(hosting, config, "alice",
                   {"counter.py": SOLVED_COUNTER.encode()})
    save()
    for user in ("alice", "bob"):
        run("grade", "--user", user, "--task", "t1",
            "--json", str(root / f"{user}.json"))
    day = datetime.fromtimestamp(time.time(), timezone.utc).date().isoformat()
    run("stats", "--from", day, "--to", day,
        "--json", str(root / "stats.json"))
    state = root / "state"
    left = {"results": results}
    for name in ("alice.json", "bob.json", "stats.json"):
        text = re.sub(r'("duration_(?:wall|cpu)": )[-+.e0-9]+', r"\1<s>",
                      (root / name).read_text(encoding="utf-8"))
        left[name] = re.sub(r'[^"\s]*/grading-[a-z0-9_]+', "<grading>", text)
    for name in ("enrollment.jsonl", "grades.jsonl"):
        left[name] = (state / name).read_text(encoding="utf-8")
    left["archive"] = {
        str(p.relative_to(state)): re.sub(rb'"archived_(at|ns)": \d+', b"",
                                          p.read_bytes())
        for p in sorted((state / "archive").rglob("*")) if p.is_file()}
    return left


def test_the_cli_leaves_the_same_course_on_remote_and_memory(
        tmp_path, capsys, monkeypatch, bridge):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    monkeypatch.setattr(time, "time", lambda: 1767225600.0)
    remote = _course_term(tmp_path / "remote", capsys, f"remote:{bridge.url}")
    memory = _course_term(tmp_path / "memory", capsys, "memory:")
    assert remote == memory
    assert remote["results"][1] == "RESULT ok cmd=enroll count=3"
    assert remote["results"][2].endswith("earned=1 maximum=1 up_to_date=true")
    assert len(remote["archive"]) == 4  # two submissions, each a file and meta
    assert {r.name for r in bridge.hosting.list_repos()} == {
        "cs101-solutions", "cs101-template", "cs101-alice", "cs101-duo"}


def test_a_template_named_as_the_solution_repository_is_refused(tmp_path,
                                                                capsys):
    """Publishing would push the stripped tree onto the private solution
    history, and enrolling would copy that history to each student."""
    path = tmp_path / "course.yaml"
    path.write_text(course_yaml("template_repo_name: cs101-solutions"),
                    encoding="utf-8")
    rc, out, err = _run(capsys, ["publish", "--config", str(path),
                                 "--teacher-dir", _write_solution(tmp_path)])
    assert rc == 1
    assert "template_repo_name and teacher_repo_name must differ" in err
    assert _last(out) == "RESULT error cmd=publish code=1 reason=config"
    assert not (tmp_path / "state").exists()


def _enrolled_course(tmp_path, capsys) -> str:
    config_path = _write_course(tmp_path)
    for argv in (["publish", "--teacher-dir", _write_solution(tmp_path)],
                 ["enroll", "--user", "alice"]):
        rc, _, _ = _run(capsys, [argv[0], "--config", config_path, *argv[1:]])
        assert rc == 0
    return config_path


def test_verbose_logs_one_line_per_state_load(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    src = str(Path(courseforge.__file__).resolve().parents[1])
    done = subprocess.run(
        [PYTHON, "-m", "courseforge.cli", "stats", "--config", config_path,
         "--from", "2020-01-01", "--to", "2020-01-02", "--verbose"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
    loads = [line for line in done.stderr.splitlines()
             if line.startswith("DEBUG courseforge.repomodel: load_state ")]
    assert len(loads) == 1
    state = tmp_path / "state" / "hosting-state.json"
    assert f" bytes={state.stat().st_size} " in loads[0]
    assert " repos=3 " in loads[0]  # the teacher's, the template, alice's


@pytest.mark.parametrize("stamp", [253402300800, 10 ** 20, -10 ** 13])
def test_stats_counts_a_commit_beyond_the_calendar_on_no_day(tmp_path, capsys,
                                                            stamp):
    config_path = _enrolled_course(tmp_path, capsys)
    today = datetime.now(timezone.utc).date().isoformat()
    argv = ["stats", "--config", config_path, "--from", today, "--to", today,
            "--json", str(tmp_path / "stats.json")]
    rc, _, _ = _run(capsys, argv)
    assert rc == 0
    before = json.loads((tmp_path / "stats.json").read_text())
    state = tmp_path / "state" / "hosting-state.json"
    hosting = InMemoryHosting.load_state(state)
    student_commit(hosting, load_config(config_path), "alice",
                   {"counter.py": b"# from another era\n"}, timestamp=stamp)
    hosting.save_state(state)
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    assert _last(out) == "RESULT ok cmd=stats days=1"
    assert json.loads((tmp_path / "stats.json").read_text()) == before


def test_stats_json_sums_grades_that_print_alike(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    ledger = default_grade_ledger(load_config(config_path))
    for user, earned in (("alice", 1 / 7), ("bob", 100000 / 700001),
                         ("carol", 0.5)):
        ledger.append(GradeRecord(user, "t1", "c" * 64, earned, 1.0, True,
                                  1767225600))
    assert f"{1 / 7:g}" == f"{100000 / 700001:g}" == "0.142857"
    rc, out, _ = _run(capsys, [
        "stats", "--config", config_path, "--from", "2026-01-01",
        "--to", "2026-01-01", "--json", str(tmp_path / "stats.json")])
    assert rc == 0
    assert _last(out) == "RESULT ok cmd=stats days=0"
    doc = json.loads((tmp_path / "stats.json").read_text())
    assert doc["grade_progress"] == {"t1": {"0.142857": 2, "0.5": 1}}


def test_torn_enrollment_ledger_line_ends_in_a_result_line(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    ledger = tmp_path / "state" / "enrollment.jsonl"
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"username": "zz", "repo_na')  # a crash mid-append
    rc, out, err = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 2
    assert f"{ledger}:3: malformed ledger record" in err
    assert "Traceback" not in err
    assert _last(out) == "RESULT error cmd=grade code=2 reason=EnrollmentError"


def test_torn_grade_ledger_line_ends_in_a_result_line(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    rc, _, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 0
    ledger = tmp_path / "state" / "grades.jsonl"
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"authoritative": true, "commit_id": "ab')
    # grade only appends to this ledger; stats is the command that reads it
    today = datetime.now(timezone.utc).date().isoformat()
    rc, out, err = _run(capsys, [
        "stats", "--config", config_path, "--from", today, "--to", today])
    assert rc == 2
    assert f"{ledger}:3: malformed ledger record" in err
    assert "Traceback" not in err
    assert _last(out) == "RESULT error cmd=stats code=2 reason=GraderError"


def test_grade_refuses_to_append_after_a_torn_grade_line(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    rc, _, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 0
    ledger = tmp_path / "state" / "grades.jsonl"
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"authoritative": true, "commit_id": "ab')
    before = ledger.read_bytes()
    rc, out, err = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 2
    assert f"{ledger}:3: torn ledger line" in err
    assert _last(out) == "RESULT error cmd=grade code=2 reason=GraderError"
    assert ledger.read_bytes() == before


def test_grade_whose_record_fails_archives_nothing(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    rc, _, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 0
    archived = tmp_path / "state" / "archive" / "t1" / "alice"
    before = sorted(p.name for p in archived.iterdir())
    ledger = tmp_path / "state" / "grades.jsonl"
    with open(ledger, "a", encoding="utf-8") as fh:
        fh.write('{"authoritative": true, "commit_id": "ab')
    _push_solved(tmp_path, config_path)
    rc, out, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1"])
    assert rc == 2
    assert _last(out) == "RESULT error cmd=grade code=2 reason=GraderError"
    assert sorted(p.name for p in archived.iterdir()) == before
    # the export still holds the submission that has a grade record
    dest = tmp_path / "export"
    rc, out, _ = _run(capsys, [
        "archive-export", "--config", config_path, "--task", "t1",
        "--dest", str(dest)])
    assert rc == 0
    assert (dest / "alice" / "counter.py").read_text() == TEMPLATE_COUNTER


def test_grade_json_to_a_path_it_cannot_write_records_nothing(tmp_path,
                                                               capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    rc, out, err = _run(capsys, [
        "grade", "--config", config_path, "--user", "alice", "--task", "t1",
        "--json", str(tmp_path / "missing" / "dir" / "r.json")])
    assert rc == 2
    assert "No such file or directory" in err
    assert _last(out) == "RESULT error cmd=grade code=2 reason=io"
    assert not (tmp_path / "state" / "grades.jsonl").exists()
    assert not (tmp_path / "state" / "archive").exists()
    report = tmp_path / "r.json"
    rc, out, _ = _run(capsys, [
        "grade", "--config", config_path, "--user", "mallory", "--task", "t1",
        "--json", str(report)])
    assert _last(out) == "RESULT error cmd=grade code=2 reason=GraderError"
    assert report.read_bytes() == b""


def test_enroll_refuses_to_append_after_a_torn_enrollment_line(tmp_path,
                                                               capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    ledger = tmp_path / "state" / "enrollment.jsonl"
    with open(ledger, "a", encoding="utf-8") as fh:
        # torn just before its newline: the record itself still parses
        fh.write('{"created_at": 1767265200, "repo_name": "cs101-zz", '
                 f'"template_commit": "{"e" * 64}", "username": "zz"}}')
    before = ledger.read_bytes()
    rc, out, err = _run(capsys, [
        "enroll", "--config", config_path, "--user", "bob"])
    assert rc == 2
    assert f"{ledger}:3: torn ledger line" in err
    assert _last(out) == \
        "RESULT error cmd=enroll code=2 reason=EnrollmentError"
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("roster", [None, "bob\nsolutions\n"])
def test_enroll_rejects_names_outside_the_course_namespace(tmp_path, capsys,
                                                          roster):
    config_path = _enrolled_course(tmp_path, capsys)
    who = ["--user", "../../../escape"]
    if roster is not None:
        (tmp_path / "roster.txt").write_text(roster, encoding="utf-8")
        who = ["--roster", str(tmp_path / "roster.txt")]
    state = tmp_path / "state"
    files = (state / "hosting-state.json", state / "enrollment.jsonl")
    before = [f.read_bytes() for f in files]
    rc, out, err = _run(capsys, ["enroll", "--config", config_path, *who])
    assert rc == 2
    assert "invalid username" in err
    assert _last(out) == \
        "RESULT error cmd=enroll code=2 reason=EnrollmentError"
    assert [f.read_bytes() for f in files] == before


def _enroll_roster(tmp_path, capsys, config_path: str, roster: str):
    path = tmp_path / "roster.txt"
    path.write_text(roster, encoding="utf-8")
    return _run(capsys, ["enroll", "--config", config_path,
                         "--roster", str(path)])


@pytest.mark.parametrize("earlier, roster", [
    (None, "alice: zz1 zz2\n"),       # a group named after a student
    ("dave: x y\n", "dave\n"),        # a student named after a group
    (None, "dave: x y\ndave\n"),      # both in one roster
], ids=["group-after-student", "student-after-group", "one-roster"])
def test_enroll_refuses_to_join_another_students_repository(
        tmp_path, capsys, earlier, roster):
    config_path = _enrolled_course(tmp_path, capsys)
    if earlier is not None:
        rc, _, _ = _enroll_roster(tmp_path, capsys, config_path, earlier)
        assert rc == 0
    state = tmp_path / "state"
    files = (state / "hosting-state.json", state / "enrollment.jsonl")
    before = [f.read_bytes() for f in files]
    rc, out, err = _enroll_roster(tmp_path, capsys, config_path, roster)
    assert rc == 2
    assert " cannot join repository cs101-" in err
    assert _last(out) == \
        "RESULT error cmd=enroll code=2 reason=EnrollmentError"
    assert [f.read_bytes() for f in files] == before


def test_a_group_grows_and_a_repeated_entry_enrolls(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    rc, _, _ = _enroll_roster(tmp_path, capsys, config_path, "duo: ann ben\n")
    assert rc == 0
    rc, out, _ = _enroll_roster(tmp_path, capsys, config_path,
                                "alice\nduo: ann ben\nduo: ann ben cat\n")
    assert rc == 0
    assert _last(out) == "RESULT ok cmd=enroll count=6"
    hosting = InMemoryHosting.load_state(tmp_path / "state" /
                                         "hosting-state.json")
    assert hosting.fetch("cs101-duo", "coursebot").collaborators \
        == {"ann", "ben", "cat"}


def test_a_roster_that_is_not_utf8_is_an_enrollment_error(tmp_path, capsys):
    config_path = _enrolled_course(tmp_path, capsys)
    roster = tmp_path / "roster.txt"
    roster.write_bytes("bob\ncaf\u00e9\n".encode("latin-1"))
    state = tmp_path / "state"
    files = (state / "hosting-state.json", state / "enrollment.jsonl")
    before = [f.read_bytes() for f in files]
    rc, out, err = _run(capsys, ["enroll", "--config", config_path,
                                 "--roster", str(roster)])
    assert rc == 2
    assert f"error: roster file {roster}: 'utf-8' codec" in err
    assert _last(out) == \
        "RESULT error cmd=enroll code=2 reason=EnrollmentError"
    assert [f.read_bytes() for f in files] == before


@pytest.mark.parametrize("meta", [
    b'{"archived_at": ', b"[1700000000]", b'{"archived_at": "soon"}',
    b'{"archived_ns": null}', b'{"archived_at": 1.5e9}', b"\xff",
], ids=["torn", "list", "string", "null", "float", "not-utf8"])
def test_archive_export_names_a_damaged_meta_json(tmp_path, capsys, meta):
    archive = tmp_path / "store" / "t1" / "alice" / ("a" * 64)
    (archive / "files").mkdir(parents=True)
    (archive / "files" / "counter.py").write_bytes(b"# work\n")
    (archive / "meta.json").write_bytes(meta)
    dest = tmp_path / "export"
    rc, out, err = _run(capsys, [
        "archive-export", "--config", _write_course(tmp_path), "--task", "t1",
        "--dest", str(dest), "--store", str(tmp_path / "store")])
    assert rc == 2
    assert f"error: {archive / 'meta.json'}: malformed archive metadata" in err
    assert _last(out) == \
        "RESULT error cmd=archive-export code=2 reason=GraderError"
    assert not dest.exists()


def test_unexpected_exception_ends_in_internal_result(tmp_path, capsys,
                                                      monkeypatch):
    def broken(snapshot, config):
        raise RuntimeError("boom")

    monkeypatch.setattr("courseforge.cli.strip_snapshot", broken)
    argv = ["strip", "--config", _write_course(tmp_path),
            "--in", _write_solution(tmp_path), "--out", str(tmp_path / "out")]
    rc, out, err = _run(capsys, argv)
    assert rc == 2
    assert "internal error: RuntimeError: boom" in err
    assert "Traceback" not in err
    assert _last(out) == "RESULT error cmd=strip code=2 reason=internal"
    rc, out, err = _run(capsys, [*argv, "--verbose"])
    assert rc == 2
    assert "Traceback" in err and "RuntimeError: boom" in err
    assert _last(out) == "RESULT error cmd=strip code=2 reason=internal"


def test_overlapping_enrolls_keep_every_repo(tmp_path, capsys, monkeypatch):
    config_path = _write_course(tmp_path)
    rc, _, _ = _run(capsys, ["publish", "--config", config_path,
                             "--teacher-dir", _write_solution(tmp_path)])
    assert rc == 0
    saving, second_loaded, release = (threading.Event(), threading.Event(),
                                      threading.Event())
    loads = []
    load_state = InMemoryHosting.load_state
    save_state = InMemoryHosting.save_state

    def counted_load(path):
        hosting = load_state(path)
        loads.append(path)
        if len(loads) == 2:
            second_loaded.set()
        return hosting

    def held_save(self, path):
        saving.set()
        release.wait(timeout=30)
        save_state(self, path)

    monkeypatch.setattr(InMemoryHosting, "load_state",
                        staticmethod(counted_load))
    monkeypatch.setattr(InMemoryHosting, "save_state", held_save)
    codes = {}

    def enroll(user):
        codes[user] = dispatch(["enroll", "--config", config_path,
                                "--user", user])

    first = threading.Thread(target=enroll, args=("u1",))
    second = threading.Thread(target=enroll, args=("u2",))
    first.start()
    assert saving.wait(timeout=30)
    second.start()
    # Without a course lock the second run loads the state the first has
    # not saved yet; with one it waits, and this times out.
    second_loaded.wait(timeout=1.0)
    release.set()
    first.join(timeout=30)
    second.join(timeout=30)
    capsys.readouterr()
    assert codes == {"u1": 0, "u2": 0}
    hosting = load_state(tmp_path / "state" / "hosting-state.json")
    names = {r.name for r in hosting.list_repos()}
    assert {"cs101-u1", "cs101-u2"} <= names


def test_sigkilled_publish_leaves_nothing_to_clean_up(tmp_path, capsys):
    config_path = _write_course(tmp_path)
    solution_dir = _write_solution(tmp_path)
    marker = tmp_path / "test-started"
    # Each test appends its pid, then sleeps until its parent, the CLI, is
    # gone: a test spawned just before the kill has no pid to read yet.
    stall = [PYTHON, "-c",
             "import os, sys, time\n"
             "open(sys.argv[1], 'a').write(f'{os.getpid()}\\n')\n"
             "parent = os.getppid()\n"
             "for _ in range(1200):\n"
             "    if os.getppid() != parent: break\n"
             "    time.sleep(0.05)\n",
             str(marker), "{test_id}"]
    stalling_config = tmp_path / "course-stalling.yaml"
    stalling_config.write_text(
        Path(config_path).read_text(encoding="utf-8").replace(
            json.dumps([PYTHON, "tests/{test_id}.py"]), json.dumps(stall)),
        encoding="utf-8")
    src = str(Path(courseforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    cli = subprocess.Popen(
        [PYTHON, "-m", "courseforge.cli", "publish",
         "--config", str(stalling_config), "--teacher-dir", solution_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    test_pid = None
    try:
        deadline = time.monotonic() + 30
        while test_pid is None and time.monotonic() < deadline:
            pids = marker.read_text().split() if marker.exists() else []
            test_pid = int(pids[0]) if pids else None
            time.sleep(0.05)
        assert test_pid is not None, "the solution gate never ran a test"
    finally:
        cli.kill()  # SIGKILL, mid-publication
        cli.wait(timeout=30)
        for pid in marker.read_text().split() if marker.exists() else []:
            try:
                os.kill(int(pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
    rc, out, _ = _run(capsys, ["publish", "--config", config_path,
                               "--teacher-dir", solution_dir])
    assert rc == 0
    assert _last(out).startswith("RESULT ok cmd=publish status=published")
