"""End-user command-line behavior: exit codes, RESULT lines, workflows.

All invocations go through dispatch() in-process; stdout and stderr are
captured with capsys. The memory backend persists to a state file, so
each dispatch call is a fresh process as far as the tool can tell.
"""

from datetime import datetime, timezone
from pathlib import Path

import json
import os
import signal
import subprocess
import threading
import time

import pytest

import courseforge
from courseforge.cli import dispatch
from courseforge.config import load_config
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


def _enrolled_course(tmp_path, capsys) -> str:
    config_path = _write_course(tmp_path)
    for argv in (["publish", "--teacher-dir", _write_solution(tmp_path)],
                 ["enroll", "--user", "alice"]):
        rc, _, _ = _run(capsys, [argv[0], "--config", config_path, *argv[1:]])
        assert rc == 0
    return config_path


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
    stall = [PYTHON, "-c",
             "import os, sys, time; "
             "open(sys.argv[1], 'w').write(str(os.getpid())); "
             "time.sleep(60)",
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
            text = marker.read_text() if marker.exists() else ""
            test_pid = int(text) if text else None
            time.sleep(0.05)
        assert test_pid is not None, "the solution gate never ran a test"
    finally:
        cli.kill()  # SIGKILL, mid-publication
        cli.wait(timeout=30)
        if test_pid is not None:
            try:
                os.kill(test_pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    rc, out, _ = _run(capsys, ["publish", "--config", config_path,
                               "--teacher-dir", solution_dir])
    assert rc == 0
    assert _last(out).startswith("RESULT ok cmd=publish status=published")
