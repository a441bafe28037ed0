"""Grading: manifests, weighted aggregation, pipeline steps, the full run."""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import courseforge
from courseforge.config import ConfigError, TaskDef
from courseforge.enrollment import EnrollmentRecord, default_ledger, enroll
from courseforge.executor import ExecutorError, LocalProcessExecutor, TestStatus
from courseforge.grader import (
    ForbiddenViolation,
    GradedTest,
    GradeLedger,
    GradeManifest,
    GradeRecord,
    GradeReport,
    GraderError,
    TestOutcome,
    aggregate_grade,
    archive_submission,
    assemble_grading_project,
    check_up_to_date,
    export_archives,
    grade_task,
    load_manifest,
    parse_manifest,
    render_report,
    run_graded_tests,
    scan_forbidden,
)
from courseforge.repomodel import (
    Commit,
    Repo,
    Snapshot,
    commit,
    in_memory_hosting,
)

from oracles import weighted_grade
from util import (
    MANIFEST_T1,
    SOLVED_COUNTER,
    ScriptedExecutor,
    make_config,
    merge_template_update,
    setup_course,
    solution_snapshot,
    student_commit,
)


def outcome(test_id: str, status: TestStatus, wall: float = 0.25) -> TestOutcome:
    return TestOutcome(test_id, status, wall, 0.1)


# ---------------------------------------------------------------------------
# Manifest parsing and validation
# ---------------------------------------------------------------------------

def test_manifest_defaults():
    m = parse_manifest("tests:\n  - id: only\n")
    assert m.suite_max == 1.0
    (t,) = m.tests
    assert t.weight == 1.0
    assert t.cpu_timeout is None and t.wall_timeout is None
    assert t.feedback_on_fail is None and t.forbidden == () \
        and t.depends_on is None


def test_manifest_full_fields():
    m = parse_manifest(MANIFEST_T1, source="tasks/t1.yaml")
    assert m.suite_max == 1.0
    assert [t.test_id for t in m.tests] == ["mytest1", "mytest2", "hidden_prop"]
    one, two, hidden = m.tests
    assert one.weight == 5.0 and one.cpu_timeout == 10.0
    assert one.forbidden == ("threading",)
    assert two.feedback_on_fail == "You forgot to consider this particular case"
    assert hidden.weight == 0.0


def test_manifest_single_forbidden_string_becomes_tuple():
    m = parse_manifest("tests:\n  - id: t\n    forbidden: java.lang.Thread\n")
    assert m.tests[0].forbidden == ("java.lang.Thread",)


def test_empty_manifest_is_valid():
    m = parse_manifest("")
    assert m == GradeManifest(1.0, ())


def test_manifest_rejects_bad_shapes():
    with pytest.raises(GraderError, match="top level must be a mapping"):
        parse_manifest("- 1\n- 2\n")
    with pytest.raises(GraderError, match="unknown keys: points"):
        parse_manifest("points: 3\n")
    with pytest.raises(GraderError, match="suite_max must be a number"):
        parse_manifest("suite_max: lots\n")
    with pytest.raises(GraderError, match="suite_max must be a number"):
        parse_manifest("suite_max: true\n")
    with pytest.raises(GraderError, match="'tests' must be a list"):
        parse_manifest("tests: nope\n")
    with pytest.raises(GraderError, match=r"tests\[0\]: test must be a mapping"):
        parse_manifest("tests:\n  - 12\n")
    with pytest.raises(GraderError, match=r"tests\[1\]: unknown keys: extra"):
        parse_manifest("tests:\n  - id: a\n  - id: b\n    extra: 1\n")
    with pytest.raises(GraderError, match="'id' must be a non-empty string"):
        parse_manifest("tests:\n  - weight: 1\n")
    with pytest.raises(GraderError, match="'weight' must be a number"):
        parse_manifest("tests:\n  - id: a\n    weight: heavy\n")
    with pytest.raises(GraderError, match="YAML parse error"):
        parse_manifest("tests: [unclosed\n")


def test_manifest_rejects_bad_semantics():
    with pytest.raises(GraderError, match="duplicate test id 'a'"):
        parse_manifest("tests:\n  - id: a\n  - id: a\n")
    with pytest.raises(GraderError, match="depends on 'ghost', which is not "
                       "a test declared before it"):
        parse_manifest("tests:\n  - id: a\n    depends_on: ghost\n")
    # a cycle needs a dependency on a test declared later, or on itself
    with pytest.raises(GraderError, match="test 'a' depends on 'b', which"):
        parse_manifest("tests:\n"
                       "  - id: a\n    depends_on: b\n"
                       "  - id: b\n    depends_on: a\n")
    with pytest.raises(GraderError, match="test 'a' depends on 'a', which"):
        parse_manifest("tests:\n  - id: a\n    depends_on: a\n")
    with pytest.raises(GraderError, match="weight must be >= 0"):
        GradedTest("a", weight=-1)
    with pytest.raises(GraderError, match="cpu_timeout must be > 0"):
        GradedTest("a", cpu_timeout=0)
    with pytest.raises(GraderError) as err:
        parse_manifest("tests:\n  - id: a\n    forbidden: ['x', '']\n")
    assert str(err.value) == ("<manifest>: tests[0]: test 'a': forbidden "
                              "prefixes must be non-empty")
    with pytest.raises(GraderError, match="suite_max must be > 0"):
        GradeManifest(0.0, ())


def test_a_test_id_cannot_leave_the_tests_directory():
    """The id is substituted into the test command as a path."""
    with pytest.raises(GraderError) as err:
        parse_manifest("tests:\n  - id: ../../outside\n")
    assert str(err.value) == \
        "<manifest>: tests[0]: invalid test id: '../../outside'"
    for bad in ("/abs", "a/../b", "./a", "a//b", "a/"):
        with pytest.raises(GraderError, match="invalid test id"):
            GradedTest(bad)
    # spaces and nested test paths stay allowed
    assert [t.test_id for t in parse_manifest(
        "tests:\n  - id: unit/edge case\n").tests] == ["unit/edge case"]


@pytest.mark.parametrize("value", [".nan", ".inf"])
@pytest.mark.parametrize("field", ["weight", "cpu_timeout", "wall_timeout",
                                   "suite_max"])
def test_manifest_numbers_must_be_finite(field, value):
    if field == "suite_max":
        text = f"suite_max: {value}\ntests:\n  - id: a\n"
    else:
        text = f"tests:\n  - id: a\n    {field}: {value}\n"
    with pytest.raises(GraderError, match=f"{field} must be .* finite"):
        parse_manifest(text)


@pytest.mark.parametrize("field", ["weight", "cpu_timeout", "wall_timeout",
                                   "suite_max"])
def test_manifest_number_too_large_for_a_float_names_the_field(field):
    huge = "1" + "0" * 400
    if field == "suite_max":
        text, where = f"suite_max: {huge}\ntests:\n  - id: a\n", "suite_max"
    else:
        text, where = f"tests:\n  - id: a\n    {field}: {huge}\n", \
            f"tests[0]: '{field}'"
    with pytest.raises(GraderError) as err:
        parse_manifest(text, source="tasks/t1.yaml")
    assert str(err.value) == f"tasks/t1.yaml: {where} is out of range"


def test_manifest_value_errors_name_the_file_and_test():
    for text, message in (
            ("tests:\n  - id: a\n    weight: -1\n",
             "tasks/t1.yaml: tests[0]: test 'a': weight must be >= 0 and finite"),
            ("suite_max: 0\n",
             "tasks/t1.yaml: suite_max must be > 0 and finite"),
            ("tests:\n  - id: a\n  - id: a\n",
             "tasks/t1.yaml: duplicate test id 'a'")):
        with pytest.raises(GraderError) as err:
            parse_manifest(text, source="tasks/t1.yaml")
        assert str(err.value) == message


def test_load_manifest_from_teacher_snapshot():
    task = TaskDef("t1", "tasks/t1.yaml")
    m = load_manifest(solution_snapshot(), task)
    assert m.tests[0].test_id == "mytest1" and m.tests[0].weight == 5.0
    with pytest.raises(GraderError, match="not found at 'tasks/t9.yaml'"):
        load_manifest(solution_snapshot(), TaskDef("t9", "tasks/t9.yaml"))
    bad = Snapshot({"tasks/t1.yaml": bytes([0xFF, 0xFE, 0x00])})
    with pytest.raises(GraderError, match="not UTF-8"):
        load_manifest(bad, task)


# ---------------------------------------------------------------------------
# Weighted aggregation
# ---------------------------------------------------------------------------

LISTING = parse_manifest(
    "suite_max: 1\n"
    "tests:\n"
    "  - id: mytest1\n    weight: 5\n"
    "  - id: mytest2\n    weight: 3\n")


def test_two_test_grade_table_is_exact():
    cases = {
        (True, True): 1.0,
        (True, False): 0.625,
        (False, True): 0.375,
        (False, False): 0.0,
    }
    for (one, two), expected in cases.items():
        report = aggregate_grade(LISTING, [
            outcome("mytest1", TestStatus.PASS if one else TestStatus.FAIL),
            outcome("mytest2", TestStatus.PASS if two else TestStatus.FAIL),
        ])
        assert report.earned == expected
        assert report.maximum == 1.0


def test_every_pass_pattern_matches_weighted_oracle():
    rng = random.Random(1009)
    for _ in range(40):
        n = rng.randrange(1, 7)
        weights = [rng.randrange(0, 6) for _ in range(n)]
        suite_max = rng.choice([1, 2, 10, 20])
        manifest = GradeManifest(float(suite_max), tuple(
            GradedTest(f"t{i}", weight=float(w)) for i, w in enumerate(weights)))
        for pattern in itertools.product([False, True], repeat=n):
            outcomes = [outcome(f"t{i}", TestStatus.PASS if ok else TestStatus.FAIL)
                        for i, ok in enumerate(pattern)]
            rng.shuffle(outcomes)  # order must not matter
            report = aggregate_grade(manifest, outcomes)
            assert report.earned == weighted_grade(suite_max, weights,
                                                   list(pattern))
            assert 0.0 <= report.earned <= suite_max


def test_zero_weight_table_earns_zero():
    manifest = GradeManifest(5.0, (GradedTest("a", weight=0.0),
                                   GradedTest("b", weight=0.0)))
    report = aggregate_grade(manifest, [outcome("a", TestStatus.PASS),
                                        outcome("b", TestStatus.PASS)])
    assert report.earned == 0.0
    assert report.maximum == 5.0


def test_zero_weight_tests_do_not_move_the_grade():
    with_zero = parse_manifest(MANIFEST_T1)
    for hidden in (TestStatus.PASS, TestStatus.FAIL):
        report = aggregate_grade(with_zero, [
            outcome("mytest1", TestStatus.PASS),
            outcome("mytest2", TestStatus.FAIL),
            outcome("hidden_prop", hidden),
        ])
        assert report.earned == 0.625


def test_fixing_one_test_never_lowers_the_grade():
    rng = random.Random(77)
    weights = [3, 0, 5, 1, 2]
    manifest = GradeManifest(10.0, tuple(
        GradedTest(f"t{i}", weight=float(w)) for i, w in enumerate(weights)))
    for _ in range(50):
        pattern = [rng.random() < 0.5 for _ in weights]
        flip = rng.randrange(len(weights))
        if pattern[flip]:
            continue
        before = aggregate_grade(manifest, [
            outcome(f"t{i}", TestStatus.PASS if ok else TestStatus.FAIL)
            for i, ok in enumerate(pattern)]).earned
        pattern[flip] = True
        after = aggregate_grade(manifest, [
            outcome(f"t{i}", TestStatus.PASS if ok else TestStatus.FAIL)
            for i, ok in enumerate(pattern)]).earned
        assert after >= before


def test_only_pass_counts_toward_the_grade():
    manifest = GradeManifest(8.0, (GradedTest("a", weight=1.0),
                                   GradedTest("b", weight=1.0),
                                   GradedTest("c", weight=1.0),
                                   GradedTest("d", weight=1.0)))
    report = aggregate_grade(manifest, [
        outcome("a", TestStatus.PASS),
        outcome("b", TestStatus.CPU_TIMEOUT),
        outcome("c", TestStatus.FORBIDDEN),
        outcome("d", TestStatus.SKIPPED),
    ])
    assert report.earned == 2.0


def test_feedback_collected_for_each_non_passing_declared_test():
    manifest = GradeManifest(1.0, (
        GradedTest("a", feedback_on_fail="check empty input"),
        GradedTest("b", feedback_on_fail="mind the overflow"),
        GradedTest("c", feedback_on_fail="unused, test passed"),
    ))
    report = aggregate_grade(manifest, [
        outcome("a", TestStatus.FAIL),
        outcome("b", TestStatus.WALL_TIMEOUT),
        outcome("c", TestStatus.PASS),
    ])
    assert report.messages == ("check empty input", "mind the overflow")


def test_outcome_coverage_must_match_manifest_exactly():
    with pytest.raises(GraderError, match="outcomes do not match"):
        aggregate_grade(LISTING, [outcome("mytest1", TestStatus.PASS)])
    with pytest.raises(GraderError, match="outcomes do not match"):
        aggregate_grade(LISTING, [outcome("mytest1", TestStatus.PASS),
                                  outcome("mytest2", TestStatus.PASS),
                                  outcome("stranger", TestStatus.PASS)])
    with pytest.raises(GraderError, match="outcomes do not match"):
        aggregate_grade(LISTING, [outcome("mytest1", TestStatus.PASS),
                                  outcome("mytest1", TestStatus.PASS)])


def test_single_compile_error_outcome_is_the_allowed_exception():
    errored = TestOutcome("compile", TestStatus.ERROR, 0.0, None,
                          "SyntaxError: invalid syntax")
    report = aggregate_grade(LISTING, [errored], task_id="t1", commit_id="c0")
    assert report.earned == 0.0
    assert report.maximum == 1.0
    assert report.outcomes == (errored,)
    assert report.messages == ()
    # an ERROR on a declared test is not the compile escape hatch
    with pytest.raises(GraderError, match="outcomes do not match"):
        aggregate_grade(LISTING, [outcome("mytest1", TestStatus.ERROR)])


def test_render_report_layout():
    report = GradeReport(
        "t1", "abc123", 0.625, 1.0, True,
        ("You forgot to consider this particular case",),
        (outcome("mytest1", TestStatus.PASS, wall=0.5),
         outcome("mytest2", TestStatus.FAIL, wall=1.0)))
    text = render_report(report)
    assert text == (
        "task: t1\n"
        "commit: abc123\n"
        "up to date: yes\n"
        "  PASS         mytest1  (0.50s)\n"
        "  FAIL         mytest2  (1.00s)\n"
        "feedback:\n"
        "  - You forgot to consider this particular case\n"
        "grade: 0.625 / 1"
    )


def test_render_report_flags_stale_submission():
    report = GradeReport("t1", "c", 0.0, 2.0, False, ("merge the update",), ())
    text = render_report(report)
    assert "up to date: NO" in text
    assert text.endswith("grade: 0 / 2")


# ---------------------------------------------------------------------------
# Pipeline steps
# ---------------------------------------------------------------------------

def _two_repos(with_update: bool) -> tuple[Repo, Repo]:
    template = Repo("cs101-template", "bot", "public")
    c1 = commit(template, "main", Snapshot({"a.py": b"x = 1\n"}), "v1", "bot", 1)
    student = Repo("cs101-alice", "bot")
    student.add_commit(c1)
    student.set_branch("main", c1.commit_id)
    commit(student, "main", Snapshot({"a.py": b"x = 2\n"}), "work", "alice", 5)
    if with_update:
        commit(template, "main", Snapshot({"a.py": b"x = 1\n", "b.py": b"\n"}),
               "v2", "bot", 10)
    return student, template


def test_up_to_date_when_student_contains_template_head():
    student, template = _two_repos(with_update=False)
    ok, remediation = check_up_to_date(student, template)
    assert ok and remediation == ""


def test_stale_when_template_advanced():
    student, template = _two_repos(with_update=True)
    ok, remediation = check_up_to_date(student, template)
    assert not ok
    assert template.head()[:12] in remediation
    assert "git fetch template" in remediation
    assert "git merge template/main" in remediation


def test_merging_the_update_restores_up_to_date():
    student, template = _two_repos(with_update=True)
    update = template.head_commit()
    student.add_commit(update)
    from merging import merge
    merge(student, "main", update.commit_id, "alice", 20)
    ok, _ = check_up_to_date(student, template)
    assert ok


def test_empty_template_counts_as_up_to_date():
    student, _ = _two_repos(with_update=False)
    ok, _ = check_up_to_date(student, Repo("cs101-template", "bot"))
    assert ok


def test_unknown_template_head_is_stale_not_an_error():
    template = Repo("cs101-template", "bot")
    commit(template, "main", Snapshot({"a.py": b"x = 1\n"}), "v1", "bot", 1)
    stranger = Repo("cs101-alice", "bot")
    commit(stranger, "main", Snapshot({"mine.py": b"\n"}), "hi", "alice", 2)
    ok, remediation = check_up_to_date(stranger, template)
    assert not ok and "git fetch template" in remediation


def test_assemble_takes_teacher_tests_and_drops_secrets(tmp_path):
    config = make_config(tmp_path)
    teacher = solution_snapshot()
    student = Snapshot({
        "counter.py": SOLVED_COUNTER.encode(),
        "tests/mytest1.py": b"print('tampered to always pass')\n",
        "tests/extra_cheat.py": b"print('planted')\n",
        "secrets/token.txt": b"hunter2\n",
        "notes.md": b"my notes\n",
    })
    project = assemble_grading_project(student, teacher, config)
    # teacher wins on every replaced path, including ones the student planted
    assert project["tests/mytest1.py"] == teacher["tests/mytest1.py"]
    assert project["tests/hidden_prop.py"] == teacher["tests/hidden_prop.py"]
    assert "tests/extra_cheat.py" not in project
    # sensitive files never reach the grading tree
    assert "secrets/token.txt" not in project
    # everything else is the student's
    assert project["counter.py"] == SOLVED_COUNTER.encode()
    assert project["notes.md"] == b"my notes\n"
    assert "tasks/t1.yaml" not in project  # not replaced, student lacks it


def test_the_teachers_tree_wins_where_a_student_path_clashes_with_it(tmp_path):
    config = dataclasses.replace(make_config(tmp_path),
                                 replaced_paths=("tests/**", "data"))
    teacher = solution_snapshot().with_files({"data": b"teacher rows\n"})
    student = Snapshot({
        "counter.py": SOLVED_COUNTER.encode(),
        "tests": b"a file where the teacher has a directory\n",
        "data/rows.csv": b"a file under one of the teacher's files\n",
    })
    project = assemble_grading_project(student, teacher, config)
    assert "tests" not in project and "data/rows.csv" not in project
    assert project["tests/mytest1.py"] == teacher["tests/mytest1.py"]
    assert project["data"] == b"teacher rows\n"
    assert project["counter.py"] == SOLVED_COUNTER.encode()


def test_assemble_rejects_patterns_matching_nothing(tmp_path):
    config = make_config(tmp_path)
    teacher_without_tests = solution_snapshot().without(
        ["tests/mytest1.py", "tests/mytest2.py", "tests/hidden_prop.py"])
    with pytest.raises(GraderError,
                       match=r"match nothing in the teacher repository: tests/\*\*"):
        assemble_grading_project(Snapshot({"a.py": b"\n"}),
                                 teacher_without_tests, config)


def test_assemble_replaced_paths_random_property(tmp_path):
    config = make_config(tmp_path)
    teacher = solution_snapshot()
    rng = random.Random(31337)
    for _ in range(25):
        files = {}
        for i in range(rng.randrange(1, 8)):
            bucket = rng.choice(["tests", "secrets", "src", ""])
            name = f"f{i}.py"
            path = f"{bucket}/{name}" if bucket else name
            files[path] = f"# student {i}\n".encode()
        student = Snapshot(files)
        project = assemble_grading_project(student, teacher, config)
        for path in project:
            if config.replaced.matches(path):
                assert project[path] == teacher[path]
            assert not config.sensitive.matches(path)
        for path in student:
            if not config.replaced.matches(path) \
                    and not config.sensitive.matches(path):
                assert project[path] == student[path]


# ---------------------------------------------------------------------------
# Forbidden-dependency scan
# ---------------------------------------------------------------------------

def test_scan_reports_path_line_and_reference(tmp_path):
    config = make_config(tmp_path)
    test = GradedTest("t", forbidden=("threading",))
    snap = Snapshot({"counter.py": b"import math\nimport threading\n"})
    hits = scan_forbidden(snap, test, config)
    assert hits == [ForbiddenViolation("counter.py", 2, "threading", "threading")]
    assert str(hits[0]) \
        == "counter.py:2: forbidden dependency 'threading' (prefix 'threading')"


def test_scan_prefix_semantics_cover_dotted_names(tmp_path):
    config = make_config(tmp_path)
    test = GradedTest("t", forbidden=("java.lang.Thread",))
    snap = Snapshot({"Main.java": b"java.lang.Thread.sleep(100);\n"})
    hits = scan_forbidden(snap, test, config)
    assert [h.reference for h in hits] == ["java.lang.Thread.sleep"]
    # prefixes are spelling-based: a longer identifier still matches
    snap2 = Snapshot({"a.py": b"threading_tricks = 1\n"})
    hits2 = scan_forbidden(snap2, GradedTest("t", forbidden=("threading",)),
                           config)
    assert [h.reference for h in hits2] == ["threading_tricks"]


def test_scan_skips_teacher_files_binaries_and_prose(tmp_path):
    config = make_config(tmp_path)
    test = GradedTest("t", forbidden=("threading",))
    snap = Snapshot({
        "tests/mytest1.py": b"import threading\n",   # replaced: teacher's
        "logo.bin": bytes([0xFF, 0xFE]) + b"threading",  # not UTF-8
        "latin.py": b"# caf\xe9\nimport threading\n",   # source, not UTF-8
        "README.md": b"uses threading\n",            # no dialect for .md
        "ok.py": b"import math\n",
    })
    assert scan_forbidden(snap, test, config) == []


def test_scan_without_prefixes_is_free(tmp_path):
    config = make_config(tmp_path)
    snap = Snapshot({"a.py": b"import threading\n"})
    assert scan_forbidden(snap, GradedTest("t"), config) == []


def test_scan_counts_one_hit_per_token(tmp_path):
    config = make_config(tmp_path)
    test = GradedTest("t", forbidden=("threading", "thread"))
    snap = Snapshot({"a.py": b"import threading\n"})
    hits = scan_forbidden(snap, test, config)
    assert len(hits) == 1  # first matching prefix wins, no double report


# ---------------------------------------------------------------------------
# Running the suite (scripted executor)
# ---------------------------------------------------------------------------

def test_compile_failure_yields_single_error_outcome(tmp_path):
    ex = ScriptedExecutor(compile_ok=False,
                          compile_message="main.c:3: expected ';'")
    outcomes = run_graded_tests(Snapshot({"a.py": b"\n"}), LISTING, ex)
    assert len(outcomes) == 1
    only = outcomes[0]
    assert only.test_id == "compile"
    assert only.status is TestStatus.ERROR
    assert only.detail == "main.c:3: expected ';'"
    assert ex.test_calls == []


def test_tests_run_in_manifest_order(tmp_path):
    manifest = GradeManifest(1.0, tuple(
        GradedTest(f"t{i}") for i in (3, 1, 2)))
    ex = ScriptedExecutor()
    outcomes = run_graded_tests(Snapshot({"a.py": b"\n"}), manifest, ex)
    assert ex.test_calls == ["t3", "t1", "t2"]
    assert [o.test_id for o in outcomes] == ["t3", "t1", "t2"]
    assert all(o.status is TestStatus.PASS for o in outcomes)


def test_dependents_of_failures_are_skipped_without_running():
    manifest = GradeManifest(1.0, (
        GradedTest("base"),
        GradedTest("mid", depends_on="base"),
        GradedTest("leaf", depends_on="mid"),
    ))
    ex = ScriptedExecutor(results={"base": TestStatus.FAIL})
    outcomes = run_graded_tests(Snapshot({"a.py": b"\n"}), manifest, ex)
    assert [o.status for o in outcomes] \
        == [TestStatus.FAIL, TestStatus.SKIPPED, TestStatus.SKIPPED]
    assert outcomes[1].detail == "dependency 'base' did not pass"
    assert outcomes[2].detail == "dependency 'mid' did not pass"
    assert ex.test_calls == ["base"]


def test_forbidden_scan_preempts_execution(tmp_path):
    config = make_config(tmp_path)
    manifest = GradeManifest(1.0, (
        GradedTest("pure", forbidden=("threading",)),
        GradedTest("free"),
    ))
    project = Snapshot({"counter.py": b"import threading\n"})
    ex = ScriptedExecutor()
    outcomes = run_graded_tests(project, manifest, ex, config)
    assert outcomes[0].status is TestStatus.FORBIDDEN
    assert "counter.py:1" in outcomes[0].detail
    assert outcomes[1].status is TestStatus.PASS
    assert ex.test_calls == ["free"]


def test_forbidden_scan_needs_a_config():
    manifest = GradeManifest(1.0, (GradedTest("pure", forbidden=("threading",)),))
    project = Snapshot({"counter.py": b"import threading\n"})
    ex = ScriptedExecutor()
    outcomes = run_graded_tests(project, manifest, ex, None)
    assert outcomes[0].status is TestStatus.PASS
    assert ex.test_calls == ["pure"]


def test_dependency_check_wins_over_forbidden_scan(tmp_path):
    config = make_config(tmp_path)
    manifest = GradeManifest(1.0, (
        GradedTest("base"),
        GradedTest("strict", depends_on="base", forbidden=("threading",)),
    ))
    project = Snapshot({"counter.py": b"import threading\n"})
    ex = ScriptedExecutor(results={"base": TestStatus.FAIL})
    outcomes = run_graded_tests(project, manifest, ex, config)
    assert outcomes[1].status is TestStatus.SKIPPED


def test_a_dependency_declared_later_is_refused():
    with pytest.raises(GraderError, match="^tasks/t1.yaml: test 'early' "
                       "depends on 'late', which is not a test declared "
                       "before it$"):
        parse_manifest("tests:\n"
                       "  - id: early\n    depends_on: late\n"
                       "  - id: late\n", source="tasks/t1.yaml")
    with pytest.raises(GraderError, match="depends on 'late'"):
        GradeManifest(1.0, (GradedTest("early", depends_on="late"),
                            GradedTest("late")))


def test_the_compile_steps_id_is_not_a_test_id():
    # its outcome would be taken for a failed build's
    with pytest.raises(GraderError, match="^tasks/t1.yaml: test id 'compile' "
                       "is reserved for the compile step$"):
        parse_manifest("tests:\n  - id: compile\n  - id: other\n",
                       source="tasks/t1.yaml")


# ---------------------------------------------------------------------------
# Running the suite (real processes, some at once)
# ---------------------------------------------------------------------------

def _timed_test(marks, seconds: float) -> bytes:
    """A test that sleeps, then writes its pid, start and end to marks/<id>."""
    return ("import os, sys, time\n"
            "start = time.monotonic()\n"
            f"time.sleep({seconds})\n"
            "name = os.path.basename(sys.argv[0])[:-3]\n"
            f"with open(os.path.join({str(marks)!r}, name), 'w') as fh:\n"
            "    fh.write(f'{os.getpid()} {start} {time.monotonic()}')\n"
            ).encode()


def _run_timed(tmp_path, tests: tuple[GradedTest, ...], seconds: float,
               executor=None):
    """Runs ``tests`` as timed real tests; returns outcomes and marks dir."""
    marks = tmp_path / "marks"
    marks.mkdir()
    project = Snapshot({f"tests/{t.test_id}.py": _timed_test(marks, seconds)
                        for t in tests})
    executor = executor or LocalProcessExecutor(
        None, [sys.executable, "tests/{test_id}.py"])
    outcomes = run_graded_tests(project, GradeManifest(1.0, tests), executor)
    return outcomes, marks


def _spans(marks, ids) -> list[tuple[float, float]]:
    """(start, end) of each test in ``ids``, in that order."""
    return [tuple(map(float, (marks / i).read_text().split()[1:]))
            for i in ids]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs")
def test_independent_tests_run_at_once(tmp_path):
    tests = (GradedTest("nap1"), GradedTest("nap2"))
    outcomes, marks = _run_timed(tmp_path, tests, 0.6)
    assert [o.status for o in outcomes] == [TestStatus.PASS] * 2
    # each test started before the other ended
    (start1, end1), (start2, end2) = _spans(marks, ["nap1", "nap2"])
    assert start1 < end2 and start2 < end1


def test_a_dependency_chain_never_overlaps(tmp_path):
    tests = (GradedTest("c1"), GradedTest("free"),
             GradedTest("c2", depends_on="c1"),
             GradedTest("c3", depends_on="c2"))
    outcomes, marks = _run_timed(tmp_path, tests, 0.2)
    assert [o.test_id for o in outcomes] == ["c1", "free", "c2", "c3"]
    assert all(o.status is TestStatus.PASS for o in outcomes)
    spans = _spans(marks, ["c1", "c2", "c3"])
    for (_, end), (next_start, _) in zip(spans, spans[1:]):
        assert end <= next_start


def test_one_usable_cpu_runs_tests_one_after_another(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    tests = tuple(GradedTest(f"t{i}") for i in (3, 1, 2))
    outcomes, marks = _run_timed(tmp_path, tests, 0.1)
    assert all(o.status is TestStatus.PASS for o in outcomes)
    spans = _spans(marks, ["t3", "t1", "t2"])
    for (_, end), (next_start, _) in zip(spans, spans[1:]):
        assert end <= next_start


def test_executor_error_waits_for_running_tests(tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    class FailsOnBoom(LocalProcessExecutor):
        def run_test(self, workdir, test_id, cpu_timeout, wall_timeout, *,
                     started=None):
            if test_id == "boom":
                raise ExecutorError("cannot run boom")
            return super().run_test(workdir, test_id, cpu_timeout,
                                    wall_timeout, started=started)

    tests = (GradedTest("sleeper"), GradedTest("boom"), GradedTest("after"))
    executor = FailsOnBoom(None, [sys.executable, "tests/{test_id}.py"])
    with pytest.raises(ExecutorError, match="cannot run boom"):
        _run_timed(tmp_path, tests, 1.0, executor)
    sleeper = tmp_path / "marks" / "sleeper"
    assert sleeper.exists(), "the error propagated while a test still ran"
    pid = int(sleeper.read_text().split()[0])
    assert not (tmp_path / "marks" / "after").exists()
    assert list(scratch.glob("grading-*")) == []
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


# ---------------------------------------------------------------------------
# Archive store
# ---------------------------------------------------------------------------

def _student_repo_with_commit() -> tuple[Repo, str]:
    repo = Repo("cs101-alice", "coursebot")
    c = commit(repo, "main", Snapshot({
        "counter.py": b"def f():\n    return 1\n",
        "helper.py": b"pass\n",
        "README.md": b"notes\n",
        "sub/dir.py": b"pass\n",
    }), "work", "alice", 42)
    return repo, c.commit_id


def test_archive_layout_and_key(tmp_path):
    config = make_config(tmp_path)
    repo, head = _student_repo_with_commit()
    store = tmp_path / "store"
    key = archive_submission(repo, head, config, store, task_id="t1")
    assert key == f"t1/alice/{head}"
    base = store / "t1" / "alice" / head
    files = sorted(p.relative_to(base).as_posix()
                   for p in base.rglob("*") if p.is_file())
    # archive_paths is ["*.py"]: top-level python files only
    assert files == ["files/counter.py", "files/helper.py", "meta.json"]
    meta = json.loads((base / "meta.json").read_text())
    assert meta["username"] == "alice"
    assert meta["task_id"] == "t1"
    assert meta["commit_id"] == head
    assert isinstance(meta["archived_at"], int)


def test_archive_is_idempotent(tmp_path):
    config = make_config(tmp_path)
    repo, head = _student_repo_with_commit()
    store = tmp_path / "store"
    archive_submission(repo, head, config, store, task_id="t1")
    sentinel = store / "t1" / "alice" / head / "sentinel"
    sentinel.write_text("left by first archive run")
    key = archive_submission(repo, head, config, store, task_id="t1")
    assert key == f"t1/alice/{head}"
    assert sentinel.exists()  # second call did not rewrite the directory


# Archives the same five keys, 300 files each, once a start file exists.
_ARCHIVE_FIVE_KEYS = """\
import sys, time
from pathlib import Path
from courseforge.config import CourseConfig
from courseforge.grader import archive_submission
from courseforge.repomodel import Repo, Snapshot, commit

store, go = sys.argv[1], Path(sys.argv[2])
config = CourseConfig("cs101", "coursebot", archive_paths=("**",))
repo = Repo("cs101-alice", "coursebot")
ids = [commit(repo, "main", Snapshot({f"src/f{i}.py": b"x = %d\\n" % (i + k)
                                      for i in range(300)}),
              f"w{k}", "alice", k).commit_id for k in range(5)]
print(" ".join(ids), flush=True)
while not go.exists():
    time.sleep(0.001)
for cid in ids:
    archive_submission(repo, cid, config, store, task_id="t1")
"""


def test_two_processes_archiving_one_key_both_succeed(tmp_path):
    store, go = tmp_path / "store", tmp_path / "go"
    cmd = [sys.executable, "-c", _ARCHIVE_FIVE_KEYS, str(store), str(go)]
    env = {**os.environ,
           "PYTHONPATH": str(Path(courseforge.__file__).resolve().parents[1])}
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as first, \
            subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True) as second:
        try:
            ids = first.stdout.readline().split()
            assert second.stdout.readline().split() == ids
        finally:
            go.touch()
        ends = [(p.communicate(timeout=120)[1], p.returncode)
                for p in (first, second)]
    for err, code in ends:
        assert code == 0, err
    user_dir = store / "t1" / "alice"
    assert sorted(p.name for p in user_dir.iterdir()) == sorted(ids)
    for cid in ids:
        assert len(list((user_dir / cid / "files").rglob("*.py"))) == 300
        meta = json.loads((user_dir / cid / "meta.json").read_text())
        assert meta["commit_id"] == cid


def test_export_picks_each_students_newest_submission(tmp_path):
    config = make_config(tmp_path)
    store = tmp_path / "store"
    dest = tmp_path / "export"

    def archive(user: str, content: bytes, ts: int) -> None:
        repo = Repo(f"cs101-{user}", "coursebot")
        c = commit(repo, "main", Snapshot({"counter.py": content}), "w", user, ts)
        key = archive_submission(repo, c.commit_id, config, store, task_id="t1")
        meta_path = store / "t1" / user / c.commit_id / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["archived_at"] = ts
        meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")

    archive("alice", b"# old\n", 100)
    archive("alice", b"# new\n", 200)
    archive("bob", b"# bob\n", 150)
    archive("carol", b"# carol\n", 150)

    created = export_archives(store, "t1", dest)
    assert [p.name for p in created] == ["alice", "bob", "carol"]
    assert (dest / "alice" / "counter.py").read_bytes() == b"# new\n"
    assert (dest / "bob" / "counter.py").read_bytes() == b"# bob\n"


def test_export_picks_the_later_of_two_grades_in_one_second(tmp_path,
                                                            monkeypatch):
    config = make_config(tmp_path)
    store = tmp_path / "store"
    repo = Repo("cs101-alice", "coursebot")
    older = commit(repo, "main", Snapshot({"counter.py": b"# older\n"}),
                   "w1", "alice", 100)
    for i in itertools.count():
        newer = Commit.create((older.commit_id,), Snapshot(
            {"counter.py": f"# newer {i}\n".encode()}), "w2", "alice", 101)
        if newer.commit_id < older.commit_id:
            break
    repo.add_commit(newer)
    ticks = itertools.count(1_700_000_000_250_000_000, 1_000_000)
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.5)
    monkeypatch.setattr(time, "time_ns", lambda: next(ticks))
    for c in (older, newer):  # older first, within one second
        archive_submission(repo, c.commit_id, config, store, task_id="t1")
    monkeypatch.undo()
    export_archives(store, "t1", tmp_path / "export")
    assert (tmp_path / "export" / "alice" / "counter.py").read_bytes() \
        == newer.snapshot["counter.py"]


def test_export_ranks_archives_without_ns_by_their_second(tmp_path):
    config = make_config(tmp_path)
    store = tmp_path / "store"
    repo = Repo("cs101-bob", "coursebot")
    planted = commit(repo, "main", Snapshot({"counter.py": b"# planted\n"}),
                     "w1", "bob", 100)
    graded = commit(repo, "main", Snapshot({"counter.py": b"# graded\n"}),
                    "w2", "bob", 200)
    for c in (planted, graded):
        archive_submission(repo, c.commit_id, config, store, task_id="t1")
    # an archive written before archived_ns existed, dated in the future
    meta_path = store / "t1" / "bob" / planted.commit_id / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta.pop("archived_ns", None)
    meta["archived_at"] = int(time.time()) + 3600
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    export_archives(store, "t1", tmp_path / "export")
    assert (tmp_path / "export" / "bob" / "counter.py").read_bytes() \
        == b"# planted\n"


def test_export_skips_a_staging_copy_a_killed_archive_left(tmp_path):
    config = make_config(tmp_path)
    store = tmp_path / "store"
    repo = Repo("cs101-alice", "coursebot")
    graded = commit(repo, "main", Snapshot({"counter.py": b"# graded\n"}),
                    "w1", "alice", 100)
    staged = commit(repo, "main", Snapshot({"counter.py": b"# staged\n"}),
                    "w2", "alice", 200)
    for c in (graded, staged):
        archive_submission(repo, c.commit_id, config, store, task_id="t1")
    # the later archive as its rename found it: still under its staging name
    user_dir = store / "t1" / "alice"
    (user_dir / staged.commit_id).rename(
        user_dir / f"{staged.commit_id}.k3x9q2.tmp")
    created = export_archives(store, "t1", tmp_path / "export")
    assert [p.name for p in created] == ["alice"]
    assert (tmp_path / "export" / "alice" / "counter.py").read_bytes() \
        == b"# graded\n"


def test_export_replaces_an_earlier_export_of_the_student(tmp_path):
    config = make_config(tmp_path)
    store, dest = tmp_path / "store", tmp_path / "export"
    repo = Repo("cs101-alice", "coursebot")
    c = commit(repo, "main", Snapshot({"counter.py": b"# graded\n"}),
               "w1", "alice", 100)
    archive_submission(repo, c.commit_id, config, store, task_id="t1")
    (dest / "alice" / "old").mkdir(parents=True)
    (dest / "alice" / "old" / "left.py").write_bytes(b"# an earlier export\n")
    (dest / "alice" / "counter.py").write_bytes(b"# an earlier export\n")
    assert export_archives(store, "t1", dest) == [dest / "alice"]
    assert sorted(p.relative_to(dest).as_posix()
                  for p in dest.rglob("*")) == ["alice", "alice/counter.py"]
    assert (dest / "alice" / "counter.py").read_bytes() == b"# graded\n"


def test_export_of_an_archive_without_files_is_an_empty_directory(tmp_path):
    config = make_config(tmp_path)
    store, dest = tmp_path / "store", tmp_path / "export"
    repo = Repo("cs101-alice", "coursebot")
    c = commit(repo, "main", Snapshot({"notes.txt": b"no archived path\n"}),
               "w1", "alice", 100)
    archive_submission(repo, c.commit_id, config, store, task_id="t1")
    assert not (store / "t1" / "alice" / c.commit_id / "files").exists()
    assert export_archives(store, "t1", dest) == [dest / "alice"]
    assert (dest / "alice").is_dir()
    assert list((dest / "alice").iterdir()) == []


def test_export_of_missing_task_returns_nothing(tmp_path):
    assert export_archives(tmp_path / "store", "t9", tmp_path / "out") == []


# ---------------------------------------------------------------------------
# Grade ledger
# ---------------------------------------------------------------------------

def test_ledger_starts_with_header_and_round_trips(tmp_path):
    path = tmp_path / "grades.jsonl"
    ledger = GradeLedger(path)
    r1 = GradeRecord("alice", "t1", "c" * 64, 0.625, 1.0, True, 1700000000)
    r2 = GradeRecord("bob", "t1", "d" * 64, 0.0, 1.0, False, 1700000100)
    ledger.append(r1)
    ledger.append(r2)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"format": "grade-ledger", "version": 1}
    assert len(lines) == 3
    assert GradeLedger(path).records() == [r1, r2]


def test_ledger_missing_file_reads_empty(tmp_path):
    assert GradeLedger(tmp_path / "none.jsonl").records() == []


def test_ledger_rejects_foreign_files(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"format": "other", "version": 1}\n')
    with pytest.raises(GraderError, match="not a supported grade ledger"):
        GradeLedger(path).records()


# ---------------------------------------------------------------------------
# The full pipeline against in-memory hosting
# ---------------------------------------------------------------------------

def _graded_course(tmp_path, executor=None):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=1700000000)
    enroll(hosting, "alice", config, timestamp=1700000100)
    return config, hosting


def test_grade_task_full_marks_for_passing_submission(tmp_path):
    config, hosting = _graded_course(tmp_path)
    head = student_commit(hosting, config, "alice",
                          {"counter.py": SOLVED_COUNTER.encode()},
                          timestamp=1700000200)
    ex = ScriptedExecutor()
    report = grade_task(hosting, "alice", "t1", config, ex)
    assert report.up_to_date
    assert report.commit_id == head
    assert report.earned == report.maximum == 1.0
    assert [o.test_id for o in report.outcomes] \
        == ["mytest1", "mytest2", "hidden_prop"]
    assert ex.test_calls == ["mytest1", "mytest2", "hidden_prop"]
    records = GradeLedger(f"{config.state_dir}/grades.jsonl").records()
    assert len(records) == 1
    assert records[0].authoritative
    assert records[0].commit_id == head
    assert records[0].earned == 1.0
    # the submission was archived for later plagiarism analysis
    archived = tmp_path / "state" / "archive" / "t1" / "alice" / head
    assert (archived / "files" / "counter.py").exists()


def test_grade_task_partial_credit_and_feedback(tmp_path):
    config, hosting = _graded_course(tmp_path)
    student_commit(hosting, config, "alice",
                   {"counter.py": SOLVED_COUNTER.encode()})
    ex = ScriptedExecutor(results={"mytest2": TestStatus.FAIL})
    report = grade_task(hosting, "alice", "t1", config, ex)
    assert report.earned == 0.625
    assert report.messages == ("You forgot to consider this particular case",)


def test_grade_task_flags_forbidden_dependency(tmp_path):
    config, hosting = _graded_course(tmp_path)
    student_commit(hosting, config, "alice",
                   {"counter.py": b"import threading\n" + SOLVED_COUNTER.encode()})
    ex = ScriptedExecutor()
    report = grade_task(hosting, "alice", "t1", config, ex)
    by_id = {o.test_id: o for o in report.outcomes}
    assert by_id["mytest1"].status is TestStatus.FORBIDDEN
    assert report.earned == 0.375
    assert "mytest1" not in ex.test_calls


def test_grade_task_stale_submission_runs_nothing(tmp_path):
    config, hosting = _graded_course(tmp_path)
    student_commit(hosting, config, "alice",
                   {"counter.py": SOLVED_COUNTER.encode()},
                   timestamp=1700000200)
    # teacher publishes an update the student never merges
    updated = solution_snapshot().with_files(
        {"README.md": b"# cs101 exercises (v2)\n"})
    setup_course(hosting, config, snapshot=updated, timestamp=1700000300)

    ex = ScriptedExecutor()
    report = grade_task(hosting, "alice", "t1", config, ex)
    assert not report.up_to_date
    assert report.earned == 0.0
    assert report.outcomes == ()
    assert len(report.messages) == 1
    assert "git fetch template" in report.messages[0]
    assert ex.compile_calls == [] and ex.test_calls == []
    records = GradeLedger(f"{config.state_dir}/grades.jsonl").records()
    assert [r.authoritative for r in records] == [False]
    assert not (tmp_path / "state" / "archive").exists()

    # merging the update makes the next run authoritative
    merge_template_update(hosting, config, "alice", timestamp=1700000400)
    report2 = grade_task(hosting, "alice", "t1", config, ex)
    assert report2.up_to_date
    assert report2.earned == 1.0
    records = GradeLedger(f"{config.state_dir}/grades.jsonl").records()
    assert [r.authoritative for r in records] == [False, True]


def test_grade_task_requires_enrollment_and_known_task(tmp_path):
    config, hosting = _graded_course(tmp_path)
    with pytest.raises(GraderError, match="user 'mallory' is not enrolled"):
        grade_task(hosting, "mallory", "t1", config, ScriptedExecutor())
    with pytest.raises(ConfigError, match="unknown task"):
        grade_task(hosting, "alice", "t99", config, ScriptedExecutor())
    hosting.create_repo("cs101-bob", config.bot_account)
    default_ledger(config).append(
        EnrollmentRecord("bob", "cs101-bob", 1700000200, "0" * 64))
    with pytest.raises(GraderError) as err:
        grade_task(hosting, "bob", "t1", config, ScriptedExecutor())
    assert str(err.value) == "repository cs101-bob has no commits"


def test_grade_task_is_deterministic_for_identical_state(tmp_path):
    config, hosting = _graded_course(tmp_path)
    student_commit(hosting, config, "alice",
                   {"counter.py": SOLVED_COUNTER.encode()})
    one = grade_task(hosting, "alice", "t1", config,
                     ScriptedExecutor(results={"mytest1": TestStatus.FAIL}))
    two = grade_task(hosting, "alice", "t1", config,
                     ScriptedExecutor(results={"mytest1": TestStatus.FAIL}))
    assert one.earned == two.earned == 0.375
    assert one.commit_id == two.commit_id
    assert [o.status for o in one.outcomes] == [o.status for o in two.outcomes]
