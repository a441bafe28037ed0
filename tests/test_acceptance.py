"""Release gate: ten checks, each at an explicit tolerance.

Every check prints one machine-greppable line so a log scrape can see the
verdicts without parsing pytest output:

    ACCEPTANCE NN <label>: PASS|FAIL

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to watch the
lines stream on success).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from datetime import date
from itertools import product
from pathlib import Path
from time import perf_counter

from courseforge.analytics import ActivitySeries, commit_activity
from courseforge.config import MarkerDialect
from courseforge.enrollment import enroll
from courseforge.executor import LocalProcessExecutor, TestStatus
from courseforge.grader import (
    TestOutcome,
    aggregate_grade,
    grade_task,
    parse_manifest,
)
from courseforge.publisher import PublishStatus
from courseforge.repomodel import (
    Snapshot,
    in_memory_hosting,
    is_ancestor,
    walk,
)
from courseforge.stripper import (
    MarkerViolationError,
    parse_markers,
    strip_document,
    strip_snapshot,
)

from oracles import (
    bfs_is_ancestor,
    build_random_dag,
    generate_soup,
    generate_valid,
    reference_strip,
    reference_validate,
    weighted_grade,
)
from util import (
    PYTHON,
    SOLVED_COUNTER,
    ScriptedExecutor,
    build_week_fixture,
    make_config,
    merge_template_update,
    setup_course,
    solution_files,
    student_commit,
)

MARKER_TOKENS = ("BEGIN STRIP", "END STRIP", "STUDENT")

TEACHER_INCREMENT = (
    "public int increment(int x) {\n"
    '    // STUDENT throw new RuntimeException("Not implemented");\n'
    "    // BEGIN STRIP\n"
    "    return x + 1;\n"
    "    // END STRIP\n"
    "}\n"
)

TEMPLATE_INCREMENT = (
    "public int increment(int x) {\n"
    '    throw new RuntimeException("Not implemented");\n'
    "}\n"
)


@contextmanager
def check(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_increment_figure(tmp_path):
    with check(1, "increment figure strips byte-exactly in under 1ms"):
        config = make_config(tmp_path)
        raw = TEACHER_INCREMENT.encode()
        out = strip_document(parse_markers("Main.java", raw, config))
        assert out == TEMPLATE_INCREMENT.encode()
        timings = []
        for _ in range(7):  # best-of to shrug off scheduler noise
            start = perf_counter()
            strip_document(parse_markers("Main.java", raw, config))
            timings.append(perf_counter() - start)
        assert min(timings) < 0.001


def test_criterion_02_marker_oracle_agreement(tmp_path):
    with check(2, "1100 random files agree 100% with the reference"):
        config = make_config(tmp_path)
        dialects = ((MarkerDialect(("java",), "//"), "Case.java"),
                    (MarkerDialect(("py",), "#"), "case.py"))
        rng = random.Random(20260815)
        agreements = total = 0
        for i in range(1100):
            dialect, filename = dialects[i % 2]
            text = (generate_valid(rng, dialect) if i < 550
                    else generate_soup(rng, dialect))
            expected = reference_validate(text, dialect)
            try:
                doc = parse_markers(filename, text.encode(), config)
                got: list[tuple[int, str]] = []
            except MarkerViolationError as err:
                doc = None
                got = [(v.line, v.code) for v in err.violations]
            assert got == expected, f"file {i} disagreed on violations"
            if doc is not None:
                stripped = strip_document(doc)
                assert stripped == reference_strip(text, dialect).encode()
                assert len(stripped) <= len(text.encode())  # never grows
                body = stripped.decode()
                assert not any(t in body for t in MARKER_TOKENS)
                again = strip_document(
                    parse_markers(filename, stripped, config))
                assert again == stripped  # stripping is idempotent
            agreements += 1
            total += 1
        assert total >= 1000 and agreements == total


def test_criterion_03_ancestry_matches_bfs():
    with check(3, "is_ancestor matches BFS on 1000 DAGs in <5s"):
        rng = random.Random(97)
        start = perf_counter()
        for _ in range(1000):
            repo, ids = build_random_dag(rng, 50)
            pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(15)]
            pairs += [(ids[0], ids[-1]), (ids[-1], ids[0]), (ids[-1], ids[-1])]
            for ancestor, descendant in pairs:
                assert is_ancestor(repo, ancestor, descendant) == \
                    bfs_is_ancestor(repo, ancestor, descendant)
        assert perf_counter() - start < 5.0


def _manifest_yaml(suite_max, weights) -> str:
    lines = [f"suite_max: {suite_max}",
             "tests:" if weights else "tests: []"]
    for i, w in enumerate(weights):
        lines.append(f"  - id: t{i}")
        lines.append(f"    weight: {w}")
    return "\n".join(lines) + "\n"


def test_criterion_04_grade_aggregation_exhaustive():
    with check(4, "weighted earnings match the oracle on all patterns"):
        # the canonical two-test shape: weights 5 and 3 under a ceiling of 1
        canonical = parse_manifest(_manifest_yaml(1, (5, 3)))
        four_cases = {(True, True): 1.0, (True, False): 0.625,
                      (False, True): 0.375, (False, False): 0.0}
        for pattern, expected in four_cases.items():
            outcomes = [
                TestOutcome(t.test_id,
                            TestStatus.PASS if ok else TestStatus.FAIL,
                            0.1, 0.05)
                for t, ok in zip(canonical.tests, pattern)]
            assert aggregate_grade(canonical, outcomes).earned == expected

        rng = random.Random(4242)
        checked = 0
        for n in range(11):
            if n <= 3:  # every integer weight vector is affordable here
                vectors = list(product(range(6), repeat=n))
            else:
                vectors = [tuple(rng.randrange(6) for _ in range(n))
                           for _ in range(12)]
            for weights in vectors:
                suite_max = rng.choice((1, 1, 2, 10, 0.5))
                manifest = parse_manifest(_manifest_yaml(suite_max, weights))
                for bits in range(2 ** n):
                    passed = [(bits >> i) & 1 == 1 for i in range(n)]
                    outcomes = [
                        TestOutcome(f"t{i}",
                                    TestStatus.PASS if ok else TestStatus.FAIL,
                                    0.1, 0.05)
                        for i, ok in enumerate(passed)]
                    earned = aggregate_grade(manifest, outcomes).earned
                    assert earned == weighted_grade(suite_max, list(weights),
                                                    passed)
                    checked += 1
        assert checked > 20_000


NEW_PACKAGE = """\
def shout(s):
    # STUDENT raise NotImplementedError("shout")
    # BEGIN STRIP
    return s.upper()
    # END STRIP
"""


def test_criterion_05_three_student_course(tmp_path):
    with check(5, "3-student scenario: merge, stale, tamper"):
        start = perf_counter()
        config = make_config(tmp_path)
        hosting = in_memory_hosting()
        executor = LocalProcessExecutor(config.compile_command,
                                        config.test_command)
        first = setup_course(hosting, config, executor=executor)
        assert first.status is PublishStatus.PUBLISHED
        for user in ("ann", "ben", "cam"):
            enroll(hosting, user, config)

        # the solution gains a whole new package; the template follows
        files = solution_files()
        files["stringops.py"] = NEW_PACKAGE.encode()
        second = setup_course(hosting, config, snapshot=Snapshot(files),
                              executor=executor)
        assert second.status is PublishStatus.PUBLISHED
        template = hosting.fetch(config.template_repo_name, config.bot_account)
        published = template.head_commit().snapshot["stringops.py"].decode()
        assert 'raise NotImplementedError("shout")' in published
        assert "BEGIN" not in published

        # ann merges the update and submits a correct solution: full marks
        merge_template_update(hosting, config, "ann")
        student_commit(hosting, config, "ann",
                       {"counter.py": SOLVED_COUNTER.encode()})
        report_a = grade_task(hosting, "ann", "t1", config, executor)
        assert report_a.up_to_date
        assert report_a.earned == report_a.maximum == 1.0

        # ben submits without merging: graded stale, none of his code runs
        sentinel = tmp_path / "ben-code-ran.txt"
        trap = SOLVED_COUNTER + f"\nopen({str(sentinel)!r}, 'w').write('x')\n"
        student_commit(hosting, config, "ben", {"counter.py": trap.encode()})
        report_b = grade_task(hosting, "ben", "t1", config, executor)
        assert report_b.up_to_date is False
        assert report_b.outcomes == () and report_b.earned == 0.0
        assert not sentinel.exists()

        # cam merges, then swaps the graded tests for always-green fakes;
        # the teacher's copies run instead and the tamper buys nothing
        merge_template_update(hosting, config, "cam")
        student_commit(hosting, config, "cam", {
            "tests/mytest1.py": b"print('ok')\n",
            "tests/mytest2.py": b"print('ok')\n",
        })
        report_c = grade_task(hosting, "cam", "t1", config, executor)
        assert report_c.up_to_date and report_c.earned == 0.0
        statuses = {o.test_id: o.status for o in report_c.outcomes}
        assert statuses["mytest1"] is TestStatus.FAIL
        assert statuses["mytest2"] is TestStatus.FAIL
        assert perf_counter() - start < 30.0


def test_criterion_06_template_history_hygiene(tmp_path):
    with check(6, "10 publish cycles never leak markers or hidden files"):
        config = make_config(tmp_path)
        hosting = in_memory_hosting()
        rng = random.Random(606)
        files = solution_files()
        for cycle in range(10):
            files = dict(files)
            files["README.md"] = (
                f"# cs101 exercises\n\nrevision {cycle}\n".encode())
            if rng.random() < 0.7:
                files[f"extra{cycle}.py"] = (
                    f"def helper{cycle}(x):\n"
                    f'    # STUDENT raise NotImplementedError("h{cycle}")\n'
                    "    # BEGIN STRIP\n"
                    f"    return x * {cycle + 2}\n"
                    "    # END STRIP\n").encode()
            if rng.random() < 0.5:
                files[f"tests/hidden_extra{cycle}.py"] = b"assert True\n"
            result = setup_course(hosting, config, snapshot=Snapshot(files),
                                  executor=ScriptedExecutor())
            assert result.status is PublishStatus.PUBLISHED
        template = hosting.fetch(config.template_repo_name, config.bot_account)
        history = list(walk(template, template.head()))
        assert len(history) == 10
        for commit in history:
            for path, data in commit.snapshot.items():
                assert not config.teacher_only.matches(path), path
                if config.dialect_for(path) is not None:
                    body = data.decode()
                    for token in MARKER_TOKENS:
                        assert token not in body, (path, token)


def test_criterion_07_compile_failure_single_error(tmp_path):
    with check(7, "broken build: one ERROR outcome, zero earned"):
        config = make_config(tmp_path)
        hosting = in_memory_hosting()
        executor = LocalProcessExecutor(config.compile_command,
                                        config.test_command)
        setup_course(hosting, config, executor=executor)
        enroll(hosting, "dave", config)
        student_commit(hosting, config, "dave",
                       {"counter.py": b"def broken(:\n"})
        report = grade_task(hosting, "dave", "t1", config, executor)
        assert report.earned == 0.0
        (only,) = report.outcomes
        assert only.test_id == "compile"
        assert only.status is TestStatus.ERROR
        assert "SyntaxError" in only.detail and "counter.py" in only.detail


def test_criterion_08_timeouts_enforced(tmp_path):
    with check(8, "cpu/wall overruns stopped within 3x the limit"):
        executor = LocalProcessExecutor(None, [PYTHON, "{test_id}"])

        (tmp_path / "spin.py").write_text("while True:\n    pass\n")
        raw = executor.run_test(tmp_path, "spin.py", 1.0, None)
        assert raw.status is TestStatus.CPU_TIMEOUT
        assert raw.cpu_seconds is not None and raw.cpu_seconds <= 3.0

        (tmp_path / "nap.py").write_text("import time\ntime.sleep(5)\n")
        raw = executor.run_test(tmp_path, "nap.py", None, 1.0)
        assert raw.status is TestStatus.WALL_TIMEOUT
        assert raw.wall_seconds <= 3.0


def test_criterion_09_scale(tmp_path):
    with check(9, "10k-line strip <1s; 300 enrollments <10s"):
        config = make_config(tmp_path)
        files: dict[str, bytes] = {}
        for f in range(100):  # 100 files x 100 lines = 10,000 lines
            lines: list[str] = []
            for block in range(10):
                lines += [
                    f"x{block} = {block}",
                    "y = x0 + 1",
                    f"z = y * {f}",
                    "w = z - 2",
                    "items = [x0, y, z, w]",
                    "total = sum(items)",
                    f"# STUDENT total = {block}",
                    "# BEGIN STRIP",
                    f"secret_{block} = {f * block}",
                    "# END STRIP",
                ]
            files[f"src/mod{f:03d}.py"] = ("\n".join(lines) + "\n").encode()
        start = perf_counter()
        template = strip_snapshot(Snapshot(files), config)
        assert perf_counter() - start < 1.0
        assert len(template) == 100
        sample = template["src/mod042.py"].decode()
        assert "secret_" not in sample and "STRIP" not in sample

        hosting = in_memory_hosting()
        setup_course(hosting, config, executor=ScriptedExecutor())
        start = perf_counter()
        for i in range(300):
            enroll(hosting, f"s{i:03d}", config)
        assert perf_counter() - start < 10.0
        student_owned = [
            r for r in hosting.list_repos(config.bot_account)
            if r.name not in (config.template_repo_name,
                              config.teacher_repo_name)]
        assert len(student_owned) == 300
        assert all(r.visibility == "private" for r in student_owned)
        assert all(r.owner == config.bot_account for r in student_owned)


def test_criterion_10_weekly_activity_exact(tmp_path):
    with check(10, "7-day 2-student activity matches hand computation"):
        config, hosting, ledger = build_week_fixture(tmp_path)
        rows = commit_activity(hosting, ledger, config,
                               date(2026, 3, 2), date(2026, 3, 8))
        assert rows == [
            ActivitySeries(date(2026, 3, 2), 1.5, 0.0, 0.0),
            ActivitySeries(date(2026, 3, 3), 0.5, 0.5, 0.5),
            ActivitySeries(date(2026, 3, 4), 0.5, 0.5, 0.0),
            ActivitySeries(date(2026, 3, 5), 0.0, 0.0, 0.0),
            ActivitySeries(date(2026, 3, 6), 0.0, 0.0, 0.0),
            ActivitySeries(date(2026, 3, 7), 0.0, 0.0, 0.0),
            ActivitySeries(date(2026, 3, 8), 0.0, 0.0, 0.0),
        ]
        # alice's Mar 3 merge of the template update is counted separately
        assert [r.merges_excluded for r in rows] == [0, 0.5, 0, 0, 0, 0, 0]
