"""Template publication: strip, gate on the solution suite, push or abort."""

from __future__ import annotations

import dataclasses

import pytest

from courseforge.executor import TestStatus
from courseforge.publisher import (
    PublishError,
    PublishStatus,
    publish_template,
)
from courseforge.repomodel import HostingError, Snapshot, in_memory_hosting, walk
from courseforge.stripper import MarkerViolationError, strip_snapshot
from util import (
    SOLUTION_COUNTER,
    ScriptedExecutor,
    make_config,
    repo_snapshot,
    setup_course,
    solution_snapshot,
)

TEMPLATE_COUNTER = (
    'def increment(x):\n'
    '    raise NotImplementedError("increment")\n'
    '\n'
    '\n'
    'def scale(x, factor):\n'
    '    raise NotImplementedError("scale")\n'
)

MARKER_TOKENS = ("BEGIN STRIP", "END STRIP", "STUDENT")


def assert_template_hygiene(template, config) -> None:
    """No commit in template history may leak markers or teacher-only files."""
    for c in walk(template, template.head()):
        for path, data in c.snapshot.items():
            assert not config.teacher_only.matches(path), \
                f"teacher-only path {path} in template commit {c.commit_id[:12]}"
            if config.dialect_for(path) is None:
                continue
            text = data.decode("utf-8")
            for token in MARKER_TOKENS:
                assert token not in text, \
                    f"marker token in {path} at commit {c.commit_id[:12]}"


def test_first_publication_pushes_the_stripped_tree(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    result = setup_course(hosting, config, timestamp=1700000000)
    assert result.status is PublishStatus.PUBLISHED
    assert result.failing_tests == ()
    assert result.message == f"template updated to {result.template_commit[:12]}"

    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert template.visibility == "public"
    head = template.head_commit()
    assert head.commit_id == result.template_commit
    assert head.author == "coursebot"
    assert head.message == f"Publish template from solution {teacher.head()}"
    # the pushed tree is exactly the independently stripped solution
    assert head.snapshot == strip_snapshot(repo_snapshot(teacher), config)
    assert head.snapshot["counter.py"] == TEMPLATE_COUNTER.encode()
    assert "tests/hidden_prop.py" not in head.snapshot
    assert "tasks/t1.yaml" not in head.snapshot
    assert "tests/mytest1.py" in head.snapshot  # replaced but not teacher-only
    assert head.snapshot["logo.bin"] == bytes(range(256))
    assert_template_hygiene(template, config)


def test_failing_solution_suite_aborts_without_touching_template(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    gate = ScriptedExecutor(results={"mytest2": TestStatus.FAIL})
    result = setup_course(hosting, config, executor=gate)
    assert result.status is PublishStatus.ABORTED
    assert result.template_commit is None
    assert result.failing_tests == ("t1:mytest2",)
    assert result.message == ("solution test suite failed; "
                              "template left untouched")
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert template.head() is None


def test_any_non_pass_status_fails_the_gate(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    gate = ScriptedExecutor(results={"hidden_prop": TestStatus.CPU_TIMEOUT})
    result = setup_course(hosting, config, executor=gate)
    assert result.status is PublishStatus.ABORTED
    assert result.failing_tests == ("t1:hidden_prop",)


def test_marker_violations_abort_before_any_test_runs(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    broken = solution_snapshot().with_files(
        {"broken.py": b"x = 1\n# BEGIN STRIP\nsecret = 2\n"})
    gate = ScriptedExecutor()
    with pytest.raises(MarkerViolationError, match="unclosed-begin"):
        setup_course(hosting, config, snapshot=broken, executor=gate)
    assert gate.compile_calls == [] and gate.test_calls == []
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert template.head() is None
    result = setup_course(hosting, config, snapshot=solution_snapshot())
    assert result.status is PublishStatus.PUBLISHED


def test_republishing_identical_solution_changes_nothing(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    first = setup_course(hosting, config, timestamp=1700000000)

    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    again = publish_template(hosting, teacher, template, config,
                             ScriptedExecutor())
    assert again.status is PublishStatus.UNCHANGED
    assert again.template_commit == first.template_commit
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert len(template.commits) == 1


def test_publication_history_is_append_only(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    first = setup_course(hosting, config, timestamp=1700000000)

    edited = solution_snapshot().with_files({
        "counter.py": SOLUTION_COUNTER.replace(
            'NotImplementedError("increment")',
            'NotImplementedError("todo: increment")').encode()})
    second = setup_course(hosting, config, snapshot=edited,
                          timestamp=1700000100)
    assert second.status is PublishStatus.PUBLISHED
    assert second.template_commit != first.template_commit

    template = hosting.fetch(config.template_repo_name, config.bot_account)
    head = template.head_commit()
    assert head.commit_id == second.template_commit
    assert head.parents == (first.template_commit,)
    assert len(template.commits) == 2
    assert_template_hygiene(template, config)


def test_leftover_publish_lock_file_is_ignored(tmp_path):
    # older versions left this file behind when a publication crashed
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    lock = tmp_path / "state" / "publish.lock"
    lock.parent.mkdir(parents=True)
    lock.write_text("12345\n")
    result = setup_course(hosting, config)
    assert result.status is PublishStatus.PUBLISHED
    assert lock.read_text() == "12345\n"


def test_course_without_tasks_still_gates_on_compilation(tmp_path):
    config = dataclasses.replace(make_config(tmp_path), tasks=())
    hosting = in_memory_hosting()
    broken_build = ScriptedExecutor(compile_ok=False, compile_message="nope")
    result = setup_course(hosting, config, executor=broken_build)
    assert result.status is PublishStatus.ABORTED
    assert result.failing_tests == ("-:compile",)

    ok = setup_course(hosting, config, executor=ScriptedExecutor())
    assert ok.status is PublishStatus.PUBLISHED


class _RejectingHosting:
    """Wrapper that fails every write the publisher attempts."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def push(self, *args, **kwargs):
        raise HostingError("remote said no")

    def init_from_snapshot(self, *args, **kwargs):
        raise HostingError("remote said no")


def test_hosting_failure_surfaces_with_retry_guidance(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    hosting.create_repo(config.teacher_repo_name, config.bot_account, "private")
    hosting.init_from_snapshot(config.teacher_repo_name, config.bot_account,
                               solution_snapshot(), "Import solution",
                               config.bot_account, 1700000000)
    hosting.create_repo(config.template_repo_name, config.bot_account, "public")
    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    with pytest.raises(PublishError,
                       match="template push failed: remote said no"):
        publish_template(_RejectingHosting(hosting), teacher, template, config,
                         ScriptedExecutor())
    fresh = hosting.fetch(config.template_repo_name, config.bot_account)
    assert fresh.head() is None  # template untouched
    # lock already released: an honest retry succeeds
    retry = publish_template(hosting, teacher, template, config,
                             ScriptedExecutor())
    assert retry.status is PublishStatus.PUBLISHED


def test_publishing_empty_solution_repository_is_an_error(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    hosting.create_repo(config.teacher_repo_name, config.bot_account, "private")
    hosting.create_repo(config.template_repo_name, config.bot_account, "public")
    teacher = hosting.fetch(config.teacher_repo_name, config.bot_account)
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    with pytest.raises(PublishError, match="has no commits"):
        publish_template(hosting, teacher, template, config, ScriptedExecutor())


def test_repeated_cycles_never_leak_markers_or_hidden_files(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    snapshot = solution_snapshot()
    for i in range(3):
        snapshot = snapshot.with_files({
            # a solution-only edit (stripped away), a hidden-test edit
            # (never published), and a visible edit forcing a new template
            "counter.py": SOLUTION_COUNTER.replace(
                "x + 1", f"x + 1 + {i} - {i}").encode(),
            "tests/hidden_prop.py": f"# revision {i}\n".encode(),
            "README.md": f"# cs101 exercises rev {i}\n".encode(),
        })
        result = setup_course(hosting, config, snapshot=snapshot,
                              timestamp=1700000000 + i * 100)
        assert result.status is PublishStatus.PUBLISHED
    template = hosting.fetch(config.template_repo_name, config.bot_account)
    assert len(template.commits) == 3
    assert_template_hygiene(template, config)
