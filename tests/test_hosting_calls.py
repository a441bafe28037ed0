"""The hosting calls enrollment and publishing make, one by one.

On the REST backend every call is one HTTP round trip, so these tests pin
the sequence: a repository ``create_repo`` returns is used as is, a push
updates the caller's copy rather than fetching it again, an ``enroll``
fetches the template at most once, and one push carries every commit a
new repository needs, however long the template history.
"""

from __future__ import annotations

import functools

import pytest

from courseforge import cli
from courseforge.cli import dispatch
from courseforge.enrollment import _provision_repo
from courseforge.repomodel import (
    InMemoryHosting,
    in_memory_hosting,
    snapshot_to_dir,
)
from util import course_yaml, make_config, setup_course, solution_snapshot


class _CountingHosting:
    """Wrapper that logs every hosting call as (operation, repository), and
    each push as (operation, repository, number of commits)."""

    def __init__(self, inner, calls: list):
        self._inner = inner
        self._calls = calls

    def __getattr__(self, name):
        operation = getattr(self._inner, name)

        def counted(*args, **kwargs):
            call = (name, args[0] if args else None)
            # push(name, owner, branch, *commits)
            self._calls.append(call + (len(args) - 3,) if name == "push"
                               else call)
            return operation(*args, **kwargs)
        return counted


def test_provisioning_calls(tmp_path):
    config = make_config(tmp_path)
    hosting = in_memory_hosting()
    setup_course(hosting, config, timestamp=1700000000)
    calls: list = []
    counting = _CountingHosting(hosting, calls)

    template = hosting.fetch("cs101-template", "coursebot")

    _provision_repo(counting, "cs101-duo", config, template, "ann ben",
                    1700000100)
    # the template commit and the enrollment commit
    assert calls == [("create_repo", "cs101-duo"), ("push", "cs101-duo", 2)]
    calls.clear()
    _provision_repo(counting, "cs101-duo", config, template, "ann ben",
                    1700000200)
    assert calls == [("create_repo", "cs101-duo")]


@pytest.fixture
def run_counted(tmp_path, capsys, monkeypatch):
    """Runs a CLI command on the test course; returns its hosting calls."""
    config_path = tmp_path / "course.yaml"
    config_path.write_text(course_yaml(), encoding="utf-8")
    open_backend = cli._open_backend
    calls: list = []

    def counting_backend(spec, config):
        hosting, save = open_backend(spec, config)
        return _CountingHosting(hosting, calls), save

    monkeypatch.setattr(cli, "_open_backend", counting_backend)

    def run(command: str, *extra: str) -> list:
        calls.clear()
        assert dispatch([command, "--config", str(config_path), *extra]) == 0
        capsys.readouterr()
        return list(calls)
    return run


@pytest.fixture
def publish(run_counted):
    """Runs ``publish`` with extra arguments; returns its hosting calls."""
    return functools.partial(run_counted, "publish")


def test_publish_calls(tmp_path, publish):
    solution = tmp_path / "solution"
    snapshot_to_dir(solution_snapshot(), solution)
    teacher_dir = ["--teacher-dir", str(solution)]

    assert publish(*teacher_dir) == [
        ("create_repo", "cs101-solutions"),
        ("push", "cs101-solutions", 1),  # the first commit is a push
        ("create_repo", "cs101-template"),
        ("push", "cs101-template", 1)]
    # an unchanged solution pushes nothing
    assert publish(*teacher_dir) == [
        ("create_repo", "cs101-solutions"),
        ("create_repo", "cs101-template")]
    assert publish() == [
        ("create_repo", "cs101-solutions"),
        ("create_repo", "cs101-template")]
    (solution / "README.md").write_text("# rev 2\n", encoding="utf-8")
    assert publish(*teacher_dir) == [
        ("create_repo", "cs101-solutions"),
        ("push", "cs101-solutions", 1),
        ("create_repo", "cs101-template"),
        ("push", "cs101-template", 1)]


def test_roster_enroll_fetches_the_template_once(tmp_path, publish,
                                                 run_counted):
    solution = tmp_path / "solution"
    snapshot_to_dir(solution_snapshot(), solution)
    publish("--teacher-dir", str(solution))
    roster = tmp_path / "roster.txt"
    roster.write_text("solo\nduo: ann ben\ntrio: cal dee eve\n",
                      encoding="utf-8")

    def provisioned(group: str, *members: str) -> list:
        repo = f"cs101-{group}"
        return [("create_repo", repo), ("push", repo, 2),
                *[("invite_collaborator", repo)] * len(members)]
    assert run_counted("enroll", "--roster", str(roster)) == [
        ("fetch", "cs101-template"),
        *provisioned("solo", "solo"),
        *provisioned("duo", "ann", "ben"),
        *provisioned("trio", "cal", "dee", "eve")]
    # everyone enrolled: nothing to provision, nothing fetched
    assert run_counted("enroll", "--roster", str(roster)) == []
    roster.write_text("solo\nduo: ann ben\nnew: fay\nlast: gus\n",
                      encoding="utf-8")
    assert run_counted("enroll", "--roster", str(roster)) == [
        ("fetch", "cs101-template"),
        *provisioned("new", "fay"),
        *provisioned("last", "gus")]


@pytest.mark.parametrize("backend", ["memory", "remote"])
def test_enrolling_one_student_makes_four_calls_whatever_the_history(
        tmp_path, run_counted, bridge, backend):
    config = make_config(tmp_path)
    hosting = bridge.hosting if backend == "remote" else in_memory_hosting()
    state = tmp_path / "state" / "hosting-state.json"
    spec = f"remote:{bridge.url}" if backend == "remote" else f"memory:{state}"
    published = 0
    for history in (1, 5, 20):
        while published < history:
            published += 1
            setup_course(hosting, config, timestamp=1700000000 + published,
                         snapshot=solution_snapshot().with_files(
                             {"README.md": f"# rev {published}\n".encode()}))
        if backend == "memory":
            state.parent.mkdir(exist_ok=True)
            hosting.save_state(state)
        user = f"p{history}"
        # the template history, then the enrollment commit, in one push
        assert run_counted("enroll", "--backend", spec, "--user", user) == [
            ("fetch", "cs101-template"),
            ("create_repo", f"cs101-{user}"),
            ("push", f"cs101-{user}", history + 1),
            ("invite_collaborator", f"cs101-{user}")]
        if backend == "memory":
            hosting = InMemoryHosting.load_state(state)
        repo = hosting.fetch(f"cs101-{user}", "coursebot")
        template = hosting.fetch("cs101-template", "coursebot")
        assert len(template.commits) == history
        assert set(repo.commits) > set(template.commits)
        assert len(repo.commits) == history + 1
