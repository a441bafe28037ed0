"""HTTP adapter tests: RestHosting against a live in-process server.

The ``bridge`` fixture (``tests/bridge.py``) serves the documented JSON
protocol over an InMemoryHosting instance, so every request crosses a
real socket and the wire encoding is exercised end to end.
"""

import inspect
import json
import socket

import pytest

from courseforge.cli import dispatch
from courseforge.enrollment import EnrollmentLedger, enroll
from courseforge.remote import TOKEN_ENV, RestHosting
from courseforge.repomodel import (
    Commit,
    HostingError,
    HostingService,
    InMemoryHosting,
    Snapshot,
    repo_to_doc,
)
from util import (
    course_yaml,
    make_config,
    push_root,
    setup_course,
    solution_snapshot,
)


@pytest.fixture()
def client(bridge, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    return RestHosting(bridge.url)


def test_base_url_is_required():
    with pytest.raises(HostingError, match="base URL"):
        RestHosting("")


def test_create_init_fetch_round_trip(client):
    created = client.create_repo("cs101-alice", "coursebot", "private")
    assert (created.name, created.owner) == ("cs101-alice", "coursebot")
    assert created.visibility == "private"

    files = {"readme.md": b"hi\n", "bin/logo.bin": bytes(range(256))}
    head = push_root(client, "cs101-alice", "coursebot", Snapshot(files),
                     "First import", "coursebot", 1700000000)
    repo = client.fetch("cs101-alice", "coursebot")
    assert repo.head() == head
    top = repo.head_commit()
    assert (top.message, top.author, top.timestamp) == (
        "First import", "coursebot", 1700000000)
    assert dict(top.snapshot.items()) == files  # binary survives base64 leg


def test_push_extends_remote_history(client):
    client.create_repo("r", "bot")
    root = push_root(client, "r", "bot", Snapshot({"a": b"1\n"}),
                     "Init", "bot", 100)
    child = Commit.create((root,), Snapshot({"a": b"2\n"}), "Edit", "alice", 200)
    client.push("r", "bot", "main", child)
    repo = client.fetch("r", "bot")
    assert repo.head() == child.commit_id
    assert repo.head_commit().parents == (root,)


def test_push_with_unknown_parent_is_rejected(client):
    client.create_repo("r", "bot")
    push_root(client, "r", "bot", Snapshot({"a": b"1\n"}), "Init", "bot", 100)
    orphan = Commit.create(("f" * 64,), Snapshot({"a": b"2\n"}),
                           "Orphan", "alice", 200)
    with pytest.raises(HostingError, match="push rejected"):
        client.push("r", "bot", "main", orphan)


def test_invite_collaborator_round_trips(client):
    client.create_repo("cs101-alice", "coursebot")
    client.invite_collaborator("cs101-alice", "coursebot", "alice")
    client.invite_collaborator("cs101-alice", "coursebot", "mentor")
    repo = client.fetch("cs101-alice", "coursebot")
    assert repo.collaborators == {"alice", "mentor"}


def test_list_repos_filters_by_owner(client):
    client.create_repo("b-repo", "bot")
    client.create_repo("a-repo", "bot")
    client.create_repo("other", "someone")
    names = [r.name for r in client.list_repos("bot")]
    assert names == ["a-repo", "b-repo"]
    assert len(client.list_repos()) == 3


def test_listed_repos_share_equal_trees(client):
    tree = Snapshot({"src/m.py": b"x = 1\n"})
    for user in ("alice", "bob"):
        client.create_repo(f"cs101-{user}", "bot")
        push_root(client, f"cs101-{user}", "bot", tree, f"Enroll {user}",
                  "bot", 100)
    alice, bob = (r.head_commit() for r in client.list_repos("bot"))
    assert alice.commit_id != bob.commit_id
    assert alice.snapshot is bob.snapshot
    assert alice.snapshot == tree


def test_fetch_tells_missing_from_present_by_http_status(client):
    with pytest.raises(HostingError, match="returned 404"):
        client.fetch("ghost", "bot")
    client.create_repo("ghost", "bot")
    assert client.fetch("ghost", "bot").name == "ghost"


def test_backends_define_exactly_the_pipeline_protocol():
    protocol = {n for n in vars(HostingService) if not n.startswith("_")}
    assert protocol == {"create_repo", "invite_collaborator", "push", "fetch",
                        "list_repos"}
    for backend in (InMemoryHosting, RestHosting):
        for name in protocol:
            method = getattr(backend, name, None)
            assert callable(method), f"{backend.__name__} lacks {name}"
            wanted = inspect.signature(getattr(HostingService, name))
            assert inspect.signature(method).parameters.keys() \
                == wanted.parameters.keys(), f"{backend.__name__}.{name}"


def test_fetch_missing_repo_carries_server_detail(client):
    with pytest.raises(HostingError, match="returned 404"):
        client.fetch("ghost", "bot")
    with pytest.raises(HostingError, match="no repository bot/ghost"):
        client.fetch("ghost", "bot")


def test_bearer_token_header_sent_when_env_set(bridge, monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "sekrit-token")
    hosting = RestHosting(bridge.url)
    hosting.create_repo("r", "bot")
    assert bridge.seen_auth[-1] == "Bearer sekrit-token"


def test_no_auth_header_without_token(bridge, client):
    client.create_repo("r", "bot")
    client.fetch("r", "bot")
    assert bridge.seen_auth == [None, None]


def test_token_is_read_at_construction_time(bridge, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    hosting = RestHosting(bridge.url)
    monkeypatch.setenv(TOKEN_ENV, "late")  # too late, adapter already built
    hosting.create_repo("r", "bot")
    assert bridge.seen_auth[-1] is None


def test_non_json_response_is_a_hosting_error(bridge, client):
    bridge.canned = (200, b"<html>definitely not json</html>")
    with pytest.raises(HostingError, match="invalid JSON response"):
        client.list_repos()


def _served(change) -> dict:
    """A body holding a repository document under both keys, as a server
    would send it, after ``change``."""
    hosting = InMemoryHosting()
    hosting.create_repo("r", "bot")
    push_root(hosting, "r", "bot", Snapshot({"a": b"1\n"}), "Init", "bot", 100)
    doc = repo_to_doc(hosting.fetch("r", "bot"))
    change(doc)
    return {"repo": doc, "repos": [doc]}


@pytest.mark.parametrize("body", [
    {}, [], {"repo": None}, {"repos": [1]},
    _served(lambda doc: doc.pop("owner")),
    _served(lambda doc: doc.update(branches=["main"])),
    _served(lambda doc: doc["commits"][0].update(message="Forged")),
], ids=["empty", "list", "null", "number", "no-owner", "branch-list",
        "forged-commit"])
def test_a_malformed_body_is_a_hosting_error(bridge, client, body):
    bridge.canned = (200, json.dumps(body).encode())
    for call in (lambda: client.create_repo("r", "bot"),
                 lambda: client.fetch("r", "bot"),
                 lambda: client.list_repos("bot")):
        with pytest.raises(HostingError, match=f"^(GET|POST) {bridge.url}"
                           r"/repos\S* is corrupt: "):
            call()


def test_a_body_without_its_repository_key_names_the_key(bridge, client):
    bridge.canned = (200, b"{}")
    for call, key in ((lambda: client.create_repo("r", "bot"), "repo"),
                      (lambda: client.fetch("r", "bot"), "repo"),
                      (lambda: client.list_repos("bot"), "repos")):
        with pytest.raises(HostingError,
                           match=f"is corrupt: missing key '{key}'$"):
            call()


def test_any_2xx_is_a_success_and_an_error_body_need_not_be_json(bridge,
                                                                  client):
    bridge.canned = (202, b"")
    client.invite_collaborator("r", "bot", "alice")
    for raw in (b"<html>oops</html>", b"[1]", b'{"detail": "x"}'):
        bridge.canned = (500, raw)
        with pytest.raises(HostingError, match=r"returned 500$"):
            client.invite_collaborator("r", "bot", "alice")


def test_enroll_against_a_malformed_server_ends_in_a_hosting_error(
        tmp_path, capsys, bridge, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    config = tmp_path / "course.yaml"
    config.write_text(course_yaml(), encoding="utf-8")
    bridge.canned = (200, b"{}")
    rc = dispatch(["enroll", "--config", str(config),
                   "--backend", f"remote:{bridge.url}", "--user", "alice"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert f"error: GET {bridge.url}/repos/coursebot/cs101-template is " \
        "corrupt: " in err
    assert out.strip().splitlines()[-1] \
        == "RESULT error cmd=enroll code=2 reason=HostingError"


def test_unreachable_server_is_a_hosting_error(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here any more
    hosting = RestHosting(f"http://127.0.0.1:{port}")
    with pytest.raises(HostingError, match="failed"):
        hosting.list_repos()


def test_publish_and_enroll_work_over_http(tmp_path, client):
    """The adapter satisfies the whole hosting contract, not just one verb."""
    config = make_config(tmp_path)
    result = setup_course(client, config, timestamp=1700000000)
    assert result.template_commit is not None

    ledger = EnrollmentLedger(tmp_path / "enroll.jsonl")
    record = enroll(client, "alice", config, ledger=ledger,
                    timestamp=1700000100)
    repo = client.fetch(record.repo_name, config.bot_account)
    assert repo.visibility == "private"
    assert repo.collaborators == {"alice"}
    assert repo.head_commit().message == "Enroll alice"
    template = client.fetch(config.template_repo_name, config.bot_account)
    assert repo.head_commit().parents == (template.head(),)
