"""HTTP adapter tests: RestHosting against a live in-process server.

The server below bridges the documented JSON protocol onto an
InMemoryHosting instance, so every request crosses a real socket and the
wire encoding is exercised end to end.
"""

import inspect
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

import pytest

from courseforge.enrollment import EnrollmentLedger, enroll
from courseforge.remote import TOKEN_ENV, RestHosting
from courseforge.repomodel import (
    Commit,
    HostingError,
    HostingService,
    InMemoryHosting,
    Snapshot,
    commit_from_doc,
    file_from_doc,
    repo_to_doc,
)
from util import make_config, setup_course, solution_snapshot


class _BridgeHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass  # keep pytest output quiet

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_no_content(self) -> None:
        self.send_response(204)
        self.end_headers()

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        return json.loads(self.rfile.read(length)) if length else {}

    def do_GET(self):
        self.server.seen_auth.append(self.headers.get("Authorization"))
        if self.server.garbage_mode:
            raw = b"<html>definitely not json</html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
            return
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
        hosting = self.server.hosting
        try:
            if parts == ["repos"]:
                owner = parse_qs(url.query).get("owner", [None])[0]
                repos = hosting.list_repos(owner)
                self._send_json(200, {"repos": [repo_to_doc(r) for r in repos]})
            elif len(parts) == 3 and parts[0] == "repos":
                _, owner, name = parts
                try:
                    repo = hosting.fetch(name, owner)
                except HostingError:
                    self._send_json(
                        404, {"error": f"no repository {owner}/{name}"})
                    return
                self._send_json(200, {"repo": repo_to_doc(repo)})
            else:
                self._send_json(404, {"error": "unknown path"})
        except HostingError as exc:
            self._send_json(400, {"error": str(exc)})

    def do_POST(self):
        self.server.seen_auth.append(self.headers.get("Authorization"))
        url = urlparse(self.path)
        parts = [unquote(p) for p in url.path.split("/") if p]
        hosting = self.server.hosting
        try:
            body = self._read_body()
            if parts == ["repos"]:
                repo = hosting.create_repo(
                    body["name"], body["owner"],
                    body.get("visibility", "private"))
                self._send_json(201, {"repo": repo_to_doc(repo)})
            elif len(parts) == 4 and parts[0] == "repos" and parts[3] == "init":
                _, owner, name, _ = parts
                snap = Snapshot(
                    dict(file_from_doc(f) for f in body["snapshot"]))
                commit_id = hosting.init_from_snapshot(
                    name, owner, snap, body["message"], body["author"],
                    body.get("timestamp"))
                self._send_json(200, {"commit_id": commit_id})
            elif (len(parts) == 4 and parts[0] == "repos"
                  and parts[3] == "collaborators"):
                _, owner, name, _ = parts
                hosting.invite_collaborator(name, owner, body["username"])
                self._send_no_content()
            elif (len(parts) == 6 and parts[0] == "repos"
                  and parts[3] == "branches" and parts[5] == "push"):
                _, owner, name, _, branch, _ = parts
                hosting.push(name, owner, branch,
                             commit_from_doc(body["commit"]))
                self._send_no_content()
            else:
                self._send_json(404, {"error": "unknown path"})
        except HostingError as exc:
            self._send_json(400, {"error": str(exc)})


class _BridgeServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, hosting: InMemoryHosting):
        super().__init__(("127.0.0.1", 0), _BridgeHandler)
        self.hosting = hosting
        self.seen_auth: list[str | None] = []
        self.garbage_mode = False

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"


@pytest.fixture()
def bridge():
    server = _BridgeServer(InMemoryHosting())
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


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
    head = client.init_from_snapshot("cs101-alice", "coursebot",
                                     Snapshot(files), "First import",
                                     "coursebot", timestamp=1700000000)
    repo = client.fetch("cs101-alice", "coursebot")
    assert repo.head() == head
    top = repo.head_commit()
    assert (top.message, top.author, top.timestamp) == (
        "First import", "coursebot", 1700000000)
    assert dict(top.snapshot.items()) == files  # binary survives base64 leg


def test_push_extends_remote_history(client):
    client.create_repo("r", "bot")
    root = client.init_from_snapshot("r", "bot", Snapshot({"a": b"1\n"}),
                                     "Init", "bot", timestamp=100)
    child = Commit.create((root,), Snapshot({"a": b"2\n"}), "Edit", "alice", 200)
    client.push("r", "bot", "main", child)
    repo = client.fetch("r", "bot")
    assert repo.head() == child.commit_id
    assert repo.head_commit().parents == (root,)


def test_push_with_unknown_parent_is_rejected(client):
    client.create_repo("r", "bot")
    client.init_from_snapshot("r", "bot", Snapshot({"a": b"1\n"}),
                              "Init", "bot", timestamp=100)
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
        client.init_from_snapshot(f"cs101-{user}", "bot", tree, f"Enroll {user}",
                                  "bot", timestamp=100)
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
    assert protocol == {"create_repo", "init_from_snapshot",
                        "invite_collaborator", "push", "fetch", "list_repos"}
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
    bridge.garbage_mode = True
    with pytest.raises(HostingError, match="invalid JSON response"):
        client.list_repos()


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
