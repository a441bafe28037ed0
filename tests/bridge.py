"""A live HTTP hosting service for tests: the documented JSON protocol
bridged onto an InMemoryHosting instance, so every request crosses a real
socket and the wire encoding is exercised end to end."""

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from courseforge.repomodel import (
    HostingError,
    InMemoryHosting,
    commit_from_doc,
    repo_to_doc,
)


class BridgeHandler(BaseHTTPRequestHandler):
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

    def _send_canned(self) -> bool:
        """Answer with the server's canned response, if it has one."""
        if self.server.canned is None:
            return False
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        status, raw = self.server.canned
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)
        return True

    def do_GET(self):
        self.server.seen_auth.append(self.headers.get("Authorization"))
        if self._send_canned():
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
        if self._send_canned():
            return
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
            elif (len(parts) == 4 and parts[0] == "repos"
                  and parts[3] == "collaborators"):
                _, owner, name, _ = parts
                hosting.invite_collaborator(name, owner, body["username"])
                self._send_no_content()
            elif (len(parts) == 6 and parts[0] == "repos"
                  and parts[3] == "branches" and parts[5] == "push"):
                _, owner, name, _, branch, _ = parts
                trees: dict = {}
                hosting.push(name, owner, branch, *(
                    commit_from_doc(c, trees) for c in body["commits"]))
                self._send_no_content()
            else:
                self._send_json(404, {"error": "unknown path"})
        except HostingError as exc:
            self._send_json(400, {"error": str(exc)})


class BridgeServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, hosting: InMemoryHosting):
        super().__init__(("127.0.0.1", 0), BridgeHandler)
        self.hosting = hosting
        self.seen_auth: list[str | None] = []
        # (status, body) to answer every request with, in place of hosting
        self.canned: tuple[int, bytes] | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"
