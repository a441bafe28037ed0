"""REST adapter: the hosting-service contract over an HTTP JSON protocol.

Speaks the protocol documented in ``docs/formats.md`` (the wire encoding of
repositories and commits is the same document layout the in-memory backend
persists to disk). The bearer credential comes exclusively from the
COURSEFORGE_TOKEN environment variable; it is never read from, or written
to, any configuration file.
"""

from __future__ import annotations

import os
from typing import Any
from urllib.parse import quote

import requests

from courseforge.repomodel import (
    Commit,
    HostingError,
    Repo,
    Snapshot,
    commit_to_doc,
    file_to_doc,
    repo_from_doc,
    repos_from_docs,
)

TOKEN_ENV = "COURSEFORGE_TOKEN"
_TIMEOUT = 30.0


class RestHosting:
    """HostingService implementation backed by a remote HTTP service."""

    def __init__(self, base_url: str, session: requests.Session | None = None):
        if not base_url:
            raise HostingError("remote hosting needs a base URL")
        self.base_url = base_url.rstrip("/")
        self._session = session or requests.Session()
        token = os.environ.get(TOKEN_ENV)
        if token:
            self._session.headers["Authorization"] = f"Bearer {token}"

    def _request(self, method: str, path: str, *, json_body: dict | None = None,
                 params: dict | None = None,
                 ok_status: tuple[int, ...] = (200, 201)) -> Any:
        url = self.base_url + path
        try:
            resp = self._session.request(method, url, json=json_body,
                                         params=params, timeout=_TIMEOUT)
        except requests.RequestException as exc:
            raise HostingError(f"{method} {url} failed: {exc}") from exc
        if resp.status_code not in ok_status:
            detail = ""
            try:
                detail = resp.json().get("error", "")
            except ValueError:
                pass
            raise HostingError(
                f"{method} {url} returned {resp.status_code}"
                + (f": {detail}" if detail else ""))
        if resp.status_code == 204 or not resp.content:
            return {}
        try:
            return resp.json()
        except ValueError as exc:
            raise HostingError(f"{method} {url}: invalid JSON response") from exc

    @staticmethod
    def _repo_path(name: str, owner: str) -> str:
        return f"/repos/{quote(owner, safe='')}/{quote(name, safe='')}"

    def create_repo(self, name: str, owner: str,
                    visibility: str = "private") -> Repo:
        doc = self._request("POST", "/repos", json_body={
            "name": name, "owner": owner, "visibility": visibility})
        return repo_from_doc(doc["repo"])

    def init_from_snapshot(self, name: str, owner: str, snapshot: Snapshot,
                           message: str, author: str,
                           timestamp: int | None = None) -> str:
        doc = self._request("POST", self._repo_path(name, owner) + "/init",
                            json_body={
                                "snapshot": [file_to_doc(p, d)
                                             for p, d in snapshot.items()],
                                "message": message,
                                "author": author,
                                "timestamp": timestamp,
                            })
        return doc["commit_id"]

    def invite_collaborator(self, name: str, owner: str, username: str) -> None:
        self._request("POST", self._repo_path(name, owner) + "/collaborators",
                      json_body={"username": username},
                      ok_status=(200, 201, 204))

    def push(self, name: str, owner: str, branch: str, commit: Commit) -> None:
        self._request(
            "POST",
            self._repo_path(name, owner)
            + f"/branches/{quote(branch, safe='')}/push",
            json_body={"commit": commit_to_doc(commit)},
            ok_status=(200, 201, 204))

    def fetch(self, name: str, owner: str) -> Repo:
        doc = self._request("GET", self._repo_path(name, owner))
        return repo_from_doc(doc["repo"])

    def list_repos(self, owner: str | None = None) -> list[Repo]:
        params = {"owner": owner} if owner is not None else None
        doc = self._request("GET", "/repos", params=params)
        return list(repos_from_docs(doc["repos"]))
