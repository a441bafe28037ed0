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
    commit_to_doc,
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
                 params: dict | None = None) -> Any:
        """The JSON body of a 2xx response (``{}`` when it has none)."""
        url = self.base_url + path
        try:
            resp = self._session.request(method, url, json=json_body,
                                         params=params, timeout=_TIMEOUT)
        except requests.RequestException as exc:
            raise HostingError(f"{method} {url} failed: {exc}") from exc
        if not 200 <= resp.status_code < 300:
            try:
                detail = resp.json()["error"]
            except (ValueError, KeyError, TypeError):
                detail = ""
            raise HostingError(
                f"{method} {url} returned {resp.status_code}"
                + (f": {detail}" if detail else ""))
        if resp.status_code == 204 or not resp.content:
            return {}
        try:
            return resp.json()
        except ValueError as exc:
            raise HostingError(f"{method} {url}: invalid JSON response") from exc

    def _repos(self, method: str, path: str, key: str, **kwargs) -> list[Repo]:
        """The repositories a response body holds under ``key``: one
        document under "repo", a list of them under "repos"."""
        return repos_from_docs(self._request(method, path, **kwargs), key,
                               f"{method} {self.base_url + path}")

    @staticmethod
    def _repo_path(name: str, owner: str) -> str:
        return f"/repos/{quote(owner, safe='')}/{quote(name, safe='')}"

    def create_repo(self, name: str, owner: str,
                    visibility: str = "private") -> Repo:
        return self._repos("POST", "/repos", "repo", json_body={
            "name": name, "owner": owner, "visibility": visibility})[0]

    def invite_collaborator(self, name: str, owner: str, username: str) -> None:
        self._request("POST", self._repo_path(name, owner) + "/collaborators",
                      json_body={"username": username})

    def push(self, name: str, owner: str, branch: str, *commits: Commit) -> None:
        self._request(
            "POST",
            self._repo_path(name, owner)
            + f"/branches/{quote(branch, safe='')}/push",
            json_body={"commits": [commit_to_doc(c) for c in commits]})

    def fetch(self, name: str, owner: str) -> Repo:
        return self._repos("GET", self._repo_path(name, owner), "repo")[0]

    def list_repos(self, owner: str | None = None) -> list[Repo]:
        params = {"owner": owner} if owner is not None else None
        return self._repos("GET", "/repos", "repos", params=params)
