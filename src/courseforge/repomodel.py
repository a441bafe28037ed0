"""Hosting-agnostic repository model: snapshots, commits, branches, ancestry.

A repository is a content-addressed DAG of commits. Each commit carries a
full snapshot of the tree (path to bytes), so history transfer never needs
delta reconstruction. Commit ids are SHA-256 over a canonical byte encoding
documented in ``docs/formats.md``; equal content yields equal ids on every
backend.

The module also defines the :class:`HostingService` contract every backend
implements, the thread-safe in-memory backend used by tests and hermetic CLI
runs, and adapters between snapshots and on-disk working directories. The
in-memory backend's state file lists a commit again in every repository that
holds it, and each commit its full tree; loading parses each distinct tree's
text once, builds each distinct commit and tree once and lets copies share
it, and saving serialises each tree once.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import logging
import os
import stat
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol

log = logging.getLogger(__name__)


class RepoModelError(Exception):
    """Raised for malformed snapshots, unknown commits, or bad pushes."""


class HostingError(Exception):
    """Raised when a hosting operation is rejected or a backend misbehaves."""


def _netstr(tag: str, payload: bytes) -> bytes:
    return tag.encode("ascii") + b" " + str(len(payload)).encode("ascii") \
        + b":" + payload


def validate_repo_path(path: str, what: str = "repo path",
                       error: type[Exception] = RepoModelError) -> None:
    """Reject non-normalized repo paths and paths holding a NUL, which the
    tree digest uses as the separator of a path from its content. Raises
    ``error`` naming the path ``what``."""
    if not path or path.startswith("/") or "\\" in path or "\0" in path:
        raise error(f"invalid {what}: {path!r}")
    for seg in path.split("/"):
        if seg in ("", ".", ".."):
            raise error(f"invalid {what}: {path!r}")


class Snapshot:
    """An immutable tree: repo-relative paths mapped to file bytes.

    Paths are validated on construction; a path may not simultaneously be a
    file and a directory prefix of another file.
    """

    __slots__ = ("_entries", "_digest")

    def __init__(self, entries: Mapping[str, bytes] | None = None):
        items: dict[str, bytes] = {}
        for path, data in (entries or {}).items():
            validate_repo_path(path)
            if not isinstance(data, bytes):
                raise RepoModelError(f"file content must be bytes: {path!r}")
            items[path] = data
        # Every directory prefix of every path. A prefix already seen had
        # its own parents added with it, so each walk stops there.
        dirs: set[str] = set()
        for path in items:
            parent = path.rpartition("/")[0]
            while parent and parent not in dirs:
                dirs.add(parent)
                parent = parent.rpartition("/")[0]
        clash = dirs.intersection(items)
        if clash:
            raise RepoModelError(
                f"path is both a file and a directory: {sorted(clash)[0]!r}")
        self._entries: Mapping[str, bytes] = MappingProxyType(dict(sorted(items.items())))
        self._digest: bytes | None = None

    def paths(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def get(self, path: str, default: bytes | None = None) -> bytes | None:
        return self._entries.get(path, default)

    def __getitem__(self, path: str) -> bytes:
        try:
            return self._entries[path]
        except KeyError:
            raise RepoModelError(f"no such file in snapshot: {path!r}") from None

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> Iterable[tuple[str, bytes]]:
        return self._entries.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return dict(self._entries) == dict(other._entries)

    def __hash__(self) -> int:
        return hash(self.tree_digest())

    def __repr__(self) -> str:
        return f"Snapshot({len(self._entries)} files)"

    def tree_digest(self) -> bytes:
        if self._digest is None:
            # netstr("entry", path + NUL + data) per file, hashed in one call
            parts: list[bytes] = []
            for path, data in self._entries.items():
                name = path.encode("utf-8")
                parts += (b"entry ", str(len(name) + 1 + len(data)).encode("ascii"),
                          b":", name, b"\0", data)
            self._digest = hashlib.sha256(b"".join(parts)).digest()
        return self._digest

    def with_files(self, updates: Mapping[str, bytes]) -> Snapshot:
        merged = dict(self._entries)
        merged.update(updates)
        return Snapshot(merged)

    def without(self, paths: Iterable[str]) -> Snapshot:
        drop = set(paths)
        return Snapshot({p: d for p, d in self._entries.items() if p not in drop})


EMPTY_SNAPSHOT = Snapshot()


def compute_commit_id(parents: tuple[str, ...], snapshot: Snapshot, message: str,
                      author: str, timestamp: int) -> str:
    h = hashlib.sha256()
    h.update(_netstr("tree", snapshot.tree_digest()))
    for p in parents:
        h.update(_netstr("parent", p.encode("ascii")))
    h.update(_netstr("author", author.encode("utf-8")))
    h.update(_netstr("time", str(timestamp).encode("ascii")))
    h.update(_netstr("message", message.encode("utf-8")))
    return h.hexdigest()


@dataclass(frozen=True)
class Commit:
    commit_id: str
    parents: tuple[str, ...]
    snapshot: Snapshot
    message: str
    author: str
    timestamp: int

    @staticmethod
    def create(parents: Iterable[str], snapshot: Snapshot, message: str,
               author: str, timestamp: int) -> Commit:
        parents = tuple(parents)
        cid = compute_commit_id(parents, snapshot, message, author, timestamp)
        return Commit(cid, parents, snapshot, message, author, timestamp)

    def verify(self) -> None:
        expect = compute_commit_id(self.parents, self.snapshot, self.message,
                                   self.author, self.timestamp)
        if expect != self.commit_id:
            raise RepoModelError(
                f"commit id mismatch: stored {self.commit_id[:12]}, "
                f"computed {expect[:12]}")


DEFAULT_BRANCH = "main"


class Repo:
    """A mutable repository: commit store plus branch pointers and metadata."""

    def __init__(self, name: str, owner: str, visibility: str = "private",
                 default_branch: str = DEFAULT_BRANCH):
        if visibility not in ("private", "public"):
            raise RepoModelError(f"visibility must be private or public: {visibility!r}")
        self.name = name
        self.owner = owner
        self.visibility = visibility
        self.default_branch = default_branch
        self.branches: dict[str, str] = {}
        self.collaborators: set[str] = set()
        self.commits: dict[str, Commit] = {}

    def __repr__(self) -> str:
        return (f"Repo({self.owner}/{self.name}, {self.visibility}, "
                f"{len(self.commits)} commits)")

    def head(self) -> str | None:
        return self.branches.get(self.default_branch)

    def head_commit(self) -> Commit:
        head = self.head()
        if head is None:
            raise RepoModelError(f"{self.owner}/{self.name} has no commits on "
                                 f"{self.default_branch!r}")
        return self.get_commit(head)

    def get_commit(self, commit_id: str) -> Commit:
        try:
            return self.commits[commit_id]
        except KeyError:
            raise RepoModelError(
                f"unknown commit {commit_id[:12]} in {self.owner}/{self.name}"
            ) from None

    def add_commit(self, c: Commit) -> None:
        """Store a commit; its parents must already be present. Idempotent."""
        if c.commit_id in self.commits:
            return
        c.verify()
        self._link(c)

    def _link(self, c: Commit) -> None:
        """Store a verified commit; its parents must already be present."""
        missing = [p for p in c.parents if p not in self.commits]
        if missing:
            raise RepoModelError(
                f"commit {c.commit_id[:12]} has unknown parent {missing[0][:12]}")
        self.commits[c.commit_id] = c

    def set_branch(self, branch: str, commit_id: str) -> None:
        if commit_id not in self.commits:
            raise RepoModelError(f"cannot point branch at unknown commit "
                                 f"{commit_id[:12]}")
        self.branches[branch] = commit_id


def commit(repo: Repo, branch: str, snapshot: Snapshot, message: str,
           author: str, timestamp: int | None = None) -> Commit:
    """Append a commit on ``branch`` (creating it if absent) and advance it."""
    if timestamp is None:
        timestamp = int(time.time())
    head = repo.branches.get(branch)
    parents = (head,) if head else ()
    c = Commit.create(parents, snapshot, message, author, timestamp)
    repo.add_commit(c)
    repo.branches[branch] = c.commit_id
    return c


def walk(repo: Repo, *heads: str) -> Iterator[Commit]:
    """Each commit reachable from ``heads`` once, parents first.

    The heads are taken in the order given: each adds the commits the
    earlier ones did not reach. Suitable for replay pushes.
    """
    seen: set[str] = set()
    # ids to expand, and expanded commits to yield when popped: by then
    # everything pushed above them, their parents included, is yielded
    stack: list[str | Commit] = list(reversed(heads))
    while stack:
        top = stack.pop()
        if isinstance(top, Commit):
            yield top
        elif top not in seen:
            seen.add(top)
            c = repo.get_commit(top)
            stack.append(c)
            stack.extend(c.parents)


def is_ancestor(repo: Repo, ancestor_id: str, descendant_id: str) -> bool:
    """True when ``ancestor_id`` equals or is reachable from ``descendant_id``."""
    repo.get_commit(ancestor_id)
    return any(c.commit_id == ancestor_id for c in walk(repo, descendant_id))


# ---------------------------------------------------------------------------
# Hosting-service contract
# ---------------------------------------------------------------------------

class HostingService(Protocol):
    """What a hosting backend must provide. All operations are synchronous.

    Contract invariants: ``create_repo`` is idempotent per (name, owner) and
    re-creation returns the existing repository unchanged. ``push`` takes
    commits parents first, skips held ones and moves the branch to the last,
    all or nothing: it rejects an id that does not verify, a parent neither
    the repository nor an earlier commit holds, and a root commit once it
    holds any, so a first commit is a root commit pushed into an empty one.
    ``fetch`` and ``list_repos`` return detached copies that later mutations
    of hosting state never affect.
    """

    def create_repo(self, name: str, owner: str,
                    visibility: str = "private") -> Repo: ...

    def invite_collaborator(self, name: str, owner: str, username: str) -> None: ...

    def push(self, name: str, owner: str, branch: str, *commits: Commit) -> None: ...

    def fetch(self, name: str, owner: str) -> Repo: ...

    def list_repos(self, owner: str | None = None) -> list[Repo]: ...


def _clone(repo: Repo) -> Repo:
    # Commits and snapshots are immutable, so sharing them is safe; only the
    # mutable containers need copying.
    out = Repo(repo.name, repo.owner, repo.visibility, repo.default_branch)
    out.branches = dict(repo.branches)
    out.collaborators = set(repo.collaborators)
    out.commits = dict(repo.commits)
    return out


STATE_FORMAT = "repo-state"
STATE_VERSION = 1


class InMemoryHosting:
    """Reference backend holding all repositories in process memory."""

    def __init__(self):
        self._repos: dict[tuple[str, str], Repo] = {}
        self._lock = threading.RLock()

    def _get(self, name: str, owner: str) -> Repo:
        try:
            return self._repos[(owner, name)]
        except KeyError:
            raise HostingError(f"no such repository: {owner}/{name}") from None

    def create_repo(self, name: str, owner: str,
                    visibility: str = "private") -> Repo:
        with self._lock:
            existing = self._repos.get((owner, name))
            if existing is not None:
                return _clone(existing)
            repo = Repo(name, owner, visibility)
            self._repos[(owner, name)] = repo
            return _clone(repo)

    def invite_collaborator(self, name: str, owner: str, username: str) -> None:
        with self._lock:
            self._get(name, owner).collaborators.add(username)

    def push(self, name: str, owner: str, branch: str, *commits: Commit) -> None:
        with self._lock:
            repo = self._get(name, owner)
            staged = _clone(repo)  # the repository takes it once all pass
            try:
                if not commits:
                    raise RepoModelError("no commits to push")
                for c in commits:
                    if staged.commits and not c.parents \
                            and c.commit_id not in staged.commits:
                        raise RepoModelError(
                            f"{owner}/{name} already has history; root commit "
                            f"{c.commit_id[:12]} is not part of it")
                    staged.add_commit(c)
                staged.set_branch(branch, commits[-1].commit_id)
            except RepoModelError as exc:
                raise HostingError(f"push rejected: {exc}") from exc
            repo.commits, repo.branches = staged.commits, staged.branches

    def fetch(self, name: str, owner: str) -> Repo:
        with self._lock:
            return _clone(self._get(name, owner))

    def list_repos(self, owner: str | None = None) -> list[Repo]:
        with self._lock:
            return [_clone(r) for (o, _), r in sorted(self._repos.items())
                    if owner is None or o == owner]

    # -- persistence --------------------------------------------------------

    def save_state(self, path: str | Path) -> None:
        """Write the entire backend state as canonical JSON (stable bytes).

        Each repository is encoded once with the placeholder ``0`` in each
        commit's ``files`` slot and written as it is produced, each slot
        filled with its tree's canonical text, which is encoded once per
        distinct tree. The file is replaced atomically (a temporary file,
        fsync, rename), so a failed save leaves it intact.
        """
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh, self._lock:
                os.chmod(fh.fileno(), _file_mode(path))
                # JSON strings escape their quotes, so '"repos":[]' and
                # '"files":0' can only be the keys themselves.
                head, _, tail = _canonical({
                    "format": STATE_FORMAT,
                    "version": STATE_VERSION,
                    "repos": [],
                }).partition('"repos":[]')
                fh.write(head + '"repos":[')
                tree_texts: dict[bytes, str] = {}
                for i, (_, repo) in enumerate(sorted(self._repos.items())):
                    rdoc = repo_to_doc(repo, 0)
                    first, *rest = _canonical(rdoc).split('"files":0')
                    pieces = ["," if i else "", first]
                    for cdoc, piece in zip(rdoc["commits"], rest):
                        snapshot = repo.commits[cdoc["id"]].snapshot
                        digest = snapshot.tree_digest()
                        if digest not in tree_texts:
                            tree_texts[digest] = _canonical(tree_to_doc(snapshot))
                        pieces += ('"files":', tree_texts[digest], piece)
                    fh.write("".join(pieces))
                fh.write("]" + tail + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        _fsync_dir(path.parent)

    @staticmethod
    def load_state(path: str | Path) -> "InMemoryHosting":
        """Rebuild a backend from a state file, verifying every commit id.

        Each distinct canonical ``files`` list is cut out of the text and
        parsed once (:func:`_cut_lists`), and the rest of the text is
        parsed once, each ``NaN`` in it read as the next list cut. See
        :func:`repos_from_docs` for what is built and verified once.
        """
        started = time.perf_counter()
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise HostingError(f"cannot read state file {path}: {exc}") from exc
        size = len(data)
        try:
            raw = data.decode("utf-8")
            del data  # hold one copy of the text while cutting it
            skeleton, cuts = _cut_lists(raw)
            del raw
            taken = iter(cuts)

            def constant(token: str) -> _CutList:
                # strict JSON has no NaN, so each one is a list cut out
                if token != "NaN" or (cut := next(taken, None)) is None:
                    raise ValueError(f"{token} is not a JSON value")
                return cut

            doc = json.loads(skeleton, parse_constant=constant)
        except ValueError as exc:  # also text that is not UTF-8
            raise HostingError(f"state file {path} is not valid JSON: "
                               f"{_json_error(path, exc)}") from exc
        if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
            raise HostingError(f"state file {path} has unrecognized format")
        if doc.get("version") != STATE_VERSION:
            raise HostingError(
                f"state file {path} has unsupported version {doc.get('version')!r}")
        hosting = InMemoryHosting()
        for repo in repos_from_docs(doc, "repos", f"state file {path}"):
            hosting._repos[(repo.owner, repo.name)] = repo
        if log.isEnabledFor(logging.DEBUG):
            commits = {id(c): c for r in hosting._repos.values()
                       for c in r.commits.values()}
            log.debug(
                "load_state repos=%d commit_docs=%d commits_verified=%d "
                "trees_decoded=%d bytes=%d seconds=%.3f",
                len(doc["repos"]), sum(len(r["commits"]) for r in doc["repos"]),
                len(commits), len({id(c.snapshot) for c in commits.values()}),
                size, time.perf_counter() - started)
        return hosting


def _json_error(path: str | Path, exc: ValueError) -> ValueError:
    """The error ``json.loads`` gives for the state file itself.

    ``exc`` places the fault in the text :func:`_cut_lists` left over, so
    the file is read again for its own line and column. A file that parses
    whole (it holds a ``NaN`` or an infinity) keeps ``exc``.
    """
    try:
        json.loads(Path(path).read_bytes().decode("utf-8"))
    except ValueError as whole:  # also text that is not UTF-8
        return whole
    except OSError:
        pass
    return exc


def _canonical(value: object) -> str:
    """The state file's JSON text for ``value`` (see docs/formats.md)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


# A canonical commit document sorts its keys, so its "files" list ends where
# its "id" begins. A JSON string escapes each quote in it, so neither marker
# can start inside a string.
_LIST_START = '"files":['
_LIST_END = '],"id":"'


class _CutList(NamedTuple):
    """A ``files`` list cut out of state text: its canonical text and value."""

    text: str
    docs: list


def _cut_lists(raw: str) -> tuple[str, list[_CutList]]:
    """Cut each canonical ``files`` list out of state text before it is parsed.

    Returns the text left over, with the token ``NaN`` in place of each
    list, and the lists cut, in text order; equal lists are parsed once and
    share one :class:`_CutList`. A span is cut only when it parses on its
    own and is canonical, so it is the whole value the full text holds
    there; any other list stays in the text.
    """
    known: dict[str, _CutList] = {}  # canonical text -> its list
    parts: list[str] = []  # the text between cuts
    cuts: list[_CutList] = []
    done = at = 0
    while (start := raw.find(_LIST_START, at)) >= 0:
        first = start + len(_LIST_START) - 1
        at = raw.find(_LIST_END, first) + 1
        if not at:
            break
        text = raw[first:at]
        cut = known.get(text)
        if cut is None:
            try:
                cut = _CutList(text, json.loads(text))
                if _canonical(cut.docs) != text:  # raises on a NaN
                    continue
            except ValueError:
                continue
            known[text] = cut
        parts.append(raw[done:first])
        cuts.append(cut)
        done = at
    parts.append(raw[done:])
    return "NaN".join(parts), cuts


def _file_mode(path: Path) -> int:
    """The permission bits rewriting ``path`` in place would leave on it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _fsync_dir(directory: Path) -> None:
    """Make a rename inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def in_memory_hosting() -> InMemoryHosting:
    """A fresh HostingService whose state lives entirely in memory."""
    return InMemoryHosting()


def file_to_doc(path: str, data: bytes) -> dict:
    try:
        return {"path": path, "text": data.decode("utf-8")}
    except UnicodeDecodeError:
        return {"path": path, "base64": base64.b64encode(data).decode("ascii")}


def file_from_doc(fdoc: dict) -> tuple[str, bytes]:
    if "text" in fdoc:
        return fdoc["path"], fdoc["text"].encode("utf-8")
    return fdoc["path"], base64.b64decode(fdoc["base64"])


def tree_to_doc(snapshot: Snapshot) -> list[dict]:
    return [file_to_doc(p, d) for p, d in snapshot.items()]


def commit_to_doc(c: Commit, files: list[dict] | int | None = None) -> dict:
    """``files`` stands in for the snapshot's file documents when given,
    such as a placeholder to write a tree's text in place of."""
    return {
        "id": c.commit_id,
        "parents": list(c.parents),
        "author": c.author,
        "timestamp": c.timestamp,
        "message": c.message,
        "files": tree_to_doc(c.snapshot) if files is None else files,
    }


def commit_from_doc(cdoc: dict, trees: dict[str, Snapshot]) -> Commit:
    """Rebuild a commit without verifying it.

    ``trees`` maps the canonical text of each file list built so far to its
    snapshot; a list with the same text reuses it. That text is the cut
    slice for a list :func:`_cut_lists` cut out, and is encoded here for any
    other list.
    """
    files = cdoc["files"]
    text, docs = files if isinstance(files, _CutList) else (_canonical(files), files)
    snapshot = trees.get(text)
    if snapshot is None:
        snapshot = trees[text] = Snapshot(dict(file_from_doc(f) for f in docs))
    return Commit(cdoc["id"], tuple(cdoc["parents"]), snapshot,
                  cdoc["message"], cdoc["author"], int(cdoc["timestamp"]))


def repo_to_doc(repo: Repo, files: int | None = None) -> dict:
    """A repository document; it lists commits parents first, branch heads
    taken in sorted order. ``files`` is passed on to :func:`commit_to_doc`."""
    heads = sorted(set(repo.branches.values()))
    return {
        "name": repo.name,
        "owner": repo.owner,
        "visibility": repo.visibility,
        "default_branch": repo.default_branch,
        "collaborators": sorted(repo.collaborators),
        "branches": dict(sorted(repo.branches.items())),
        "commits": [commit_to_doc(c, files) for c in walk(repo, *heads)],
    }


def repos_from_docs(doc: dict, key: str, where: str) -> list[Repo]:
    """Rebuild the repositories ``doc`` holds under ``key``, a list of
    repository documents under "repos" and one under "repo", verifying
    every commit id and parent.

    A commit document equal to one already built reuses its commit, and a
    file list with the same canonical text as one already built reuses its
    snapshot, since each would build an equal one. So each distinct commit
    document is verified once, and each distinct tree is checked and hashed
    once.

    Raises:
        HostingError: ``<where> is corrupt`` for any malformed document,
            where ``where`` names the source (a state file or a request).
    """
    verified: dict[str, tuple[dict, Commit]] = {}
    trees: dict[str, Snapshot] = {}
    repos = []
    try:
        rdocs = doc[key]
        for rdoc in rdocs if key == "repos" else [rdocs]:
            repo = Repo(rdoc["name"], rdoc["owner"], rdoc["visibility"],
                        rdoc["default_branch"])
            for cdoc in rdoc["commits"]:
                if cdoc["id"] in repo.commits:
                    raise RepoModelError(f"commit {cdoc['id'][:12]} is listed twice")
                known = verified.get(cdoc["id"])
                if known is None or known[0] != cdoc:
                    known = (cdoc, commit_from_doc(cdoc, trees))
                    known[1].verify()
                    verified.setdefault(cdoc["id"], known)
                repo._link(known[1])
            for branch, head in rdoc["branches"].items():
                repo.set_branch(branch, head)
            repo.collaborators = set(rdoc["collaborators"])
            repos.append(repo)
    except KeyError as exc:
        raise HostingError(f"{where} is corrupt: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError, AttributeError,
            RepoModelError) as exc:
        raise HostingError(f"{where} is corrupt: {exc}") from exc
    return repos


# ---------------------------------------------------------------------------
# Working-directory adapters
# ---------------------------------------------------------------------------

def snapshot_to_dir(snapshot: Snapshot, root: str | Path) -> None:
    """Materialize a snapshot under ``root`` (created if needed)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for path, data in snapshot.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)


_IGNORED_DIRS = (".git", "__pycache__")


def snapshot_from_dir(root: str | Path) -> Snapshot:
    """Capture a working directory as a snapshot, skipping ignored dir names."""
    root = Path(root)
    if not root.is_dir():
        raise RepoModelError(f"not a directory: {root}")
    entries: dict[str, bytes] = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file() or p.is_symlink():
            continue
        rel = p.relative_to(root)
        if any(part in _IGNORED_DIRS for part in rel.parts):
            continue
        entries[rel.as_posix()] = p.read_bytes()
    return Snapshot(entries)
