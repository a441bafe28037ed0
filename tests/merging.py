"""Three-way merging of commit histories, to simulate a student's ``git merge``.

No pipeline merges: students merge template updates with their own git, and
the tool only checks ancestry. Tests still need merged histories (a student
who took the update, a criss-cross history), so the merge lives here. The
line merge follows diff3 (Khanna, Kunal & Pierce, "A Formal Investigation of
Diff3", FSTTCS 2007), conservatively: unsynchronized regions changed on both
sides conflict.
"""

from __future__ import annotations

import time
from difflib import SequenceMatcher
from typing import Iterable

from courseforge.repomodel import (
    EMPTY_SNAPSHOT,
    Commit,
    Repo,
    RepoModelError,
    Snapshot,
    is_ancestor,
    walk,
)


class MergeConflict(RepoModelError):
    """Raised when a three-way merge cannot be resolved automatically."""

    def __init__(self, paths: Iterable[str], detail: str = ""):
        self.paths = tuple(sorted(set(paths)))
        msg = "merge conflict in: " + ", ".join(self.paths)
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _ancestor_closure(repo: Repo, head: str) -> set[str]:
    return {c.commit_id for c in walk(repo, head)}


def lowest_common_ancestors(repo: Repo, a: str, b: str) -> set[str]:
    """Common ancestors of ``a`` and ``b`` that no other common ancestor reaches.

    Both arguments count as their own ancestors, so for linear history this
    is simply the older of the two commits. Criss-cross histories can yield
    more than one candidate.
    """
    common = _ancestor_closure(repo, a) & _ancestor_closure(repo, b)
    if not common:
        return set()
    shed: set[str] = set()
    for cid in common:
        if cid in shed:
            continue
        for p in repo.get_commit(cid).parents:
            if p in common and p not in shed:
                shed |= _ancestor_closure(repo, p) & common
    return common - shed


def _match_map(a: list[str], b: list[str]) -> dict[int, int]:
    mapping: dict[int, int] = {}
    for i, j, size in SequenceMatcher(None, a, b, autojunk=False).get_matching_blocks():
        for k in range(size):
            mapping[i + k] = j + k
    return mapping


def merge_lines(base: list[str], ours: list[str],
                theirs: list[str]) -> list[str] | None:
    """Line-level three-way merge; None when any region conflicts."""
    mo = _match_map(base, ours)
    mt = _match_map(base, theirs)
    out: list[str] = []
    bi = oi = ti = 0

    def resolve(b_hi: int, o_hi: int, t_hi: int) -> bool:
        b_chunk = base[bi:b_hi]
        o_chunk = ours[oi:o_hi]
        t_chunk = theirs[ti:t_hi]
        if o_chunk == t_chunk:
            out.extend(o_chunk)
        elif o_chunk == b_chunk:
            out.extend(t_chunk)
        elif t_chunk == b_chunk:
            out.extend(o_chunk)
        else:
            return False
        return True

    for i in range(len(base)):
        if i in mo and i in mt:
            if not resolve(i, mo[i], mt[i]):
                return None
            out.append(base[i])
            bi, oi, ti = i + 1, mo[i] + 1, mt[i] + 1
    if not resolve(len(base), len(ours), len(theirs)):
        return None
    return out


def _merge_file(base: bytes, ours: bytes, theirs: bytes) -> bytes | None:
    try:
        b = base.decode("utf-8")
        o = ours.decode("utf-8")
        t = theirs.decode("utf-8")
    except UnicodeDecodeError:
        return None  # binary: no line-level merging
    merged = merge_lines(b.splitlines(keepends=True), o.splitlines(keepends=True),
                         t.splitlines(keepends=True))
    if merged is None:
        return None
    return "".join(merged).encode("utf-8")


def merge_snapshots(base: Snapshot, ours: Snapshot, theirs: Snapshot) -> Snapshot:
    """Three-way tree merge. Raises MergeConflict naming the losing paths."""
    out: dict[str, bytes] = {}
    conflicts: list[str] = []
    for path in sorted(set(base) | set(ours) | set(theirs)):
        b, o, t = base.get(path), ours.get(path), theirs.get(path)
        if o == t:
            winner = o
        elif o == b:
            winner = t
        elif t == b:
            winner = o
        elif o is None or t is None:
            # deleted on one side, modified on the other
            conflicts.append(path)
            continue
        else:
            merged = _merge_file(b if b is not None else b"", o, t)
            if merged is None:
                conflicts.append(path)
                continue
            winner = merged
        if winner is not None:
            out[path] = winner
    if conflicts:
        raise MergeConflict(conflicts)
    return Snapshot(out)


def merge(repo: Repo, branch: str, other_head: str, author: str,
          timestamp: int | None = None) -> Commit:
    """Merge ``other_head`` into ``branch`` and return the resulting head commit.

    When ``other_head`` is already contained in the branch this is a no-op
    returning the current head. Otherwise a two-parent commit is created
    whose snapshot is the three-way merge against the lowest common ancestor;
    with several equally low ancestors each is tried and all results must
    agree. Disjoint histories merge against an empty base.

    Raises:
        MergeConflict: when any file cannot be merged, or candidate merge
            bases disagree about the result.
        RepoModelError: for unknown branches or commits.
    """
    ours = repo.branches.get(branch)
    if ours is None:
        raise RepoModelError(f"unknown branch {branch!r}")
    repo.get_commit(other_head)
    if is_ancestor(repo, other_head, ours):
        return repo.get_commit(ours)

    bases = lowest_common_ancestors(repo, ours, other_head)
    base_snaps = ([repo.get_commit(b).snapshot for b in sorted(bases)]
                  if bases else [EMPTY_SNAPSHOT])
    ours_snap = repo.get_commit(ours).snapshot
    theirs_snap = repo.get_commit(other_head).snapshot
    results = [merge_snapshots(bs, ours_snap, theirs_snap) for bs in base_snaps]
    if any(r != results[0] for r in results[1:]):
        raise MergeConflict(
            sorted(set(ours_snap) | set(theirs_snap)),
            "merge bases disagree")

    if timestamp is None:
        timestamp = int(time.time())
    c = Commit.create((ours, other_head), results[0],
                      f"Merge {other_head[:12]} into {branch}", author, timestamp)
    repo.add_commit(c)
    repo.set_branch(branch, c.commit_id)
    return c
