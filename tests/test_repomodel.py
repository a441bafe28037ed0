"""Snapshots, content-addressed commits, history queries, hosting backends,
persistence, and the test-support merge that simulates a student's git merge."""

from __future__ import annotations

import base64
import errno
import hashlib
import importlib.util
import io
import json
import logging
import os
import random
import stat
import sys
import threading
from pathlib import Path

import pytest

from courseforge.repomodel import (
    EMPTY_SNAPSHOT,
    Commit,
    HostingError,
    InMemoryHosting,
    Repo,
    RepoModelError,
    Snapshot,
    _canonical,
    _cut_lists,
    commit,
    compute_commit_id,
    in_memory_hosting,
    is_ancestor,
    repo_to_doc,
    snapshot_from_dir,
    snapshot_to_dir,
    validate_repo_path,
    walk,
)

from merging import (
    MergeConflict,
    lowest_common_ancestors,
    merge,
    merge_lines,
    merge_snapshots,
)
from oracles import bfs_is_ancestor, build_random_dag
from util import push_root


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------

def test_snapshot_rejects_bad_paths():
    for path in ("", "/abs", "a//b", "a/", "./x", "a/../b", "a\\b", "..", "."):
        with pytest.raises(RepoModelError):
            Snapshot({path: b"x"})


def test_validate_repo_path_accepts_normal_paths():
    for path in ("a", "a/b", "deep/er/file.txt", "with space/ok.py", ".hidden"):
        validate_repo_path(path)


def test_snapshot_rejects_file_directory_clash():
    with pytest.raises(RepoModelError, match="both a file and a directory"):
        Snapshot({"a/b": b"1", "a": b"2"})


def test_snapshot_rejects_non_bytes_content():
    with pytest.raises(RepoModelError, match="bytes"):
        Snapshot({"a.txt": "text"})  # type: ignore[dict-item]


def test_snapshot_lookup_and_containment():
    snap = Snapshot({"b.txt": b"2", "a.txt": b"1"})
    assert snap.paths() == ("a.txt", "b.txt")
    assert snap["a.txt"] == b"1"
    assert snap.get("missing") is None
    assert "b.txt" in snap and "c.txt" not in snap
    assert len(snap) == 2
    with pytest.raises(RepoModelError, match="no such file"):
        snap["c.txt"]


def test_snapshot_with_files_and_without_create_new_values():
    base = Snapshot({"a.txt": b"1"})
    grown = base.with_files({"b.txt": b"2"})
    shrunk = grown.without(["a.txt"])
    assert base.paths() == ("a.txt",)
    assert grown.paths() == ("a.txt", "b.txt")
    assert shrunk.paths() == ("b.txt",)


def test_snapshot_equality_ignores_insertion_order():
    assert Snapshot({"a": b"1", "b": b"2"}) == Snapshot({"b": b"2", "a": b"1"})
    assert Snapshot({"a": b"1"}) != Snapshot({"a": b"2"})


def test_tree_digest_depends_on_content_not_order():
    one = Snapshot({"a": b"1", "b": b"2"})
    two = Snapshot({"b": b"2", "a": b"1"})
    assert one.tree_digest() == two.tree_digest()
    assert one.tree_digest() != Snapshot({"a": b"1"}).tree_digest()


# ---------------------------------------------------------------------------
# Commit identity
# ---------------------------------------------------------------------------

FIXTURE_FILES = {"a.txt": b"alpha\n", "src/m.py": b"x = 1\n"}

# Frozen values, computed once with the reference hasher below.
FROZEN_TREE = "e476109bca906da1b7d0b25ba97afe2f8699e4632a788360f08dc66cfd2c4426"
FROZEN_ROOT = "d3dc57835da63d4f381c56cd1043b51e87b01ae74c9a595a4e018851f36a7488"
FROZEN_CHILD = "3f38887e815dbbc229b73c7369b390a6920d6a6a74b31e5c68085fe3a3cf1962"


def _ref_netstr(tag: str, payload: bytes) -> bytes:
    return tag.encode() + b" " + str(len(payload)).encode() + b":" + payload


def _ref_tree(files: dict[str, bytes]) -> bytes:
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(_ref_netstr("entry", path.encode() + b"\0" + files[path]))
    return h.digest()


def _ref_commit_id(parents, files, message, author, ts) -> str:
    h = hashlib.sha256()
    h.update(_ref_netstr("tree", _ref_tree(files)))
    for p in parents:
        h.update(_ref_netstr("parent", p.encode()))
    h.update(_ref_netstr("author", author.encode()))
    h.update(_ref_netstr("time", str(ts).encode()))
    h.update(_ref_netstr("message", message.encode()))
    return h.hexdigest()


def test_commit_id_matches_frozen_fixture():
    snap = Snapshot(FIXTURE_FILES)
    assert snap.tree_digest().hex() == FROZEN_TREE
    root = compute_commit_id((), snap, "Initial import", "bot", 1700000000)
    assert root == FROZEN_ROOT
    child_snap = snap.with_files({"a.txt": b"alpha\nbeta\n"})
    child = compute_commit_id((root,), child_snap, "Append beta", "alice",
                              1700000060)
    assert child == FROZEN_CHILD


def test_commit_id_matches_reference_hasher_on_random_inputs():
    rng = random.Random(4242)
    for _ in range(50):
        files = {f"f{i}.txt": bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
                 for i in range(rng.randrange(5))}
        parents = tuple(hashlib.sha256(bytes([k])).hexdigest()
                        for k in range(rng.randrange(3)))
        message = "".join(rng.choice("abc \n") for _ in range(rng.randrange(12)))
        author = rng.choice(["bot", "alice", "béa"])
        ts = rng.randrange(1, 2**31)
        assert compute_commit_id(parents, Snapshot(files), message, author, ts) \
            == _ref_commit_id(parents, files, message, author, ts)


def test_snapshot_checks_agree_with_reference_on_nested_paths():
    # The reference joins every directory prefix of every path.
    rng = random.Random(977)
    for _ in range(300):
        files = {"/".join(rng.choice("abc") for _ in range(rng.randrange(1, 4))):
                 bytes(rng.randrange(256) for _ in range(rng.randrange(6)))
                 for _ in range(rng.randrange(1, 7))}
        dirs = {"/".join(p.split("/")[:i]) for p in files
                for i in range(1, p.count("/") + 1)}
        clash = sorted(dirs & set(files))
        if clash:
            with pytest.raises(RepoModelError, match=repr(clash[0])):
                Snapshot(files)
        else:
            assert Snapshot(files).tree_digest() == _ref_tree(files)


def test_a_path_holding_a_nul_is_rejected():
    # the tree digest hashes path + NUL + content, so this path would give
    # another tree's digest and every commit on it that tree's id
    assert _ref_tree({"a\0b": b"c"}) == _ref_tree({"a": b"b\0c"})
    assert Snapshot({"a": b"b\0c"}).tree_digest() == _ref_tree({"a": b"b\0c"})
    with pytest.raises(RepoModelError, match="invalid repo path"):
        Snapshot({"a\0b": b"c"})


def test_commit_id_changes_with_every_field():
    snap = Snapshot(FIXTURE_FILES)
    base = compute_commit_id((), snap, "m", "a", 1)
    assert compute_commit_id((), snap.with_files({"z": b""}), "m", "a", 1) != base
    assert compute_commit_id((FROZEN_ROOT,), snap, "m", "a", 1) != base
    assert compute_commit_id((), snap, "m2", "a", 1) != base
    assert compute_commit_id((), snap, "m", "a2", 1) != base
    assert compute_commit_id((), snap, "m", "a", 2) != base


def test_identical_commits_in_two_repos_share_ids():
    snap = Snapshot(FIXTURE_FILES)
    repos = (Repo("one", "bot"), Repo("two", "someone-else"))
    ids = []
    for repo in repos:
        c1 = commit(repo, "main", snap, "Initial import", "bot", 1700000000)
        c2 = commit(repo, "main", snap.with_files({"n.txt": b"new\n"}),
                    "Add n", "alice", 1700000500)
        ids.append((c1.commit_id, c2.commit_id))
    assert ids[0] == ids[1]
    assert ids[0][0] == FROZEN_ROOT


def test_commit_verify_detects_mismatched_id():
    snap = Snapshot(FIXTURE_FILES)
    good = Commit.create((), snap, "m", "a", 1)
    good.verify()
    bad = Commit("0" * 64, (), snap, "m", "a", 1)
    with pytest.raises(RepoModelError, match="commit id mismatch"):
        bad.verify()


# ---------------------------------------------------------------------------
# Repositories and history queries
# ---------------------------------------------------------------------------

def test_repo_rejects_unknown_visibility():
    with pytest.raises(RepoModelError, match="visibility"):
        Repo("r", "o", visibility="secret")


def test_first_commit_has_no_parents_then_linear_chain():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", Snapshot({"a": b"1"}), "one", "bot", 1)
    c2 = commit(repo, "main", Snapshot({"a": b"2"}), "two", "bot", 2)
    assert c1.parents == ()
    assert c2.parents == (c1.commit_id,)
    assert repo.head() == c2.commit_id
    assert repo.head_commit().message == "two"


def test_empty_repo_head_accessors():
    repo = Repo("r", "o")
    assert repo.head() is None
    with pytest.raises(RepoModelError, match="has no commits on"):
        repo.head_commit()
    with pytest.raises(RepoModelError, match="unknown commit"):
        repo.get_commit("f" * 64)


def test_add_commit_requires_known_parents_and_is_idempotent():
    repo = Repo("r", "o")
    c1 = Commit.create((), EMPTY_SNAPSHOT, "root", "bot", 1)
    orphan = Commit.create(("a" * 64,), EMPTY_SNAPSHOT, "orphan", "bot", 2)
    repo.add_commit(c1)
    repo.add_commit(c1)  # no error, no duplication
    assert len(repo.commits) == 1
    with pytest.raises(RepoModelError, match="unknown parent"):
        repo.add_commit(orphan)


def test_set_branch_requires_known_commit():
    repo = Repo("r", "o")
    with pytest.raises(RepoModelError, match="unknown commit"):
        repo.set_branch("main", "b" * 64)


def test_walk_yields_each_commit_once_on_diamond():
    repo = Repo("r", "o")
    root = commit(repo, "main", Snapshot({"f": b"0"}), "root", "bot", 1)
    left = commit(repo, "main", Snapshot({"f": b"L"}), "left", "bot", 2)
    repo.set_branch("side", root.commit_id)
    right = commit(repo, "side", Snapshot({"f": b"R"}), "right", "bot", 3)
    tip = Commit.create((left.commit_id, right.commit_id), Snapshot({"f": b"M"}),
                        "tip", "bot", 4)
    repo.add_commit(tip)
    seen = [c.commit_id for c in walk(repo, tip.commit_id)]
    assert sorted(seen) == sorted({root.commit_id, left.commit_id,
                                   right.commit_id, tip.commit_id})
    assert len(seen) == len(set(seen))


def _assert_walk_order(repo: Repo, heads: list[str]) -> list[str]:
    """Check ``walk(repo, *heads)`` against the BFS oracle: each commit the
    heads reach comes once, after its parents, and each head adds only
    what the earlier ones missed."""
    def reached(k: int) -> set[str]:
        return {cid for cid in repo.commits
                if any(bfs_is_ancestor(repo, cid, h) for h in heads[:k])}

    order = [c.commit_id for c in walk(repo, *heads)]
    assert len(order) == len(set(order))
    position = {cid: i for i, cid in enumerate(order)}
    for cid in order:
        for p in repo.get_commit(cid).parents:
            assert position[p] < position[cid]
    for k in range(1, len(heads) + 1):
        assert set(order[:len(reached(k))]) == reached(k)
    assert set(order) == reached(len(heads))
    return order


def test_topo_order_lists_parents_before_children():
    rng = random.Random(77)
    for _ in range(20):
        repo, ids = build_random_dag(rng, 40)
        _assert_walk_order(repo, [repo.head()])


def test_topo_order_of_several_heads_adds_what_earlier_heads_missed():
    rng = random.Random(78)
    for _ in range(20):
        repo, ids = build_random_dag(rng, 40)
        _assert_walk_order(repo, [rng.choice(ids) for _ in range(3)])


def test_walk_of_heads_sharing_a_diamond_and_a_merge():
    repo = Repo("r", "o")
    root = commit(repo, "main", Snapshot({"f": b"0"}), "root", "bot", 1)
    left = commit(repo, "main", Snapshot({"f": b"L"}), "left", "bot", 2)
    repo.set_branch("side", root.commit_id)
    right = commit(repo, "side", Snapshot({"f": b"R"}), "right", "bot", 3)
    diamond = Commit.create((left.commit_id, right.commit_id),
                            Snapshot({"f": b"M"}), "diamond", "bot", 4)
    repo.add_commit(diamond)
    side = commit(repo, "side", Snapshot({"f": b"S"}), "side", "bot", 5)
    merged = Commit.create((side.commit_id, diamond.commit_id),
                           Snapshot({"f": b"N"}), "merge", "bot", 6)
    repo.add_commit(merged)
    for heads in ([diamond, side, merged], [merged, diamond],
                  [side, diamond], [right, merged, root, left]):
        order = _assert_walk_order(repo, [c.commit_id for c in heads])
        assert order[0] == root.commit_id
    assert len(_assert_walk_order(repo, [merged.commit_id])) == 6


def test_is_ancestor_is_reflexive_and_follows_chains():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", EMPTY_SNAPSHOT, "1", "bot", 1)
    c2 = commit(repo, "main", EMPTY_SNAPSHOT, "2", "bot", 2)
    c3 = commit(repo, "main", EMPTY_SNAPSHOT, "3", "bot", 3)
    assert is_ancestor(repo, c1.commit_id, c1.commit_id)
    assert is_ancestor(repo, c1.commit_id, c3.commit_id)
    assert not is_ancestor(repo, c3.commit_id, c1.commit_id)
    assert is_ancestor(repo, c2.commit_id, c3.commit_id)


def test_is_ancestor_requires_known_commits():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", EMPTY_SNAPSHOT, "1", "bot", 1)
    with pytest.raises(RepoModelError, match="unknown commit"):
        is_ancestor(repo, "c" * 64, c1.commit_id)


def test_is_ancestor_agrees_with_breadth_first_search():
    rng = random.Random(90125)
    for _ in range(100):
        repo, ids = build_random_dag(rng, 30)
        for _ in range(40):
            a, d = rng.choice(ids), rng.choice(ids)
            assert is_ancestor(repo, a, d) == bfs_is_ancestor(repo, a, d)


# ---------------------------------------------------------------------------
# Merging (test support in merging.py: merge bases, line and tree merges)
# ---------------------------------------------------------------------------

def test_lowest_common_ancestor_on_chain_is_older_commit():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", EMPTY_SNAPSHOT, "1", "bot", 1)
    c2 = commit(repo, "main", EMPTY_SNAPSHOT, "2", "bot", 2)
    assert lowest_common_ancestors(repo, c1.commit_id, c2.commit_id) \
        == {c1.commit_id}
    assert lowest_common_ancestors(repo, c2.commit_id, c2.commit_id) \
        == {c2.commit_id}


def test_lowest_common_ancestor_on_diamond_is_fork_point():
    repo = Repo("r", "o")
    root = commit(repo, "main", EMPTY_SNAPSHOT, "root", "bot", 1)
    fork = commit(repo, "main", EMPTY_SNAPSHOT, "fork", "bot", 2)
    left = commit(repo, "main", EMPTY_SNAPSHOT, "left", "bot", 3)
    repo.set_branch("side", fork.commit_id)
    right = commit(repo, "side", EMPTY_SNAPSHOT, "right", "bot", 4)
    assert lowest_common_ancestors(repo, left.commit_id, right.commit_id) \
        == {fork.commit_id}


def _criss_cross(resolutions: tuple[bytes, bytes]) -> tuple[Repo, str, str]:
    """Two branches that each merged the other once, with given file contents."""
    repo = Repo("r", "o")
    root = commit(repo, "main", Snapshot({"f": b"0\n"}), "root", "bot", 1)
    a1 = commit(repo, "main", Snapshot({"f": b"a\n"}), "a1", "bot", 2)
    repo.set_branch("side", root.commit_id)
    b1 = commit(repo, "side", Snapshot({"f": b"b\n"}), "b1", "bot", 3)
    a2 = Commit.create((a1.commit_id, b1.commit_id),
                       Snapshot({"f": resolutions[0]}), "a2", "bot", 4)
    b2 = Commit.create((b1.commit_id, a1.commit_id),
                       Snapshot({"f": resolutions[1]}), "b2", "bot", 5)
    repo.add_commit(a2)
    repo.add_commit(b2)
    repo.set_branch("main", a2.commit_id)
    repo.set_branch("side", b2.commit_id)
    return repo, a2.commit_id, b2.commit_id


def test_criss_cross_history_has_two_lowest_common_ancestors():
    repo, a2, b2 = _criss_cross((b"a\n", b"b\n"))
    bases = lowest_common_ancestors(repo, a2, b2)
    assert {repo.get_commit(c).message for c in bases} == {"a1", "b1"}


def test_unrelated_roots_have_no_common_ancestor():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", Snapshot({"a": b"1"}), "1", "bot", 1)
    other = Commit.create((), Snapshot({"b": b"2"}), "island", "bot", 2)
    repo.add_commit(other)
    assert lowest_common_ancestors(repo, c1.commit_id, other.commit_id) == set()


def test_merge_lines_combines_changes_in_distinct_regions():
    base = ["a\n", "b\n", "c\n"]
    ours = ["A\n", "b\n", "c\n"]
    theirs = ["a\n", "b\n", "C\n"]
    assert merge_lines(base, ours, theirs) == ["A\n", "b\n", "C\n"]


def test_merge_lines_takes_single_sided_change():
    base = ["a\n", "b\n"]
    ours = ["a\n", "b\n"]
    theirs = ["a\n", "b2\n", "b3\n"]
    assert merge_lines(base, ours, theirs) == ["a\n", "b2\n", "b3\n"]
    assert merge_lines(base, theirs, ours) == ["a\n", "b2\n", "b3\n"]


def test_merge_lines_accepts_identical_changes():
    base = ["a\n"]
    both = ["z\n"]
    assert merge_lines(base, both, list(both)) == ["z\n"]


def test_merge_lines_keeps_deletion_away_from_other_side_edit():
    base = ["a\n", "b\n", "c\n", "d\n", "e\n"]
    ours = ["a\n", "c\n", "d\n", "e\n"]          # deletes b
    theirs = ["a\n", "b\n", "c\n", "d\n", "E\n"]  # edits e
    assert merge_lines(base, ours, theirs) == ["a\n", "c\n", "d\n", "E\n"]
    # when the deletion swallows the other side's anchor line the two edits
    # share one unsynchronized region, which conservatively conflicts
    assert merge_lines(["a\n", "b\n", "c\n"], ["a\n", "c\n"],
                       ["a\n", "b\n", "c!\n"]) is None


def test_merge_lines_reports_conflicting_same_region_edits():
    base = ["a\n", "b\n", "c\n"]
    ours = ["a\n", "B1\n", "c\n"]
    theirs = ["a\n", "B2\n", "c\n"]
    assert merge_lines(base, ours, theirs) is None


def test_merge_snapshots_union_of_disjoint_edits():
    base = Snapshot({"keep.txt": b"k\n", "edit.txt": b"1\n2\n3\n"})
    ours = base.with_files({"edit.txt": b"one\n2\n3\n", "mine.txt": b"m\n"})
    theirs = base.with_files({"edit.txt": b"1\n2\nthree\n"}).without(["keep.txt"])
    merged = merge_snapshots(base, ours, theirs)
    assert merged == Snapshot({"edit.txt": b"one\n2\nthree\n", "mine.txt": b"m\n"})


def test_merge_snapshots_is_symmetric_for_mergeable_inputs():
    rng = random.Random(55)
    for _ in range(30):
        lines = [f"line {i}\n".encode() for i in range(12)]
        base = Snapshot({"f.txt": b"".join(lines)})
        i, j = rng.sample(range(12), 2)
        ours = Snapshot({"f.txt": b"".join(
            b"ours\n" if k == i else l for k, l in enumerate(lines))})
        theirs = Snapshot({"f.txt": b"".join(
            b"theirs\n" if k == j else l for k, l in enumerate(lines))})
        if abs(i - j) < 2:
            continue  # adjacent edits may legitimately conflict
        one = merge_snapshots(base, ours, theirs)
        two = merge_snapshots(base, theirs, ours)
        assert one == two


def test_merge_snapshots_conflict_lists_sorted_paths():
    base = Snapshot({"x.txt": b"0\n", "a.txt": b"0\n"})
    ours = Snapshot({"x.txt": b"1\n", "a.txt": b"1\n"})
    theirs = Snapshot({"x.txt": b"2\n", "a.txt": b"2\n"})
    with pytest.raises(MergeConflict) as err:
        merge_snapshots(base, ours, theirs)
    assert err.value.paths == ("a.txt", "x.txt")
    assert "merge conflict in: a.txt, x.txt" in str(err.value)


def test_merge_snapshots_delete_versus_modify_conflicts():
    base = Snapshot({"f.txt": b"0\n"})
    ours = EMPTY_SNAPSHOT
    theirs = Snapshot({"f.txt": b"1\n"})
    with pytest.raises(MergeConflict):
        merge_snapshots(base, ours, theirs)
    # deleting on both sides is fine
    assert merge_snapshots(base, EMPTY_SNAPSHOT, EMPTY_SNAPSHOT) == EMPTY_SNAPSHOT


def test_merge_snapshots_binary_divergence_conflicts():
    base = Snapshot({"img": bytes([0, 159, 146, 150])})
    ours = Snapshot({"img": bytes([1, 159, 146, 150])})
    theirs = Snapshot({"img": bytes([2, 159, 146, 150])})
    with pytest.raises(MergeConflict):
        merge_snapshots(base, ours, theirs)
    # identical binary change on both sides is accepted
    assert merge_snapshots(base, ours, Snapshot({"img": ours["img"]})) == ours


def test_merge_is_noop_when_other_head_already_contained():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", Snapshot({"a": b"1"}), "1", "bot", 1)
    c2 = commit(repo, "main", Snapshot({"a": b"2"}), "2", "bot", 2)
    result = merge(repo, "main", c1.commit_id, "bot", 3)
    assert result.commit_id == c2.commit_id
    assert repo.head() == c2.commit_id
    assert len(repo.commits) == 2


def test_merge_creates_two_parent_commit_even_when_fast_forward_possible():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", Snapshot({"a": b"1"}), "1", "bot", 1)
    repo.set_branch("feature", c1.commit_id)
    c2 = commit(repo, "feature", Snapshot({"a": b"1", "b": b"2"}), "2", "bot", 2)
    merged = merge(repo, "main", c2.commit_id, "bot", 3)
    assert merged.parents == (c1.commit_id, c2.commit_id)
    assert merged.snapshot == c2.snapshot
    assert merged.message == f"Merge {c2.commit_id[:12]} into main"
    assert repo.head() == merged.commit_id


def test_merge_combines_divergent_branches():
    repo = Repo("r", "o")
    root = commit(repo, "main", Snapshot({"f": b"1\n2\n3\n"}), "root", "bot", 1)
    ours = commit(repo, "main", Snapshot({"f": b"one\n2\n3\n"}), "ours", "bot", 2)
    repo.set_branch("side", root.commit_id)
    theirs = commit(repo, "side", Snapshot({"f": b"1\n2\nthree\n"}), "theirs",
                    "bot", 3)
    merged = merge(repo, "main", theirs.commit_id, "alice", 4)
    assert merged.snapshot == Snapshot({"f": b"one\n2\nthree\n"})
    assert merged.parents == (ours.commit_id, theirs.commit_id)
    assert merged.author == "alice"


def test_merge_of_disjoint_histories_unions_files():
    repo = Repo("r", "o")
    mine = commit(repo, "main", Snapshot({"a.txt": b"A\n"}), "mine", "bot", 1)
    island = Commit.create((), Snapshot({"b.txt": b"B\n"}), "island", "bot", 2)
    repo.add_commit(island)
    merged = merge(repo, "main", island.commit_id, "bot", 3)
    assert merged.snapshot == Snapshot({"a.txt": b"A\n", "b.txt": b"B\n"})
    assert merged.parents == (mine.commit_id, island.commit_id)


def test_merge_raises_when_candidate_bases_disagree():
    repo, a2, b2 = _criss_cross((b"a\n", b"b\n"))
    with pytest.raises(MergeConflict, match="merge bases disagree"):
        merge(repo, "side", a2, "bot", 6)


def test_merge_succeeds_when_candidate_bases_agree():
    repo, a2, b2 = _criss_cross((b"m\n", b"m\n"))
    merged = merge(repo, "side", a2, "bot", 6)
    assert merged.snapshot == Snapshot({"f": b"m\n"})
    assert merged.parents == (b2, a2)


def test_merge_validates_branch_and_commit():
    repo = Repo("r", "o")
    c1 = commit(repo, "main", EMPTY_SNAPSHOT, "1", "bot", 1)
    with pytest.raises(RepoModelError, match="unknown branch"):
        merge(repo, "nope", c1.commit_id, "bot")
    with pytest.raises(RepoModelError, match="unknown commit"):
        merge(repo, "main", "d" * 64, "bot")


# ---------------------------------------------------------------------------
# In-memory hosting backend
# ---------------------------------------------------------------------------

def test_create_repo_is_idempotent_and_keeps_first_visibility():
    hosting = in_memory_hosting()
    first = hosting.create_repo("r", "bot", visibility="private")
    again = hosting.create_repo("r", "bot", visibility="public")
    assert first.visibility == "private"
    assert again.visibility == "private"
    assert len(hosting.list_repos()) == 1


def test_push_accepts_one_root_commit():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    head = push_root(hosting, "r", "bot", Snapshot({"a": b"1"}),
                     "Initial import", "bot", 1700000000)
    repo = hosting.fetch("r", "bot")
    assert repo.head() == head
    assert repo.head_commit().snapshot == Snapshot({"a": b"1"})
    with pytest.raises(HostingError, match="push rejected: .* already has"):
        push_root(hosting, "r", "bot", EMPTY_SNAPSHOT, "again", "bot", 1)
    # a root the repository holds moves the branch back to it
    child = Commit.create((head,), EMPTY_SNAPSHOT, "work", "bot", 2)
    hosting.push("r", "bot", "main", child)
    hosting.push("r", "bot", "main", repo.get_commit(head))
    assert hosting.fetch("r", "bot").head() == head


def test_operations_on_missing_repo_raise():
    hosting = in_memory_hosting()
    with pytest.raises(HostingError, match="no such repository"):
        hosting.fetch("ghost", "bot")
    with pytest.raises(HostingError, match="no such repository"):
        hosting.push("ghost", "bot", "main",
                     Commit.create((), EMPTY_SNAPSHOT, "m", "a", 1))
    assert hosting.list_repos() == []


def test_push_rejects_commit_with_unknown_parent():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    push_root(hosting, "r", "bot", EMPTY_SNAPSHOT, "init", "bot", 1)
    stranger = Commit.create(("9" * 64,), EMPTY_SNAPSHOT, "orphan", "bot", 2)
    with pytest.raises(HostingError, match="push rejected"):
        hosting.push("r", "bot", "main", stranger)


def test_push_advances_branch_and_accepts_chains():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    root = push_root(hosting, "r", "bot", EMPTY_SNAPSHOT, "init", "bot", 1)
    c2 = Commit.create((root,), Snapshot({"a": b"1"}), "work", "alice", 2)
    hosting.push("r", "bot", "main", c2)
    assert hosting.fetch("r", "bot").head() == c2.commit_id
    # moving a branch back to an already-present commit also works
    hosting.push("r", "bot", "main", hosting.fetch("r", "bot").get_commit(root))
    assert hosting.fetch("r", "bot").head() == root


def test_fetch_returns_detached_copy():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    head = push_root(hosting, "r", "bot", EMPTY_SNAPSHOT, "init", "bot", 1)
    clone = hosting.fetch("r", "bot")
    commit(clone, "main", Snapshot({"local": b"only"}), "local", "me", 2)
    clone.collaborators.add("me")
    fresh = hosting.fetch("r", "bot")
    assert fresh.head() == head
    assert len(fresh.commits) == 1
    assert fresh.collaborators == set()


def test_list_repos_filters_by_owner_and_detaches():
    hosting = in_memory_hosting()
    hosting.create_repo("a", "bot")
    hosting.create_repo("b", "bot")
    hosting.create_repo("c", "other")
    assert [r.name for r in hosting.list_repos("bot")] == ["a", "b"]
    assert [f"{r.owner}/{r.name}" for r in hosting.list_repos()] \
        == ["bot/a", "bot/b", "other/c"]
    hosting.list_repos("bot")[0].collaborators.add("x")
    assert hosting.fetch("a", "bot").collaborators == set()


def test_invite_collaborator_accumulates():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    hosting.invite_collaborator("r", "bot", "alice")
    hosting.invite_collaborator("r", "bot", "alice")
    hosting.invite_collaborator("r", "bot", "bob")
    assert hosting.fetch("r", "bot").collaborators == {"alice", "bob"}


def test_concurrent_create_repo_yields_single_repository():
    hosting = in_memory_hosting()
    errors: list[Exception] = []

    def worker(i: int) -> None:
        try:
            hosting.create_repo("shared", "bot",
                                visibility="private" if i % 2 else "public")
            hosting.create_repo(f"own-{i}", "bot")
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    names = [r.name for r in hosting.list_repos("bot")]
    assert names.count("shared") == 1
    assert len(names) == 33
    visibilities = {hosting.create_repo("shared", "bot", v).visibility
                    for v in ("private", "public")}
    assert len(visibilities) == 1  # whatever won, re-creation never changes it


# ---------------------------------------------------------------------------
# State persistence
# ---------------------------------------------------------------------------

def _populated_hosting() -> InMemoryHosting:
    hosting = in_memory_hosting()
    hosting.create_repo("cs101-template", "bot", visibility="public")
    root = push_root(
        hosting, "cs101-template", "bot",
        Snapshot({"src/m.py": b"x = 1\n", "logo.bin": bytes(range(256))}),
        "Initial import", "bot", 1700000000)
    c2 = Commit.create((root,), Snapshot({"src/m.py": b"x = 2\n"}),
                       "Tune", "bot", 1700000100)
    hosting.push("cs101-template", "bot", "main", c2)
    hosting.create_repo("cs101-alice", "bot")
    push_root(hosting, "cs101-alice", "bot", Snapshot({"a": b"A\n"}),
              "Enroll alice", "bot", 1700000200)
    hosting.invite_collaborator("cs101-alice", "bot", "alice")
    return hosting


def test_state_round_trip_preserves_everything(tmp_path):
    hosting = _populated_hosting()
    state = tmp_path / "state.json"
    hosting.save_state(state)
    loaded = InMemoryHosting.load_state(state)
    for repo in hosting.list_repos():
        twin = loaded.fetch(repo.name, repo.owner)
        assert twin.visibility == repo.visibility
        assert twin.branches == repo.branches
        assert twin.collaborators == repo.collaborators
        assert set(twin.commits) == set(repo.commits)
        assert twin.head_commit().snapshot == repo.head_commit().snapshot


def test_state_file_bytes_are_stable_across_round_trips(tmp_path):
    hosting = _populated_hosting()
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    hosting.save_state(first)
    InMemoryHosting.load_state(first).save_state(second)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_state_file_is_versioned_canonical_json(tmp_path):
    hosting = _populated_hosting()
    state = tmp_path / "state.json"
    hosting.save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    assert doc["format"] == "repo-state"
    assert doc["version"] == 1
    names = [r["name"] for r in doc["repos"]]
    assert names == sorted(names)
    binary_commit = doc["repos"][1]["commits"][0]
    encodings = {f["path"]: ("base64" if "base64" in f else "text")
                 for f in binary_commit["files"]}
    assert encodings == {"logo.bin": "base64", "src/m.py": "text"}


def test_tampered_state_file_is_rejected(tmp_path):
    hosting = _populated_hosting()
    state = tmp_path / "state.json"
    hosting.save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    for repo_doc in doc["repos"]:
        for cdoc in repo_doc["commits"]:
            for fdoc in cdoc["files"]:
                if "text" in fdoc:
                    fdoc["text"] = fdoc["text"] + "# tampered\n"
    state.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_a_state_file_with_a_nul_in_a_path_is_corrupt(tmp_path):
    """A commit whose tree moves a NUL from a file's content into its path
    keeps its id, so only the path check refuses it."""
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    push_root(hosting, "r", "bot", Snapshot({"a": b"b\0c"}), "Import", "bot",
              1700000000)
    state = tmp_path / "state.json"
    hosting.save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    assert doc["repos"][0]["commits"][0]["files"] == [
        {"path": "a", "text": "b\0c"}]
    doc["repos"][0]["commits"][0]["files"] = [{"path": "a\0b", "text": "c"}]
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="corrupt: invalid repo path"):
        InMemoryHosting.load_state(state)


def _forked_hosting() -> InMemoryHosting:
    """The template history forked into three student repositories."""
    hosting = _populated_hosting()
    template = hosting.fetch("cs101-template", "bot")
    root = next(walk(template, template.head()))
    for i, user in enumerate(("bob", "carol", "dave")):
        name = f"cs101-{user}"
        hosting.create_repo(name, "bot")
        hosting.push(name, "bot", "main", *walk(template, template.head()))
        repo = hosting.fetch(name, "bot")
        work = commit(repo, "main", repo.head_commit().snapshot.with_files(
            {f"{user}.txt": f"work of {user}\n".encode()}),
            "Work", user, 1700000300 + i)
        hosting.push(name, "bot", "main", work)
        hosting.invite_collaborator(name, "bot", user)
    draft = Commit.create((root.commit_id,), Snapshot({"draft.md": b"d\n"}),
                          "Draft", "dave", 1700000400)
    hosting.push("cs101-dave", "bot", "draft", draft)
    return hosting


def _shared_copies(doc: dict) -> dict[str, list[dict]]:
    """Commit id -> every document of it, in file order, for shared ids."""
    copies: dict[str, list[dict]] = {}
    for rdoc in doc["repos"]:
        for cdoc in rdoc["commits"]:
            copies.setdefault(cdoc["id"], []).append(cdoc)
    return {cid: docs for cid, docs in copies.items() if len(docs) > 1}


def test_forked_state_round_trips_byte_identically(tmp_path):
    first, second, third = (tmp_path / f"{n}.json" for n in "abc")
    _forked_hosting().save_state(first)
    doc = json.loads(first.read_text(encoding="utf-8"))
    assert len(_shared_copies(doc)) == 2  # both template commits, 4 copies each
    InMemoryHosting.load_state(first).save_state(second)
    InMemoryHosting.load_state(second).save_state(third)
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()
    assert first.read_bytes() == (json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        + "\n").encode("utf-8")


def test_loaded_repositories_share_one_commit_per_id(tmp_path):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    loaded = InMemoryHosting.load_state(state)
    repos = loaded.list_repos()
    shared = _shared_copies(json.loads(state.read_text(encoding="utf-8")))
    for cid in shared:
        held = [r.commits[cid] for r in repos if cid in r.commits]
        assert len(held) == 4
        assert all(c is held[0] for c in held)


@pytest.mark.parametrize("field", ["text", "message", "author", "timestamp",
                                   "parents"])
def test_tampered_later_copy_of_shared_commit_is_rejected(tmp_path, field):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    cid, copies = sorted(_shared_copies(doc).items())[0]
    last = copies[-1]
    if field == "text":
        last["files"][0]["text"] += "# tampered\n"
    elif field == "timestamp":
        last["timestamp"] += 1
    elif field == "parents":
        last["parents"] = [] if last["parents"] else [cid]
    else:
        last[field] += " (tampered)"
    state.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_commit_listed_twice_in_one_repository_is_rejected(tmp_path):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    commits = doc["repos"][0]["commits"]
    twin = json.loads(json.dumps(commits[0]))
    twin["message"] += " (tampered)"
    commits.append(twin)
    state.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(HostingError, match="corrupt.*listed twice"):
        InMemoryHosting.load_state(state)


def test_later_copy_in_another_encoding_still_loads(tmp_path):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    _, copies = sorted(_shared_copies(doc).items())[0]
    fdoc = copies[-1]["files"][0]
    fdoc["base64"] = base64.b64encode(fdoc.pop("text").encode()).decode()
    state.write_text(json.dumps(doc), encoding="utf-8")
    loaded = InMemoryHosting.load_state(state)
    loaded.save_state(state)
    assert state.read_bytes() == original


def _shared_tree_hosting() -> InMemoryHosting:
    """The forked course plus two enrollments on the template head's tree,
    so one tree sits under several distinct commits."""
    hosting = _forked_hosting()
    for i, user in enumerate(("erin", "frank")):
        name = f"cs101-{user}"
        hosting.create_repo(name, "bot")
        push_root(hosting, name, "bot", Snapshot({"src/m.py": b"x = 2\n"}),
                  f"Enroll {user}", "bot", 1700000500 + i)
    return hosting


def _tree_copies(doc: dict, files: list[dict]) -> list[dict]:
    """Every commit document whose file list equals ``files``, in file order."""
    return [cdoc for rdoc in doc["repos"] for cdoc in rdoc["commits"]
            if cdoc["files"] == files]


def test_loaded_commits_with_equal_trees_share_one_snapshot(tmp_path):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    loaded = InMemoryHosting.load_state(state)
    snapshots: dict[bytes, set[int]] = {}
    for repo in loaded.list_repos():
        for c in repo.commits.values():
            snapshots.setdefault(c.snapshot.tree_digest(), set()).add(id(c.snapshot))
    assert len(snapshots) == 7
    assert all(len(ids) == 1 for ids in snapshots.values())
    heads = [loaded.fetch(f"cs101-{name}", "bot").head_commit()
             for name in ("template", "erin", "frank")]
    assert len({c.commit_id for c in heads}) == 3
    assert all(c.snapshot is heads[0].snapshot for c in heads)


@pytest.mark.parametrize("copy", ["first", "later"])
def test_one_byte_change_in_a_shared_tree_is_rejected(tmp_path, copy):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    copies = _tree_copies(doc, [{"path": "src/m.py", "text": "x = 2\n"}])
    assert len({c["id"] for c in copies}) == 3
    # the later copy is another commit that holds the same tree
    target = copies[0] if copy == "first" else next(
        c for c in copies if c["id"] != copies[0]["id"])
    target["files"][0]["text"] = "x = 3\n"
    state.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_shared_tree_in_text_and_base64_loads_and_saves_canonically(tmp_path):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    copies = _tree_copies(doc, [{"path": "src/m.py", "text": "x = 2\n"}])
    frank = [c for c in copies if c["message"] == "Enroll frank"]
    frank[0]["files"] = [{"path": "src/m.py",
                          "base64": base64.b64encode(b"x = 2\n").decode()}]
    state.write_text(json.dumps(doc), encoding="utf-8")
    loaded = InMemoryHosting.load_state(state)
    assert loaded.fetch("cs101-frank", "bot").head_commit().snapshot \
        == loaded.fetch("cs101-erin", "bot").head_commit().snapshot
    loaded.save_state(state)
    assert state.read_bytes() == original


def test_file_lists_with_equal_values_keep_their_own_trees(tmp_path):
    hosting = in_memory_hosting()
    trees = (Snapshot({"QUJD": b"abc.txt"}), Snapshot({"abc.txt": b"ABC"}))
    for name, tree in zip(("r1", "r2"), trees):
        hosting.create_repo(name, "bot")
        push_root(hosting, name, "bot", tree, "Import", "bot", 1700000000)
    state = tmp_path / "state.json"
    hosting.save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    # the same values as r1's {"path": "QUJD", "text": "abc.txt"}
    doc["repos"][1]["commits"][0]["files"] = [{"base64": "QUJD",
                                               "path": "abc.txt"}]
    state.write_text(json.dumps(doc), encoding="utf-8")
    loaded = InMemoryHosting.load_state(state)
    for name, tree in zip(("r1", "r2"), trees):
        assert loaded.fetch(name, "bot").head_commit().snapshot == tree
    loaded.save_state(state)
    assert state.read_bytes() == original


def test_new_commits_on_known_trees_save_identically(tmp_path):
    first, second, third = (tmp_path / f"{n}.json" for n in "abc")
    original = _shared_tree_hosting()
    original.save_state(first)
    loaded = InMemoryHosting.load_state(first)
    for hosting in (original, loaded):
        repo = hosting.fetch("cs101-erin", "bot")
        work = commit(repo, "main", Snapshot({"src/m.py": b"x = 2\n"}),
                      "Touch", "erin", 1700000600)
        hosting.push("cs101-erin", "bot", "main", work)
        back = commit(repo, "main", Snapshot({"src/m.py": b"x = 1\n",
                                              "logo.bin": bytes(range(256))}),
                      "Back to the first template", "erin", 1700000700)
        hosting.push("cs101-erin", "bot", "main", back)
    original.save_state(first)
    loaded.save_state(second)
    InMemoryHosting.load_state(second).save_state(third)
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()


def _write_canonical(state: Path, doc: dict) -> None:
    """Write ``doc`` in the state file's own form, whose lists a load cuts."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    assert _cut_lists(text)[1], "the load would cut no files list"
    state.write_text(text + "\n", encoding="utf-8")


@pytest.mark.parametrize("copy", [0, 1, -1])
def test_one_byte_change_in_a_canonical_copy_of_a_shared_tree_is_rejected(
        tmp_path, copy):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    copies = _tree_copies(doc, [{"path": "src/m.py", "text": "x = 2\n"}])
    copies[copy]["files"][0]["text"] = "x = 3\n"
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


@pytest.mark.parametrize("field", ["text", "message", "author", "timestamp",
                                   "parents"])
def test_tampered_later_canonical_copy_of_shared_commit_is_rejected(tmp_path,
                                                                    field):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    cid, copies = sorted(_shared_copies(doc).items())[0]
    last = copies[-1]
    if field == "text":
        last["files"][0]["text"] += "# tampered\n"
    elif field == "timestamp":
        last["timestamp"] += 1
    elif field == "parents":
        last["parents"] = [] if last["parents"] else [cid]
    else:
        last[field] += " (tampered)"
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_commit_listed_twice_in_one_canonical_repository_is_rejected(tmp_path):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    commits = doc["repos"][0]["commits"]
    commits.append(json.loads(json.dumps(commits[0])))
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="corrupt.*listed twice"):
        InMemoryHosting.load_state(state)


@pytest.mark.parametrize("copy", ["same commit", "another commit"])
def test_canonical_tree_in_text_and_base64_loads_and_saves_canonically(
        tmp_path, copy):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    copies = _tree_copies(doc, [{"path": "src/m.py", "text": "x = 2\n"}])
    target = copies[-1] if copy == "same commit" else next(
        c for c in copies if c["message"] == "Enroll frank")
    assert (target["id"] == copies[0]["id"]) == (copy == "same commit")
    target["files"] = [{"path": "src/m.py",
                        "base64": base64.b64encode(b"x = 2\n").decode()}]
    _write_canonical(state, doc)
    loaded = InMemoryHosting.load_state(state)
    assert loaded.fetch("cs101-frank", "bot").head_commit().snapshot \
        == loaded.fetch("cs101-template", "bot").head_commit().snapshot
    loaded.save_state(state)
    assert state.read_bytes() == original


@pytest.mark.parametrize("files", [0, "[]", True, 1e15])
def test_a_files_value_that_is_not_a_list_is_rejected(tmp_path, files):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    doc["repos"][0]["commits"][0]["files"] = files
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_the_literal_of_a_cut_list_cannot_be_forged(tmp_path):
    """A later copy of a shared commit whose ``files`` is the token a load
    writes in place of that very list, or a number, must not load."""
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    doc = json.loads(state.read_text(encoding="utf-8"))
    _, copies = sorted(_shared_copies(doc).items())[0]
    copies[-1]["files"] = float("nan")  # written as the token NaN
    _write_canonical(state, doc)
    with pytest.raises(HostingError, match="not valid JSON"):
        InMemoryHosting.load_state(state)
    for width in range(1, 64):
        copies[-1]["files"] = 10 ** width
        _write_canonical(state, doc)
        with pytest.raises(HostingError, match="corrupt"):
            InMemoryHosting.load_state(state)


@pytest.mark.parametrize("layout", ["files key first",
                                    "end marker inside the list"])
def test_lists_the_scan_cannot_cut_load_as_parsed(tmp_path, layout):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    commits = doc["repos"][0]["commits"]
    if layout == "files key first":
        # '"files":[' with no '],"id":"' after this list: the next one
        # ends another commit's list
        commits[0] = {"files": commits[0].pop("files"), **commits[0]}
    else:
        fdoc = commits[0]["files"][0]
        commits[0]["files"][0] = {"h": [], "id": "0", **fdoc}
    text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    assert '"files":[' in text
    state.write_text(text, encoding="utf-8")
    loaded = InMemoryHosting.load_state(state)
    loaded.save_state(state)
    assert state.read_bytes() == original


def test_a_long_run_of_digits_leaves_no_list_in_the_text(tmp_path):
    """Digits in a collaborator name or a message cut every list all the
    same, and the load reads each list back where it was cut."""
    hosting = _forked_hosting()
    hosting.invite_collaborator("cs101-bob", "bot", "7" * 100)
    repo = hosting.fetch("cs101-bob", "bot")
    work = commit(repo, "main", repo.head_commit().snapshot,
                  "Pi to 100 places: " + "1415926535" * 10, "bob", 1700000900)
    hosting.push("cs101-bob", "bot", "main", work)
    state = tmp_path / "state.json"
    hosting.save_state(state)
    text = state.read_text(encoding="utf-8")
    skeleton, cuts = _cut_lists(text)
    assert '"files":[' not in skeleton
    assert len(cuts) == skeleton.count("NaN") == text.count('"files":[')
    taken = iter(cuts)
    assert json.loads(skeleton, parse_constant=lambda _: next(taken).docs) \
        == json.loads(text)
    original = state.read_bytes()
    InMemoryHosting.load_state(state).save_state(state)
    assert state.read_bytes() == original


def test_a_number_equal_to_a_literal_loads_as_that_number(tmp_path):
    hosting = _forked_hosting()
    repo = hosting.fetch("cs101-bob", "bot")
    stamp = 10 ** 23  # 24 digits, wider than any 64-bit integer
    work = commit(repo, "main", repo.head_commit().snapshot, "Far future",
                  "bob", stamp)
    hosting.push("cs101-bob", "bot", "main", work)
    state = tmp_path / "state.json"
    hosting.save_state(state)
    skeleton, cuts = _cut_lists(state.read_text(encoding="utf-8"))
    assert f'"timestamp":{stamp}}}' in skeleton
    assert skeleton.count("NaN") == len(cuts)
    original = state.read_bytes()
    loaded = InMemoryHosting.load_state(state)
    assert loaded.fetch("cs101-bob", "bot").head_commit().timestamp == stamp
    loaded.save_state(state)
    assert state.read_bytes() == original


def test_a_list_in_another_key_order_shares_the_canonical_tree(tmp_path):
    state = tmp_path / "state.json"
    _shared_tree_hosting().save_state(state)
    original = state.read_bytes()
    doc = json.loads(original)
    frank = next(c for c in _tree_copies(
        doc, [{"path": "src/m.py", "text": "x = 2\n"}])
        if c["message"] == "Enroll frank")
    frank["files"] = [{"text": "x = 2\n", "path": "src/m.py"}]
    state.write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
                     encoding="utf-8")
    loaded = InMemoryHosting.load_state(state)
    assert loaded.fetch("cs101-frank", "bot").head_commit().snapshot \
        is loaded.fetch("cs101-erin", "bot").head_commit().snapshot
    loaded.save_state(state)
    assert state.read_bytes() == original


# Pieces of text a random tree, message or name is made of: each marker the
# reader looks for, the token it writes and digits that look like numbers.
_TEXT_PIECES = ('"files":[', '],"id":"', "NaN", "Infinity", "-Infinity",
                "1" + "0" * 23, '"', "\\", "[", "]", ",", ":", "{", "}", " ",
                "\n", "x", "é", "\u2028", "\x00")


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_PIECES) for _ in range(rng.randrange(8)))


def _random_hosting(rng: random.Random) -> InMemoryHosting:
    """Repositories that each hold part of one random DAG, plus commits of
    their own with random trees (text and binary), branches, collaborators
    and timestamps up to 24 digits."""
    dag, ids = build_random_dag(rng, 30)
    hosting = in_memory_hosting()
    for r in range(rng.randint(1, 6)):
        name, owner = f"r{r}", rng.choice(("bot", "staff"))
        hosting.create_repo(name, owner, rng.choice(("private", "public")))
        hosting.push(name, owner, "main", *walk(dag, rng.choice(ids)))
        for _ in range(rng.randrange(4)):
            repo = hosting.fetch(name, owner)
            branch = rng.choice(("main", "draft", "b"))
            tree = Snapshot({  # a path holds no backslash and no NUL
                f"d{rng.randrange(3)}/x{_random_text(rng)}".replace(
                    "\\", "").replace("\0", ""):
                    rng.choice((_random_text(rng).encode(),
                                bytes(rng.randrange(256) for _ in range(9))))
                for _ in range(rng.randrange(4))})
            work = Commit.create(
                (repo.branches.get(branch, repo.head()),),
                rng.choice((tree, repo.head_commit().snapshot)),
                _random_text(rng), _random_text(rng),
                rng.choice((0, 1_700_000_000, 10 ** 23, 10 ** 40)))
            hosting.push(name, owner, branch, work)
        for _ in range(rng.randrange(3)):
            hosting.invite_collaborator(name, owner, _random_text(rng) + "u")
    return hosting


@pytest.mark.parametrize("seed", [5, 7, 20])
def test_random_states_save_canonically_and_round_trip(tmp_path, seed):
    hosting = _random_hosting(random.Random(seed))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    hosting.save_state(first)
    assert first.read_text(encoding="utf-8") == _canonical({
        "format": "repo-state", "version": 1,
        "repos": [repo_to_doc(r) for r in hosting.list_repos()]}) + "\n"
    loaded = InMemoryHosting.load_state(first)
    loaded.save_state(second)
    assert second.read_bytes() == first.read_bytes()
    for repo in hosting.list_repos():
        twin = loaded.fetch(repo.name, repo.owner)
        assert twin.branches == repo.branches
        assert twin.collaborators == repo.collaborators
        assert twin.commits == repo.commits


# SHA-256 of the state file each state saves to. Equal states must give
# byte-identical files, whatever the writer's internals and the hash seed.
_PINNED_STATE_SHA256 = {
    "seed 5":
        "b672eb19861dc90069467e0e3fddb4852df1f523bf3d33d3f07422abd0f9abc0",
    "seed 7":
        "c9390e4bf25322e6d3b3ee5d13e412287d139e6db30fc306c65b78cf5760a5af",
    "seed 20":
        "792185f9bdf316c7ffbeea8a4a582b2a4944b6f9a956d6be5df7d0ae30f577a4",
    "shared trees":
        "043f7bb49d49123c50dd0f67bc4fa69f7229866be91d4c33d38843b91cb2d45c",
}


@pytest.mark.parametrize("state", sorted(_PINNED_STATE_SHA256))
def test_state_file_bytes_are_pinned(tmp_path, state):
    hosting = (_shared_tree_hosting() if state == "shared trees"
               else _random_hosting(random.Random(int(state.split()[1]))))
    path = tmp_path / "state.json"
    hosting.save_state(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() \
        == _PINNED_STATE_SHA256[state]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("place", ["timestamp", "files list", "spaced file"])
def test_a_state_file_holding_a_non_json_constant_is_rejected(tmp_path, token,
                                                              place):
    """Strict JSON has no NaN or infinity, in a ``files`` list the reader
    cuts out or anywhere else."""
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    text = state.read_text(encoding="utf-8")
    if place == "files list":
        assert text.count('"text":"x = 1\\n"') > 1
        text = text.replace('"text":"x = 1\\n"', f'"text":{token}', 1)
    else:
        text = text.replace('"timestamp":1700000100', f'"timestamp":{token}')
        if place == "spaced file":
            text = json.dumps(json.loads(text), indent=1)
    assert token in text
    state.write_text(text, encoding="utf-8")
    with pytest.raises(HostingError, match="not valid JSON"):
        InMemoryHosting.load_state(state)


@pytest.mark.parametrize("stamp", ["1e400", "-1e400"])
def test_a_timestamp_beyond_float_range_is_corrupt(tmp_path, stamp):
    state = tmp_path / "state.json"
    _forked_hosting().save_state(state)
    text = state.read_text(encoding="utf-8")
    state.write_text(text.replace('"timestamp":1700000100',
                                  f'"timestamp":{stamp}'), encoding="utf-8")
    with pytest.raises(HostingError, match="corrupt"):
        InMemoryHosting.load_state(state)


def test_no_save_writes_a_non_json_constant(tmp_path):
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    hosting.push("r", "bot", "main", Commit.create(
        (), EMPTY_SNAPSHOT, "m", "bot", float("inf")))
    state = tmp_path / "state.json"
    with pytest.raises(ValueError):
        hosting.save_state(state)
    assert not state.exists()
    assert list(tmp_path.iterdir()) == []


def _benchmark_course():
    """The benchmark's seeded course generator, ``perfbench/course.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "course.py"
    spec = importlib.util.spec_from_file_location("perfbench_course", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["term-end", "lab-grading", "mooc-enroll"])
def test_benchmark_course_state_round_trips_byte_for_byte(tmp_path, workload):
    course = _benchmark_course()
    course.build(course.WORKLOADS[workload], 1, tmp_path / "course")
    state = tmp_path / "course" / "state" / "hosting-state.json"
    written = state.read_bytes()
    assert written == (json.dumps(
        json.loads(written), sort_keys=True, separators=(",", ":"),
        ensure_ascii=False) + "\n").encode("utf-8")
    InMemoryHosting.load_state(state).save_state(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == written


def test_state_load_logs_its_counts(tmp_path, caplog):
    course = _benchmark_course()
    course.build(course.WORKLOADS["term-end"], 1, tmp_path / "course")
    state = tmp_path / "course" / "state" / "hosting-state.json"
    with caplog.at_level(logging.DEBUG, logger="courseforge.repomodel"):
        InMemoryHosting.load_state(state)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "courseforge.repomodel"]
    assert len(lines) == 1 and lines[0].startswith("load_state ")
    counts = dict(field.split("=") for field in lines[0].split()[1:])
    assert counts.keys() == {"repos", "commit_docs", "commits_verified",
                             "trees_decoded", "bytes", "seconds"}
    assert counts["trees_decoded"] == "20"
    assert int(counts["commit_docs"]) > int(counts["commits_verified"]) > 20
    assert int(counts["bytes"]) == state.stat().st_size


class _DiskFull:
    """A text file whose writes fail once ``budget`` characters are used."""

    def __init__(self, fh, budget: int):
        self._fh = fh
        self._budget = budget

    def write(self, text: str) -> int:
        self._budget -= len(text)
        if self._budget < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(text)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._fh.__exit__(*exc_info)


def test_failed_save_leaves_previous_state_file_intact(tmp_path, monkeypatch):
    state = tmp_path / "state.json"
    _populated_hosting().save_state(state)
    before = state.read_bytes()
    grown = _forked_hosting()
    first_repo = json.dumps(repo_to_doc(grown.list_repos()[0]),
                            sort_keys=True, separators=(",", ":"))
    real_open = io.open

    def open_on_small_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        # the disk fills just after the first repository is written
        return _DiskFull(fh, len(first_repo) + 64) if "w" in mode else fh

    monkeypatch.setattr(io, "open", open_on_small_disk)
    with pytest.raises(OSError, match="No space left"):
        grown.save_state(state)
    monkeypatch.undo()
    assert state.read_bytes() == before
    InMemoryHosting.load_state(state)
    assert os.listdir(tmp_path) == ["state.json"]


def test_save_keeps_the_state_file_mode(tmp_path):
    state = tmp_path / "state.json"
    hosting = _populated_hosting()
    hosting.save_state(state)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(state.stat().st_mode) == 0o666 & ~umask
    state.chmod(0o640)
    hosting.save_state(state)
    assert stat.S_IMODE(state.stat().st_mode) == 0o640


def test_unrecognized_state_files_are_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]", encoding="utf-8")
    with pytest.raises(HostingError, match="not valid JSON"):
        InMemoryHosting.load_state(bad)
    bad.write_text('{"format": "other"}', encoding="utf-8")
    with pytest.raises(HostingError, match="unrecognized format"):
        InMemoryHosting.load_state(bad)
    bad.write_text('{"format": "repo-state", "version": 99, "repos": []}',
                   encoding="utf-8")
    with pytest.raises(HostingError, match="unsupported version"):
        InMemoryHosting.load_state(bad)
    bad.write_text('{"format": "repo-state", "version": 1}', encoding="utf-8")
    with pytest.raises(HostingError, match=f"^state file {bad} is corrupt: "
                       "missing key 'repos'$"):
        InMemoryHosting.load_state(bad)
    with pytest.raises(HostingError, match="cannot read"):
        InMemoryHosting.load_state(tmp_path / "absent.json")


def test_a_state_file_that_is_not_utf8_is_not_valid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"format": "repo-state", "version": 1, "repos": ["\xff"]}')
    with pytest.raises(HostingError, match="not valid JSON"):
        InMemoryHosting.load_state(bad)


def test_a_json_error_is_placed_in_the_file_itself(tmp_path):
    """The line and column are those of the file, not of the text left
    once its ``files`` lists are cut out."""
    state = tmp_path / "state.json"
    hosting = InMemoryHosting()
    hosting.create_repo("r", "bot", visibility="private")
    push_root(hosting, "r", "bot", Snapshot(
        {f"src/m{i:02d}.py": f"x = {i}\n".encode() * 20 for i in range(20)}),
        "Init", "bot", 1700000000)
    hosting.save_state(state)
    text = state.read_text(encoding="utf-8")
    assert text.count('"visibility":"private"') == 1
    for bad in (text.replace('"visibility":"private"', '"visibility":private'),
                # cut inside its last files list
                text[:text.rindex('"files":[') + 40]):
        state.write_text(bad, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(bad)
        with pytest.raises(HostingError, match="not valid JSON") as err:
            InMemoryHosting.load_state(state)
        assert str(err.value).endswith(f": {whole.value}")


# ---------------------------------------------------------------------------
# Replaying histories and working-directory adapters
# ---------------------------------------------------------------------------

def test_push_sends_history_in_one_call_and_skips_held_commits():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    local = Repo("r", "bot")
    chain = [commit(local, "main", Snapshot({"a": str(i).encode()}),
                    f"c{i}", "bot", i + 1) for i in range(4)]
    push_root(hosting, "r", "bot", chain[0].snapshot, chain[0].message,
              "bot", 1)
    # the repository holds the identical root commit; the rest lands on it
    hosting.push("r", "bot", "main", *walk(local, local.head()))
    remote = hosting.fetch("r", "bot")
    assert remote.head() == local.head()
    assert set(remote.commits) == set(local.commits)


def test_push_of_a_held_commit_only_moves_the_branch():
    hosting = in_memory_hosting()
    hosting.create_repo("r", "bot")
    local = Repo("r", "bot")
    c1 = commit(local, "main", Snapshot({"a": b"1"}), "one", "bot", 1)
    c2 = commit(local, "main", Snapshot({"a": b"2"}), "two", "bot", 2)
    hosting.push("r", "bot", "main", c1, c2)
    hosting.push("r", "bot", "main", *walk(local, c1.commit_id))
    remote = hosting.fetch("r", "bot")
    assert remote.head() == c1.commit_id
    assert set(remote.commits) == {c1.commit_id, c2.commit_id}


def test_snapshot_directory_round_trip(tmp_path):
    snap = Snapshot({
        "README.md": b"hello\n",
        "src/pkg/mod.py": b"x = 1\n",
        "assets/logo.bin": bytes(range(256)),
    })
    work = tmp_path / "work"
    snapshot_to_dir(snap, work)
    assert (work / "src" / "pkg" / "mod.py").read_bytes() == b"x = 1\n"
    assert snapshot_from_dir(work) == snap


def test_snapshot_from_dir_skips_ignored_names_and_symlinks(tmp_path):
    snapshot_to_dir(Snapshot({"kept.py": b"1\n"}), tmp_path)
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "config").write_text("noise")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"\x00")
    os.symlink(tmp_path / "kept.py", tmp_path / "link.py")
    snap = snapshot_from_dir(tmp_path)
    assert snap.paths() == ("kept.py",)
    with pytest.raises(RepoModelError, match="not a directory"):
        snapshot_from_dir(tmp_path / "absent")
