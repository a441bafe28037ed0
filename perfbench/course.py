"""Seeded course generator for the benchmark workloads.

Everything a workload starts from is built here: the teacher's marked
solution trees, the template history, the student repositories with their
work commits and template merges, both ledgers, an archive store of earlier
submissions, and the saved hosting state. History is made only from public
primitives (``Snapshot``, ``Commit.create``, ``create_repo``,
``init_from_snapshot``, ``push``, ``invite_collaborator`` and
``save_state``); template trees and merge trees are computed here, never
by the program under test.

Beside every input it plants, the generator records what the program must
make of it: the expected template text of each marked file, the planned
outcome of each submission's tests, and the timestamp of every commit. The
oracles read only these expectations (``expect.json``).
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from courseforge.repomodel import Commit, Snapshot, in_memory_hosting

DAY = 86_400
HOUR = 3_600
TERM_START = 1_612_137_600  # 2021-02-01 00:00 UTC, far from any run's clock
COURSE = "cs"
BOT = "coursebot"
TASK = "t1"
SUITE_MAX = 10
PUBLISHES = 2  # publish --teacher-dir calls per round, each a new revision

# Graded tests in manifest order: (id, weight, checked function, depends_on,
# forbidden prefixes, teacher-only). The planned outcomes below decide which
# function a submission gets wrong.
TESTS = (
    ("test_a", 3, "f1", None, (), False),
    ("test_b", 2, "f2", "test_a", (), False),
    ("test_c", 4, "f3", "test_b", (), False),
    ("test_d", 1, "f4", None, ("threading",), False),
    ("hidden_e", 2, "f1", None, (), True),
)
_WRONG = {"fail_a": "f1", "fail_b": "f2", "fail_c": "f3"}


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the seed varies content, never these counts."""

    name: str
    lib_files: int           # filler modules under lib/, all marked
    template_versions: int   # publishes before the run, at least 2
    students: int            # repositories with work at set-up
    idle_students: int       # enrolled at set-up, no work yet
    work_commits: int        # work commits per set-up student
    graded: dict             # outcome -> number of graded submissions
    test_work: int           # loop length of each graded test
    noisy_lines: int         # debug lines a noisy submission prints
    roster_batches: int      # enroll --roster calls per round
    roster_new: int          # new students across one round's batches
    roster_group_every: int  # every n-th new roster entry is a trio group
    stats_calls: int         # stats calls per round
    earlier_grades: int      # ledger records and archives from before the run


WORKLOADS = {
    "term-end": Workload(
        name="term-end", lib_files=200, template_versions=5, students=64,
        idle_students=0, work_commits=2,
        graded={"pass": 2, "stale": 1},
        test_work=2_000, noisy_lines=0, roster_batches=2, roster_new=4,
        roster_group_every=0, stats_calls=2, earlier_grades=64),
    "lab-grading": Workload(
        name="lab-grading", lib_files=8, template_versions=3, students=36,
        idle_students=0, work_commits=3,
        graded={"pass": 4, "noisy": 1, "fail_a": 1, "fail_b": 1,
                "fail_c": 1, "forbidden": 1, "stale": 1},
        test_work=100_000, noisy_lines=50_000, roster_batches=3,
        roster_new=6, roster_group_every=0, stats_calls=4, earlier_grades=12),
    "mooc-enroll": Workload(
        name="mooc-enroll", lib_files=3, template_versions=2, students=40,
        idle_students=1000, work_commits=2,
        graded={"pass": 3, "stale": 1},
        test_work=20_000, noisy_lines=0, roster_batches=3, roster_new=120,
        roster_group_every=10, stats_calls=3, earlier_grades=40),
}


def tiny(workload: Workload) -> Workload:
    """The same make-up at a size that runs in seconds (self-check)."""
    def shrink(n: int, floor: int) -> int:
        return max(floor, n // 8)
    return Workload(
        name=workload.name, lib_files=shrink(workload.lib_files, 2),
        template_versions=min(workload.template_versions, 3),
        students=max(sum(workload.graded.values()) + 2,
                     shrink(workload.students, 2)),
        idle_students=shrink(workload.idle_students, 0),
        work_commits=2,
        graded={k: 1 for k in workload.graded},
        test_work=1_000, noisy_lines=min(workload.noisy_lines, 2_000),
        roster_batches=min(workload.roster_batches, 2),
        roster_new=shrink(workload.roster_new, 4),
        roster_group_every=workload.roster_group_every and 3,
        stats_calls=1, earlier_grades=min(workload.earlier_grades, 3))


# ---------------------------------------------------------------------------
# Source text. Every marked file is built from pieces that give both the
# teacher text and the expected template text.
# ---------------------------------------------------------------------------

def _marked_function(name: str, args: str, body: list[str], stub: str,
                     doc: str) -> tuple[list[str], list[str]]:
    """A function whose body is a STRIP region behind a STUDENT stub."""
    head = [f"def {name}({args}):", f'    """{doc}"""']
    teacher = head + [f"    # STUDENT {stub}", "    # BEGIN STRIP"] \
        + [f"    {line}" for line in body] + ["    # END STRIP"]
    template = head + [f"    {stub}"]
    return teacher, template


def _join(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _solver_parts(work: int) -> list[tuple[str, str, list[str]]]:
    """(name, args, correct body) of the four functions the task asks for."""
    return [
        ("f1", "n", [f"return sum(i * i for i in range(n + {work}))"]),
        ("f2", "n", ["total = 0", f"for i in range(n + {work}):",
                     "    total += i % 7", "return total"]),
        ("f3", "n", [f"return sum((i * 3) % 11 for i in range(n + {work}))"]),
        ("f4", "n", ["acc = 1", f"for i in range(n + {work}):",
                     "    acc = (acc * 31 + i) % 1000003", "return acc"]),
    ]


def solver_files(work: int) -> tuple[bytes, bytes]:
    """Teacher text and expected template text of ``src/solver.py``."""
    teacher = ['"""The functions of task t1."""', ""]
    template = list(teacher)
    for name, args, body in _solver_parts(work):
        t, s = _marked_function(name, args, body,
                                f'raise NotImplementedError("{name}")',
                                f"Task function {name}.")
        teacher += t + ["", ""]
        template += s + ["", ""]
    return _join(teacher[:-1]), _join(template[:-1])


def student_solver(work: int, outcome: str, noisy_lines: int,
                   progress: int) -> bytes:
    """A student's ``src/solver.py`` at one commit of their work.

    ``progress`` counts the student's commits so far; every version differs
    so each work commit changes the tree. The final version carries the
    planned outcome.
    """
    lines = ['"""My solutions for task t1."""', ""]
    if outcome == "forbidden":
        lines += ["import threading  # left over from an experiment", ""]
    lines += [f"ATTEMPT = {progress}", ""]
    for name, args, body in _solver_parts(work):
        lines += [f"def {name}({args}):"]
        if outcome == "noisy" and name == "f1":
            lines += [f"    for k in range({noisy_lines}):",
                      '        print("debug: trace line", k, "of f1")']
        lines += [f"    {b}" for b in body]
        if _WRONG.get(outcome) == name:
            lines[-1] += " + 1"
        lines += ["", ""]
    return _join(lines[:-1])


def _test_file(func: str, work: int, variant: int) -> bytes:
    expected = {
        "f1": f"sum(i * i for i in range(n + {work}))",
        "f2": f"sum(i % 7 for i in range(n + {work}))",
        "f3": f"sum((i * 3) % 11 for i in range(n + {work}))",
    }.get(func)
    lines = ["import os", "import sys", "", "sys.path.insert(0, os.getcwd())",
             "", "from src.solver import " + func, ""]
    if expected is None:  # f4: recompute the recurrence independently
        lines += ["def reference(n):", "    acc = 1",
                  f"    for i in range(n + {work}):",
                  "        acc = (acc * 31 + i) % 1000003", "    return acc",
                  ""]
        expected = "reference(n)"
    lines += [f"for n in ({variant}, {variant + 5}):",
              f"    assert {func}(n) == {expected}, n"]
    return _join(lines)


def _manifest() -> bytes:
    lines = [f"suite_max: {SUITE_MAX}", "tests:"]
    for test_id, weight, _, dep, forbidden, _ in TESTS:
        lines += [f"  - id: {test_id}", f"    weight: {weight}",
                  "    cpu_timeout: 30", "    wall_timeout: 60"]
        if dep:
            lines.append(f"    depends_on: {dep}")
        if forbidden:
            lines.append(f"    forbidden: [{', '.join(forbidden)}]")
        if test_id == "test_c":
            lines.append('    feedback_on_fail: "f3 must reduce modulo 11"')
    return _join(lines)


def _lib_module(rng: random.Random, index: int, revision: int
                ) -> tuple[bytes, bytes]:
    """A small marked filler module; ``revision`` changes a visible line."""
    name = f"helper_{index:03d}"
    t, s = _marked_function(
        name, "x", [f"return x * {rng.randint(2, 97)} + {rng.randint(0, 999)}"],
        f'raise NotImplementedError("{name}")', "Library helper.")
    head = [f"REVISION = {revision}", ""]
    return _join(head + t), _join(head + s)


@dataclass
class SourceTree:
    """One teacher version: path -> (teacher bytes, template bytes or None).

    ``None`` marks a teacher-only path, absent from the template.
    """

    files: dict

    def teacher(self) -> Snapshot:
        return Snapshot({p: t for p, (t, _) in self.files.items()})

    def template(self) -> Snapshot:
        return Snapshot({p: s for p, (_, s) in self.files.items()
                         if s is not None})

    def expected_template(self) -> dict:
        return {p: s.decode() for p, (_, s) in self.files.items()
                if s is not None}

    def teacher_only(self) -> list:
        return sorted(p for p, (_, s) in self.files.items() if s is None)


def base_tree(w: Workload, rng: random.Random) -> SourceTree:
    files: dict = {}
    solver_t, solver_s = solver_files(w.test_work)
    files["src/solver.py"] = (solver_t, solver_s)
    files["src/__init__.py"] = (b"", b"")
    for test_id, _, func, _, _, hidden in TESTS:
        body = _test_file(func, w.test_work, rng.randint(1, 50))
        files[f"tests/{test_id}.py"] = (body, None if hidden else body)
    files["tasks/t1.yaml"] = (_manifest(), None)
    readme = _join(["# Course exercises", "",
                    "Implement f1 to f4 in src/solver.py."])
    files["README.md"] = (readme, readme)
    files["data/input.txt"] = (_join([str(rng.randint(0, 10**6))
                                      for _ in range(40)]),) * 2
    files["lib/__init__.py"] = (b"", b"")
    for i in range(w.lib_files):
        files[f"lib/m{i:03d}.py"] = _lib_module(rng, i, 1)
    return SourceTree(files)


def next_version(tree: SourceTree, version: int,
                 rng: random.Random) -> SourceTree:
    """The teacher's next revision: a release note and two changed modules."""
    files = dict(tree.files)
    note = _join(["# Release notes", "", f"Release {version}."])
    files["NOTES.md"] = (note, note)
    libs = sorted(p for p in files if p.startswith("lib/m"))
    for path in rng.sample(libs, min(2, len(libs))):
        index = int(path[len("lib/m"):-len(".py")])
        files[path] = _lib_module(rng, index, version)
    return SourceTree(files)


# ---------------------------------------------------------------------------
# The course plan
# ---------------------------------------------------------------------------

def course_yaml(python: str) -> str:
    compile_cmd = json.dumps([python, "-m", "compileall", "-q", "src"])
    test_cmd = json.dumps([python, "tests/{test_id}.py"])
    return f"""\
course_id: {COURSE}
bot_account: {BOT}
timezone: UTC
state_dir: state
teacher_only_paths: ["tests/hidden_*.py", "tasks/**"]
replaced_paths: ["tests/**"]
archive_paths: ["src/*.py"]
sensitive_patterns: ["secrets/**"]
tasks:
  - id: {TASK}
    manifest: tasks/t1.yaml
executor:
  compile_command: {compile_cmd}
  test_command: {test_cmd}
"""


class _History:
    """Builds repositories through the public hosting operations only and
    records every commit it makes with its timestamp and parent count."""

    def __init__(self):
        self.hosting = in_memory_hosting()
        self.commits: dict = {}  # id -> [timestamp, parent count]
        self.held: dict = {}     # repo -> ids of the commits pushed to it

    def create(self, name: str, visibility: str = "private") -> None:
        self.hosting.create_repo(name, BOT, visibility)

    def push(self, repo: str, c: Commit) -> None:
        self.hosting.push(repo, BOT, "main", c)
        self.commits[c.commit_id] = [c.timestamp, len(c.parents)]
        self.held.setdefault(repo, []).append(c.commit_id)

    def make(self, repo: str, parents: tuple, snap: Snapshot, message: str,
             author: str, ts: int) -> Commit:
        c = Commit.create(parents, snap, message, author, ts)
        self.push(repo, c)
        return c


def _archive(store: Path, user: str, commit_id: str, files: dict,
             archived_at: int) -> None:
    target = store / TASK / user / commit_id
    for path, data in files.items():
        dest = target / "files" / path
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(data)
    meta = {"archived_at": archived_at, "commit_id": commit_id,
            "task_id": TASK, "username": user}
    (target / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")


def _archived(snap: Snapshot) -> dict:
    """The files archive_paths ["src/*.py"] selects, by this generator's
    own reading of the pattern: Python files directly under src/."""
    return {p: d for p, d in snap.items()
            if p.startswith("src/") and p.count("/") == 1
            and p.endswith(".py")}


def _jsonl(path: Path, header: dict, records: list) -> None:
    lines = [json.dumps(header)] + [json.dumps(r, sort_keys=True)
                                    for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build(w: Workload, seed: int, root: Path) -> dict:
    """Build the workload's starting course under ``root``.

    Writes ``course.yaml``, ``state/`` (hosting state, both ledgers,
    archive store), the teacher working trees the run publishes
    (``publish-N/``), the roster files it enrolls (``roster-N.txt``) and
    ``expect.json``. Returns the expectations.
    """
    rng = random.Random(f"{w.name}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    (root / "course.yaml").write_text(course_yaml(sys.executable))
    state = root / "state"
    state.mkdir()
    h = _History()
    template_repo, teacher_repo = f"{COURSE}-template", f"{COURSE}-solutions"
    h.create(teacher_repo)
    h.create(template_repo, "public")

    # Template history: one publish every week or so.
    trees = [base_tree(w, rng)]
    for v in range(2, w.template_versions + 1):
        trees.append(next_version(trees[-1], v, rng))
    versions = []  # (template commit, template snapshot, timestamp)
    teacher_parent: tuple = ()
    for v, tree in enumerate(trees):
        ts = TERM_START + (v * 7 + 1) * DAY + 9 * HOUR
        t = h.make(teacher_repo, teacher_parent, tree.teacher(),
                   "Import solution" if v == 0 else "Update solution", BOT,
                   ts - HOUR)
        teacher_parent = (t.commit_id,)
        parent = (versions[-1][0].commit_id,) if versions else ()
        c = h.make(template_repo, parent, tree.template(),
                   f"Publish template from solution {t.commit_id}", BOT, ts)
        versions.append((c, c.snapshot, ts))
    last_version_ts = versions[-1][2]
    term_end = last_version_ts + 5 * DAY

    # Students: graded ones carry a planned outcome, the rest pass.
    names = [f"s{n:04d}" for n in range(w.students)]
    plan = [o for o, k in w.graded.items() for _ in range(k)]
    graded = rng.sample(names, len(plan))
    outcome = {u: "pass" for u in names}
    outcome.update(zip(graded, plan))
    n_versions = len(versions)

    enrollment_records, repos, heads, work = [], {}, {}, {}

    def enroll_student(u: str, e: int) -> Commit:
        """Provision ``u``'s repository as enrollment does at version e."""
        repo = f"{COURSE}-{u}"
        h.create(repo)
        for c, _, _ in versions[:e]:
            h.push(repo, c)
        at = versions[e - 1][2] + rng.randint(1, 20) * HOUR
        enroll = h.make(repo, (versions[e - 1][0].commit_id,),
                        versions[e - 1][1], f"Enroll {u}", BOT, at)
        h.hosting.invite_collaborator(repo, BOT, u)
        enrollment_records.append({
            "username": u, "repo_name": repo, "created_at": at,
            "template_commit": versions[e - 1][0].commit_id})
        return enroll

    for u in names:
        repo = f"{COURSE}-{u}"
        e = rng.randint(1, n_versions - 1)  # version at enrollment
        last = (rng.randint(e, n_versions - 1) if outcome[u] == "stale"
                else n_versions)  # version finally merged
        merges = (sorted({rng.randint(e + 1, last), last}) if last > e
                  else [])
        enroll = enroll_student(u, e)
        enrolled_at = enroll.timestamp
        # events: work commits and merges, in time order
        events = [(versions[m - 1][2] + rng.randint(2, 30) * HOUR, "merge", m)
                  for m in merges]
        span = term_end - enrolled_at - DAY
        events += [(enrolled_at + HOUR + rng.randint(0, span), "work", j)
                   for j in range(w.work_commits)]
        events.sort()
        head, base, merged_to, progress = enroll, versions[e - 1][1], e, 0
        own = []
        solver = base["src/solver.py"]
        for ts, kind, arg in events:
            if kind == "work":
                progress += 1
                final = progress == w.work_commits
                solver = student_solver(
                    w.test_work, outcome[u] if final else "pass",
                    w.noisy_lines if final else 0, progress)
                message = f"Work {progress}"
                parents = (head.commit_id,)
            else:
                for c, _, _ in versions[merged_to:arg]:
                    h.push(repo, c)
                merged_to, base = arg, versions[arg - 1][1]
                message = f"Merge template {arg}"
                parents = (head.commit_id, versions[arg - 1][0].commit_id)
            head = h.make(repo, parents,
                          base.with_files({"src/solver.py": solver}),
                          message, u, ts)
            if kind == "work":
                own.append(head)
        repos[u], heads[u], work[u] = repo, head, own

    # Students enrolled at set-up who have not committed yet.
    idle = [f"i{n:05d}" for n in range(w.idle_students)]
    for u in idle:
        enroll_student(u, rng.randint(1, n_versions))
    enrollment_records.sort(key=lambda r: r["created_at"])

    # Earlier grades and archives: every work commit before a student's
    # last, all from before the run's clock.
    grade_records, archived, store = [], {}, state / "archive"
    store.mkdir()
    for u in rng.sample(names, min(w.earlier_grades, len(names))):
        for earlier in work[u][:-1]:
            authoritative = rng.random() < 0.8
            at = earlier.timestamp + HOUR
            grade_records.append({
                "username": u, "task_id": TASK,
                "commit_id": earlier.commit_id,
                "earned": float(rng.choice((0, 5, 8, 10))), "maximum": 10.0,
                "authoritative": authoritative, "graded_at": at})
            if authoritative:
                files = _archived(earlier.snapshot)
                _archive(store, u, earlier.commit_id, files, at)
                archived[earlier.commit_id] = {p: d.decode()
                                               for p, d in files.items()}
    grade_records.sort(key=lambda r: r["graded_at"])

    h.hosting.save_state(state / "hosting-state.json")
    _jsonl(state / "enrollment.jsonl",
           {"format": "enrollment-ledger", "version": 1}, enrollment_records)
    _jsonl(state / "grades.jsonl", {"format": "grade-ledger", "version": 1},
           grade_records)

    # What each round publishes: successive teacher revisions.
    publishes = []
    tree = trees[-1]
    for p in range(PUBLISHES):
        tree = next_version(tree, w.template_versions + 1 + p, rng)
        out = root / f"publish-{p + 1}"
        for path, (teacher, _) in tree.files.items():
            dest = out / path
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(teacher)
        publishes.append({"dir": out.name,
                          "template": tree.expected_template(),
                          "teacher_only": tree.teacher_only()})

    # Cumulative roster batches of new students, some in trios.
    entries, n = [], 0
    for i in range(w.roster_new):
        if w.roster_group_every and i % w.roster_group_every == 0:
            entries.append((f"g{i:04d}",
                            [f"n{n + k:05d}" for k in range(3)]))
            n += 3
        else:
            entries.append((f"n{n:05d}", None))
            n += 1
    rosters = []
    per_batch = -(-len(entries) // w.roster_batches)
    for b in range(w.roster_batches):
        batch = entries[:per_batch * (b + 1)]
        lines = ["# roster export"] + [
            f"{name}: {' '.join(m)}" if m else name for name, m in batch]
        path = root / f"roster-{b + 1}.txt"
        path.write_text("\n".join(lines) + "\n")
        rosters.append({"file": path.name, "entries": [
            [name, m] for name, m in batch]})

    expect = {
        "workload": w.name, "seed": seed,
        "window": [TERM_START, term_end],
        "template_repo": template_repo,
        "template_head": versions[-1][0].commit_id,
        "template_commits": [[c.commit_id, ts] for c, _, ts in versions],
        "commits": h.commits,
        "students": {u: {"head": heads[u].commit_id,
                         "outcome": outcome[u],
                         "archived": {p: d.decode() for p, d in
                                      _archived(heads[u].snapshot).items()}}
                     for u in names},
        "repo_commits": {repo: h.held[repo] for repo in
                         [repos[u] for u in names]
                         + [f"{COURSE}-{u}" for u in idle]},
        "graded": graded,
        "earlier_grades": [dict(r, archived=archived.get(r["commit_id"]))
                           for r in grade_records],
        "publishes": publishes,
        "rosters": rosters,
        "tests": [list(t) for t in TESTS],
        "suite_max": SUITE_MAX,
    }
    (root / "expect.json").write_text(json.dumps(expect))
    return expect
