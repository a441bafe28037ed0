"""Checks of every CLI output against the generator's expectations.

Each function takes the expectations written by ``course.build`` and what
the program produced (RESULT lines, the saved state read as plain JSON,
ledger lines, exported files) and returns a list of mismatch messages; an
empty list means the output is correct. Nothing here calls courseforge:
expected values come from the planted inputs alone.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

# Formats the program writes, as docs/formats.md fixes them.
STATE_FILE = "hosting-state.json"
ENROLLMENT_LEDGER = "enrollment.jsonl"


def parse_result(stdout: str) -> dict | None:
    """The key=value fields of the last stdout line, if it is a RESULT ok."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("RESULT ok "):
        return None
    return dict(f.split("=", 1) for f in lines[-1].split()[2:] if "=" in f)


def planned_statuses(tests: list, outcome: str) -> dict:
    """Test id -> pass/fail/skipped/forbidden for a planned outcome, by the
    manifest rules: a failed dependency skips, a forbidden hit preempts."""
    wrong = {"fail_a": "f1", "fail_b": "f2", "fail_c": "f3"}.get(outcome)
    status: dict = {}
    for test_id, _, func, dep, forbidden, _ in tests:
        if dep is not None and status[dep] != "pass":
            status[test_id] = "skipped"
        elif forbidden and outcome == "forbidden":
            status[test_id] = "forbidden"
        elif func == wrong:
            status[test_id] = "fail"
        else:
            status[test_id] = "pass"
    return status


def expected_grade(expect: dict, user: str) -> tuple[float, bool]:
    """(earned, up_to_date) = suite_max x passed weight / total weight."""
    outcome = expect["students"][user]["outcome"]
    if outcome == "stale":
        return 0.0, False
    tests = expect["tests"]
    status = planned_statuses(tests, outcome)
    total = sum(t[1] for t in tests)
    passed = sum(t[1] for t in tests if status[t[0]] == "pass")
    return expect["suite_max"] * passed / total, True


def check_grade(expect: dict, user: str, result: dict | None) -> list[str]:
    if result is None:
        return [f"grade {user}: no RESULT ok line"]
    earned, up_to_date = expected_grade(expect, user)
    problems = []
    if not math.isclose(float(result.get("earned", "nan")), earned,
                        rel_tol=1e-5):
        problems.append(f"grade {user}: earned {result.get('earned')}, "
                        f"planned {earned:g}")
    if float(result.get("maximum", "nan")) != expect["suite_max"]:
        problems.append(f"grade {user}: maximum {result.get('maximum')}")
    if result.get("up_to_date") != str(up_to_date).lower():
        problems.append(f"grade {user}: up_to_date {result.get('up_to_date')}")
    return problems


def _repo(state: dict, name: str) -> dict | None:
    return next((r for r in state["repos"] if r["name"] == name), None)


def check_publishes(expect: dict, state: dict, results: list) -> list[str]:
    """The template gained one commit per publish, each holding exactly the
    expected stripped tree and no teacher-only path."""
    problems = []
    template = _repo(state, expect["template_repo"])
    if template is None:
        return ["publish: template repository missing"]
    commits = {c["id"]: c for c in template["commits"]}
    chain = []
    head = template["branches"].get(template["default_branch"])
    for _ in expect["publishes"]:
        if head not in commits:
            return ["publish: template history is shorter than planned"]
        chain.append(commits[head])
        head = (commits[head]["parents"] or [None])[0]
    chain.reverse()
    if head != expect["template_head"]:
        problems.append("publish: the run's template commits do not sit on "
                        "the set-up template head")
    for i, (plan, commit, result) in enumerate(
            zip(expect["publishes"], chain, results), start=1):
        if result is None or result.get("status") != "published":
            problems.append(f"publish {i}: status "
                            f"{result and result.get('status')}")
        elif result.get("commit") != commit["id"]:
            problems.append(f"publish {i}: RESULT commit is not the "
                            f"template commit")
        files = {f["path"]: f.get("text") for f in commit["files"]}
        if files != plan["template"]:
            diff = sorted(set(files) ^ set(plan["template"])) or sorted(
                p for p in files if files[p] != plan["template"].get(p))
            problems.append(f"publish {i}: template tree differs at "
                            f"{diff[:3]}")
        leaked = sorted(set(files) & set(plan["teacher_only"]))
        if leaked:
            problems.append(f"publish {i}: teacher-only paths {leaked[:3]}")
    return problems


def roster_members(entries: list) -> list[tuple[str, str]]:
    """(username, repository owner name) for every student in a roster."""
    return [(m, name) for name, members in entries
            for m in (members or [name])]


def check_enrollment(expect: dict, state: dict, ledger_lines: list[str],
                     results: list) -> list[str]:
    """One repository per student or group, every student a collaborator,
    each new repository's enrollment commit on the set-up template head
    (rosters are enrolled before the round's publishes), and each username
    once in the ledger."""
    problems = []
    prefix = expect["template_repo"].rsplit("-", 1)[0] + "-"
    for roster, result in zip(expect["rosters"], results):
        want = len(roster_members(roster["entries"]))
        if result is None or int(result.get("count", -1)) != want:
            problems.append(f"enroll {roster['file']}: count "
                            f"{result and result.get('count')}, planned {want}")
    records = [json.loads(line) for line in ledger_lines[1:] if line.strip()]
    names = Counter(r["username"] for r in records)
    twice = sorted(u for u, k in names.items() if k > 1)
    if twice:
        problems.append(f"enroll: usernames recorded twice: {twice[:3]}")
    repo_of = {r["username"]: r["repo_name"] for r in records}
    members = roster_members(expect["rosters"][-1]["entries"])
    for user, owner in members:
        if repo_of.get(user) != prefix + owner:
            problems.append(f"enroll {user}: ledger repo {repo_of.get(user)}")
    owners = sorted({owner for _, owner in members})
    repos = {r["name"]: r for r in state["repos"]}
    for owner in owners:
        repo = repos.get(prefix + owner)
        if repo is None:
            problems.append(f"enroll: no repository {prefix + owner}")
            continue
        head = repo["branches"].get(repo["default_branch"])
        commit = next((c for c in repo["commits"] if c["id"] == head), None)
        if commit is None or commit["parents"] != [expect["template_head"]]:
            problems.append(f"enroll: {repo['name']} enrollment commit is "
                            f"not on the template head")
    for user, owner in members:
        repo = repos.get(prefix + owner)
        if repo is not None and user not in repo["collaborators"]:
            problems.append(f"enroll: {user} is not a collaborator of "
                            f"{repo['name']}")
    return problems


def _day(ts: int) -> str:
    return datetime.fromtimestamp(ts, timezone.utc).date().isoformat()


def window_days(expect: dict) -> list[str]:
    start, end = (datetime.fromtimestamp(t, timezone.utc).date()
                  for t in expect["window"])
    return [(start + timedelta(days=i)).isoformat()
            for i in range((end - start).days + 1)]


def expected_activity(expect: dict, graded_users: list,
                      enrolled: int) -> list[dict]:
    """Per-day averages over every student repository, from the planted
    timeline: set-up repositories hold the commits the generator pushed;
    once ``enrolled`` cumulative roster batches are in, each repository of
    the last of them holds the template history (the run's own commits
    carry today's clock, outside the window)."""
    days = window_days(expect)
    totals = dict.fromkeys(days, 0)
    merges = dict.fromkeys(days, 0)
    graded = dict.fromkeys(days, 0)
    graded_ids = {r["commit_id"] for r in expect["earlier_grades"]}
    graded_ids |= {expect["students"][u]["head"] for u in graded_users}
    new_repos = len({owner for _, owner in roster_members(
        expect["rosters"][enrolled - 1]["entries"])}) if enrolled else 0
    held = list(expect["repo_commits"].values())
    held += [[cid for cid, _ in expect["template_commits"]]] * new_repos
    for ids in held:
        for cid in ids:
            ts, parents = expect["commits"][cid]
            day = _day(ts)
            if day not in totals:
                continue
            if parents >= 2:
                merges[day] += 1
            else:
                totals[day] += 1
            if cid in graded_ids:
                graded[day] += 1
    n = len(held)
    return [{"day": d, "commits_total": totals[d] / n,
             "commits_graded": graded[d] / n,
             "merges_excluded": merges[d] / n} for d in days]


def expected_progress(expect: dict, graded_users: list) -> dict:
    """Earned -> students, from each student's newest authoritative grade."""
    current = {r["username"]: r["earned"] for r in expect["earlier_grades"]
               if r["authoritative"]}
    for user in graded_users:
        earned, up_to_date = expected_grade(expect, user)
        if up_to_date:
            current[user] = earned
    return dict(Counter(f"{e:g}" for e in current.values()))


def check_stats(expect: dict, graded_users: list, enrolled: int,
                result: dict | None, doc: dict) -> list[str]:
    """Daily averages and the grade distribution, given the submissions
    graded and the roster batches enrolled so far."""
    if result is None:
        return ["stats: no RESULT ok line"]
    problems = []
    want = expected_activity(expect, graded_users, enrolled)
    got = doc.get("activity", [])
    if len(got) != len(want) or int(result.get("days", -1)) != len(want):
        return [f"stats: {len(got)} days, planned {len(want)}"]
    for g, w in zip(got, want):
        for key in ("commits_total", "commits_graded", "merges_excluded"):
            if g["day"] != w["day"] or not math.isclose(
                    g[key], w[key], rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"stats {w['day']} {key}: {g[key]}, "
                                f"planned {w[key]}")
                break
    progress = doc.get("grade_progress", {}).get("t1", {})
    if progress != expected_progress(expect, graded_users):
        problems.append("stats: grade distribution differs from the plan")
    return problems[:5]


def expected_exports(expect: dict, graded_users: list) -> dict:
    """Username -> {path: text} of the newest archived submission: the
    head graded this run while up to date, else the earlier archive with
    the highest (archived_at, commit id), as docs/formats.md ranks them."""
    archived = sorted((r for r in expect["earlier_grades"]
                       if r["authoritative"]),
                      key=lambda r: (r["graded_at"], r["commit_id"]))
    out = {r["username"]: r["archived"] for r in archived}
    for user in graded_users:
        if expected_grade(expect, user)[1]:
            out[user] = expect["students"][user]["archived"]
    return out


def check_export(expect: dict, graded_users: list, result: dict | None,
                 dest: Path) -> list[str]:
    if result is None:
        return ["archive-export: no RESULT ok line"]
    want = expected_exports(expect, graded_users)
    got: dict = {}
    if dest.is_dir():
        for user_dir in dest.iterdir():
            got[user_dir.name] = {
                p.relative_to(user_dir).as_posix(): p.read_text()
                for p in user_dir.rglob("*") if p.is_file()}
    problems = []
    if int(result.get("students", -1)) != len(want):
        problems.append(f"archive-export: {result.get('students')} students, "
                        f"planned {len(want)}")
    wrong = sorted(u for u in set(want) | set(got) if want.get(u) != got.get(u))
    if wrong:
        problems.append(f"archive-export: exports differ for {wrong[:3]}")
    return problems
