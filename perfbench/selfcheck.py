"""Quick self-check of the benchmark: tiny workloads, every oracle exercised.

Usage: python3 perfbench/selfcheck.py

Runs one round of every workload at a tiny size, untraced and traced, and
requires a correct result with no failed operation and, from the traced
run, every per-layer metric BENCHMARK.json names. Then it hands each
oracle a deliberately wrong output and requires the oracle to object.
It takes under a minute and is not part of the test suite.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import run

course, oracles = run.course, run.oracles


def check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_runs(work: Path, failures: list) -> None:
    per_layer = [m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for name, workload in course.WORKLOADS.items():
        for trace in (False, True):
            target = work / f"{name}-{int(trace)}"
            target.mkdir(parents=True)
            result = run.run(course.tiny(workload), 7, 0, trace, target)
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: correct, "
                  f"{result['attempted']} operations, none failed", failures)
            if trace:
                missing = sorted(set(per_layer) - set(result["metrics"]))
                check(not missing, f"{name}: every per-layer metric "
                      f"(missing {missing})", failures)


def oracles_object(work: Path, failures: list) -> None:
    """Each oracle rejects an output that differs from the plan."""
    w = course.tiny(course.WORKLOADS["lab-grading"])
    course_dir = work / "course"
    expect = course.build(w, 7, course_dir)
    env = dict(os.environ, PYTHONPATH=str(run.SRC), TMPDIR=str(work))
    cli = run.Cli(env, None)
    check(not run.run_round(cli, expect, course_dir, w),
          "a real round passes every oracle", failures)

    user = expect["graded"][0]
    earned, up_to_date = oracles.expected_grade(expect, user)
    wrong = {"earned": f"{earned + 1:g}", "maximum": str(expect["suite_max"]),
             "up_to_date": str(up_to_date).lower()}
    check(bool(oracles.check_grade(expect, user, wrong)),
          "grade oracle rejects a wrong earned", failures)

    state = course_dir / "state"
    saved = json.loads((state / oracles.STATE_FILE).read_text())
    template = next(r for r in saved["repos"]
                    if r["name"] == expect["template_repo"])
    commits = {c["id"]: c for c in template["commits"]}
    chain = [template["branches"][template["default_branch"]]]
    while len(chain) < len(expect["publishes"]):
        chain.append(commits[chain[-1]]["parents"][0])
    results = [{"status": "published", "commit": c} for c in reversed(chain)]
    check(not oracles.check_publishes(expect, saved, results),
          "publish oracle accepts the real template commits", failures)
    commits[chain[0]]["files"][0]["text"] += "# leaked solution\n"
    check(bool(oracles.check_publishes(expect, saved, results)),
          "publish oracle rejects a changed template file", failures)

    ledger = (state / oracles.ENROLLMENT_LEDGER).read_text().splitlines()
    saved = json.loads((state / oracles.STATE_FILE).read_text())
    counts = [{"count": str(len(oracles.roster_members(r["entries"])))}
              for r in expect["rosters"]]
    check(bool(oracles.check_enrollment(expect, saved,
                                        ledger + ledger[-1:], counts)),
          "enroll oracle rejects a username recorded twice", failures)

    days = oracles.window_days(expect)
    result = cli("stats", "--from", days[0], "--to", days[-1],
                 "--json", "stats.json")
    doc = json.loads((course_dir / "stats.json").read_text())
    doc["activity"][0]["commits_total"] += 1
    check(bool(oracles.check_stats(expect, expect["graded"],
                                   len(expect["rosters"]), result, doc)),
          "stats oracle rejects a changed daily average", failures)

    result = cli("archive-export", "--task", course.TASK, "--dest", "export")
    exported = sorted((course_dir / "export").iterdir())
    shutil.rmtree(exported[0])
    check(bool(oracles.check_export(expect, expect["graded"], result,
                                    course_dir / "export")),
          "archive-export oracle rejects a missing export", failures)


def main() -> int:
    work = run.ROOT / ".perfbench" / f"selfcheck-{os.getpid()}"
    failures: list = []
    try:
        tiny_runs(work / "runs", failures)
        oracles_object(work / "oracles", failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
