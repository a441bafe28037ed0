"""Course-term benchmark for the courseforge CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real CLI as one closed-loop client: each command starts only
after the previous one has returned. A round builds the workload's starting
course from the seed (several times, to time set-up), then runs ``grade``
for each planned submission with the round's ``enroll --roster`` batches,
``stats`` and ``archive-export`` calls between them, then
``publish --teacher-dir`` for each solution update, and one more ``stats``
and ``archive-export`` (see ``round_plan``). Grading comes before publishing
because a new template head makes every student stale until they merge it,
and merging is student work, not a CLI command. Rounds repeat until the
run is within half a round of S seconds; every round is the same work.

Every command is timed from outside (wall time, and peak RSS from
``wait4``) and every output is checked against the generator's
expectations. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics, end to end with ``--trace 0``
or per layer with ``--trace 1`` (spans from ``tracer.py`` plus probes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Each round builds its course at least SETUP_BUILDS times and until
# SETUP_SECONDS have passed; setup_s is the median over the whole run, so
# its samples are spread over the run like every command's.
SETUP_BUILDS = 2
SETUP_SECONDS = 0.5
# archive-export calls per round: one between the grades, one at the end
EXPORTS = 2


class Cli:
    """Runs one CLI command at a time and keeps its timings and outcomes."""

    def __init__(self, env: dict, trace_dir: Path | None):
        self.course_dir: Path | None = None  # set by each round
        self.env = env
        self.trace_dir = trace_dir
        self.samples: dict = {}
        self.peak_kib = 0
        self.attempted = 0
        self.failed = 0
        self.traced: list = []  # (command, roster students, wall, spans)

    def __call__(self, command: str, *args: str, students: int = 0):
        argv = [command, "--config", "course.yaml", *args]
        if self.trace_dir is not None:
            spans = self.trace_dir / f"spans-{self.attempted}.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "courseforge.cli", *argv]
        out_path = self.course_dir / "cli.out"
        err_path = self.course_dir / "cli.err"
        self.attempted += 1
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.course_dir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.samples.setdefault(command, []).append(wall)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        result = oracles.parse_result(stdout) if proc.returncode == 0 \
            else None
        if result is None:
            self.failed += 1
            tail = err_path.read_text(errors="replace").strip()[-400:]
            print(f"failed: {' '.join(argv)} (exit {proc.returncode}) {tail}",
                  file=sys.stderr)
        if self.trace_dir is not None and spans.exists():
            self.traced.append((command, students, wall,
                                json.loads(spans.read_text())))
            spans.unlink()
        return result


def round_plan(w, graded: list) -> list[tuple[str, object]]:
    """The commands of one round, in order.

    Grades come first, each followed by its share of the roster batches
    and of the read-only commands (stats, archive-export), so every
    command's samples are spread over the round rather than bunched where
    the machine may be busy. Then the publishes, and one more stats and
    export that see every enrolled repository.
    """
    between = [c for group in zip_longest(
        [("enroll", b) for b in range(w.roster_batches)],
        [("stats", None)] * (w.stats_calls - 1),
        [("archive-export", None)] * (EXPORTS - 1)) for c in group if c]
    plan: list = []
    for i, user in enumerate(graded):
        plan.append(("grade", user))
        plan += between[i * len(between) // len(graded):
                        (i + 1) * len(between) // len(graded)]
    plan += [("publish", p) for p in range(course.PUBLISHES)]
    return plan + [("stats", None), ("archive-export", None)]


def run_round(cli: Cli, expect: dict, course_dir: Path, w) -> list[str]:
    """One round of the course's commands on a freshly built course;
    returns oracle mismatches."""
    cli.course_dir = course_dir
    state = course_dir / "state"
    problems: list[str] = []
    days = oracles.window_days(expect)
    graded: list = []
    published: list = []
    enrolled: list = []
    for command, arg in round_plan(w, expect["graded"]):
        if command == "grade":
            result = cli("grade", "--user", arg, "--task", course.TASK)
            problems += oracles.check_grade(expect, arg, result)
            graded.append(arg)
        elif command == "publish":
            published.append(cli("publish", "--teacher-dir",
                                 expect["publishes"][arg]["dir"]))
        elif command == "enroll":
            roster = expect["rosters"][arg]
            enrolled.append(cli(
                "enroll", "--roster", roster["file"],
                students=len(oracles.roster_members(roster["entries"]))))
        elif command == "stats":
            result = cli("stats", "--from", days[0], "--to", days[-1],
                         "--json", "stats.json")
            doc = json.loads((course_dir / "stats.json").read_text()) \
                if result else {}
            problems += oracles.check_stats(expect, graded, len(enrolled),
                                            result, doc)
        else:
            dest = course_dir / "export"
            shutil.rmtree(dest, ignore_errors=True)
            result = cli("archive-export", "--task", course.TASK,
                         "--dest", "export")
            problems += oracles.check_export(expect, graded, result, dest)
    saved = json.loads((state / oracles.STATE_FILE).read_text())
    ledger = (state / oracles.ENROLLMENT_LEDGER).read_text().splitlines()
    return (problems + oracles.check_publishes(expect, saved, published)
            + oracles.check_enrollment(expect, saved, ledger, enrolled))


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def build_course(w, seed: int, work: Path, setup_times: list) -> tuple:
    """Build the starting course SETUP_BUILDS times and until SETUP_SECONDS
    have passed, timing each build; keep the last one and return its
    directory and expectations."""
    course_dir, spent, builds = None, 0.0, 0
    while builds < SETUP_BUILDS or spent < SETUP_SECONDS:
        if course_dir is not None:
            shutil.rmtree(course_dir)
        course_dir = work / f"course-{len(setup_times)}"
        start = time.perf_counter()
        expect = course.build(w, seed, course_dir)
        took = time.perf_counter() - start
        setup_times.append(took)
        spent += took
        builds += 1
    return course_dir, expect


def run(w, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run whole rounds for ``seconds``, check, and report.

    Each round builds its course afresh (timed as set-up) and then runs
    the round's commands on it. Rounds repeat until the run is within half
    a round of ``seconds``; there is at least one.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work / "tmp"))
    (work / "tmp").mkdir()
    trace_dir = work / "spans" if trace else None
    if trace_dir is not None:
        trace_dir.mkdir()
    cli = Cli(env, trace_dir)
    setup_times: list[float] = []
    problems: list[str] = []
    course_dir = first = None
    rounds = 0
    start = time.perf_counter()
    while True:
        if course_dir is not None:
            shutil.rmtree(course_dir)
        course_dir, expect = build_course(w, seed, work, setup_times)
        first = first or expect
        if expect != first:
            problems.append("set-up: the same seed built another course")
        problems += run_round(cli, expect, course_dir, w)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    for message in dict.fromkeys(problems):
        print(f"mismatch: {message}", file=sys.stderr)

    s = cli.samples
    roster_students = sum(len(oracles.roster_members(r["entries"]))
                          for r in expect["rosters"]) * rounds
    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "publish_s": (statistics.median(s["publish"]), "s"),
        "enroll_students_per_s": (roster_students / sum(s["enroll"]), "1/s"),
        "grade_s_p50": (statistics.median(s["grade"]), "s"),
        "stats_s": (statistics.median(s["stats"]), "s"),
        "rss_peak_mb": (cli.peak_kib / 1024, "MB"),
        "state_mb": (_tree_bytes(course_dir / "state") / 2**20, "MB"),
    }
    counts = {k: len(v) for k, v in s.items()}
    counts["setup"] = len(setup_times)
    print(f"workload={w.name} seed={seed} rounds={rounds} calls={counts} "
          + " ".join(f"{k}={v:.4g}" for k, (v, _) in end_to_end.items()),
          file=sys.stderr)
    if trace:
        per_layer, reference = layers.span_metrics(cli.traced)
        per_layer.update(layers.probe_import(env))
        per_layer.update(layers.probe_state(
            course_dir / "state" / oracles.STATE_FILE,
            course_dir / "state" / oracles.ENROLLMENT_LEDGER, work / "tmp"))
        print("reference: " + " ".join(
            f"{k}={v:.4g}" for k, v in reference.items()), file=sys.stderr)
        metrics = {k: {"value": v, "unit": layers.UNITS.get(k, "s")}
                   for k, v in sorted(per_layer.items())}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in end_to_end.items()}
    return {"correct": not problems, "attempted": cli.attempted,
            "failed": cli.failed, "metrics": metrics}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(course.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # build: byte-compile the sources once, so no timed command pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(course.WORKLOADS[args.workload], args.seed,
                     args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


sys.path[:0] = [str(HERE), str(SRC)]
try:
    import course
    import layers
    import oracles
except ModuleNotFoundError as exc:
    if __name__ != "__main__":
        raise
    # a directory without the program's sources beside the benchmark
    print(f"cannot import courseforge from {SRC}: {exc}", file=sys.stderr)
    raise SystemExit(2)

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
