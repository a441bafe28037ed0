"""Run the courseforge CLI with spans around the public calls of each module.

Usage: python3 perfbench/tracer.py SPANS_FILE CLI_ARGS...

Before calling ``courseforge.cli.dispatch``, the launcher replaces each
function named in ``WRAPPED`` (and every module's imported reference to
it) with a wrapper that records a span: name, start, end, the index of the
enclosing span, and an optional note (a count or a repository name). Spans
stay in memory and are written to SPANS_FILE as one JSON list when the
command returns. A name the program no longer defines is skipped, so its
per-layer metric is reported absent rather than failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

WRAPPED = {
    "cli": ["dispatch"],
    "config": ["load_config"],
    "repomodel": ["InMemoryHosting.load_state", "InMemoryHosting.save_state",
                  "InMemoryHosting.fetch", "InMemoryHosting.list_repos",
                  "is_ancestor", "snapshot_to_dir", "snapshot_from_dir"],
    "stripper": ["strip_snapshot"],
    "publisher": ["publish_template"],
    "enrollment": ["enroll", "enroll_group", "EnrollmentLedger.find",
                   "EnrollmentLedger.records"],
    "grader": ["grade_task", "assemble_grading_project", "scan_forbidden",
               "archive_submission", "run_graded_tests",
               "GradeLedger.records", "export_archives"],
    "executor": ["LocalProcessExecutor.compile",
                 "LocalProcessExecutor.run_test"],
    "analytics": ["commit_activity", "grade_progress"],
}


def _lines(snapshot) -> int:
    return sum(data.count(b"\n") for _, data in snapshot.items())


# Span notes, computed before the clock starts: the source lines a strip
# handles, the members an enroll_group call enrolls, the repository fetched,
# the forbidden prefixes a scan looks for.
NOTES = {
    "stripper.strip_snapshot": lambda args, kw: _lines(args[0]),
    "enrollment.enroll_group": lambda args, kw: len(args[2]),
    "repomodel.InMemoryHosting.fetch": lambda args, kw: args[1],
    "grader.scan_forbidden": lambda args, kw: len(args[1].forbidden),
}


class Recorder:
    """Collects spans as [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, func):
        note_of = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            try:
                note = note_of(args, kwargs) if note_of else None
            except (IndexError, AttributeError, TypeError):
                note = None  # the call's signature changed; no note
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, note]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every listed name that exists."""
    import courseforge.cli  # noqa: F401  (loads every module the CLI uses)

    loaded = [m for n, m in sys.modules.items()
              if n.startswith("courseforge") and m is not None]
    for short, names in WRAPPED.items():
        mod = sys.modules.get(f"courseforge.{short}")
        for dotted in names if mod is not None else ():
            owner_name, _, attr = dotted.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            label = f"{short}.{dotted}"
            if isinstance(raw, staticmethod):
                setattr(owner, attr,
                        staticmethod(recorder.wrap(label, raw.__func__)))
            elif owner_name:
                setattr(owner, attr, recorder.wrap(label, raw))
            else:
                wrapped = recorder.wrap(label, raw)
                for m in loaded:  # `from x import f` copies the reference
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)


def main(argv: list[str]) -> int:
    spans_file, cli_args = Path(argv[0]), argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = sys.modules["courseforge.cli"]
    try:
        return cli.dispatch(cli_args)
    finally:
        spans_file.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
