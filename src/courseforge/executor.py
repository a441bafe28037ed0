"""Test execution contract and the local subprocess executor.

The grading pipeline never runs student code in-process. An Executor
compiles a materialized project directory and runs one named test per call,
from several threads at once, reporting a raw outcome with durations and
captured output. The local executor sets each test's CPU budget with
``prlimit`` right after the spawn (CPU time is cumulative, so none goes
uncounted). It also sets the core-file limit of every compile and test
process to zero, hard limit included, so an unprivileged test cannot
raise it and leave a core file in the project directory. The calling
thread then runs the test in one loop that waits on its output pipe and
its pidfd (Linux 5.3+) at once: it keeps a bounded tail of the output,
and at the wall-clock budget it kills the whole process group. Once the
test process has exited, the rest of its group is killed as well, so no
process it started outlives the run. A process that leaves the group
(``setsid``) is not tracked, but cannot hold the run open. ``_run_limited``
decides each run's status, in the order ``docs/formats.md`` states, and
passes on only the ``_PASSED_ENV`` variables, so no grader secret leaks.

Stronger isolation (network cut-off, filesystem jails, containers) is an
adapter concern: implement this module's Executor protocol on top of the
sandbox of your choice and hand it to the grading pipeline unchanged.
"""

from __future__ import annotations

import math
import os
import resource
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Protocol, Sequence


class ExecutorError(Exception):
    """Raised when the executor itself cannot run (bad command, OS failure)."""


class TestStatus(Enum):
    PASS = "pass"
    FAIL = "fail"
    CPU_TIMEOUT = "cpu_timeout"
    WALL_TIMEOUT = "wall_timeout"
    FORBIDDEN = "forbidden"
    SKIPPED = "skipped"
    ERROR = "error"


@dataclass(frozen=True)
class RawResult:
    """Outcome of one test-process run, before grading semantics apply."""

    status: TestStatus  # PASS, FAIL, CPU_TIMEOUT or WALL_TIMEOUT
    exit_code: int | None
    term_signal: int | None
    cpu_seconds: float
    wall_seconds: float
    output: str


class Executor(Protocol):
    def compile(self, workdir: Path) -> tuple[bool, str]:
        """Build the project; returns (ok, compiler message)."""
        ...

    def run_test(self, workdir: Path, test_id: str, cpu_timeout: float | None,
                 wall_timeout: float | None, *,
                 started: Callable[[], None] | None = None) -> RawResult:
        """Run one test; call ``started`` once its process exists."""


_OUTPUT_CAP = 10_000  # characters of captured output kept per run
# Output bytes kept while draining. A character is at most 4 bytes, so past
# the rest of one cut at its start, the tail decodes to at least the whole
# output's last _OUTPUT_CAP + 1 characters: _truncate gives the same text.
_TAIL_BYTES = 4 * (_OUTPUT_CAP + 1)
_SAFETY_WALL_CAP = 300.0  # seconds; bounds runs that configure no wall limit
# Read once the test is reaped: at least what a pipe holds unprivileged.
_LATE_BYTES = 1 << 20
_PASSED_ENV = ("PATH", "HOME", "TMPDIR", "LANG")


def _truncate(text: str) -> str:
    if len(text) <= _OUTPUT_CAP:
        return text
    return "... (output truncated) ...\n" + text[-_OUTPUT_CAP:]


def _run_limited(cmd: Sequence[str], cwd: Path, cpu_limit: float | None,
                 wall_limit: float | None,
                 started: Callable[[], None] | None = None) -> RawResult:
    """Run ``cmd`` and decide its status: WALL_TIMEOUT if the wall limit
    killed it, else CPU_TIMEOUT on SIGXCPU or ``ceil(cpu_limit)`` seconds of
    CPU, else FAIL if the safety cap (the limit when ``wall_limit`` is None)
    killed it, else PASS or FAIL by exit status. A cap kill is noted in the
    output."""
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            list(cmd), cwd=str(cwd), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, bufsize=0,
            start_new_session=True, env={
                k: os.environ[k] for k in _PASSED_ENV if k in os.environ})
    except OSError as exc:
        raise ExecutorError(f"cannot launch {cmd[0]!r}: {exc}") from exc

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    tail = bytearray()
    watched: list = [proc.stdout]

    def take() -> int:
        """Read once from the pipe into the tail; stop watching it at EOF."""
        chunk = proc.stdout.read(1 << 16)  # unbuffered: one read(2)
        if not chunk:  # the test may still run
            watched.remove(proc.stdout)
        tail.extend(chunk)
        del tail[:-_TAIL_BYTES]
        return len(chunk)

    exited = -1  # a pidfd: readable once the test has exited
    try:
        try:  # an exited but unreaped test still takes both
            exited = os.pidfd_open(proc.pid)
            resource.prlimit(proc.pid, resource.RLIMIT_CORE, (0, 0))
            if cpu_limit is not None:
                soft = max(1, math.ceil(cpu_limit))
                resource.prlimit(proc.pid, resource.RLIMIT_CPU,
                                 (soft, soft + 1))
        except OSError as exc:  # such as EPERM after a set-user-ID exec
            with proc:  # closes the pipe and reaps the killed test
                kill_group()
            raise ExecutorError(f"cannot limit {cmd[0]!r}: {exc}") from exc
        if started is not None:
            started()

        watched.append(exited)
        deadline, fired = start + (wall_limit or _SAFETY_WALL_CAP), False
        while True:
            left = deadline - time.monotonic()
            if left <= 0:  # kill at the wall limit, then wait for the exit
                deadline, fired, left = math.inf, True, _SAFETY_WALL_CAP
                kill_group()
            # bounded: select cannot take a timeout as long as 1e12 s
            ready = select.select(watched, [], [],
                                  min(left, _SAFETY_WALL_CAP))[0]
            if exited in ready:
                break
            if ready:
                take()
        _, wstatus, rusage = os.wait4(proc.pid, 0)
    finally:
        if exited >= 0:
            os.close(exited)
    wall = time.monotonic() - start
    # The group outlives its reaped leader while it has members, so its id
    # is not reused yet: kill what the test left behind. Its output is then
    # all in the pipe; take that, not waiting for EOF from a process that
    # left the group and may hold the pipe open.
    kill_group()
    late = 0
    while late < _LATE_BYTES and proc.stdout in watched \
            and select.select([proc.stdout], [], [], 0)[0]:
        late += take()
    proc.stdout.close()

    exit_code: int | None = None
    term_signal: int | None = None
    if os.WIFSIGNALED(wstatus):
        term_signal = os.WTERMSIG(wstatus)
    elif os.WIFEXITED(wstatus):
        exit_code = os.WEXITSTATUS(wstatus)
    # the child is already reaped via wait4; keep Popen from waiting again
    proc.returncode = exit_code if exit_code is not None else -(term_signal or 1)
    cpu = rusage.ru_utime + rusage.ru_stime
    output = _truncate(tail.decode("utf-8", errors="replace"))
    if fired and wall_limit:
        status = TestStatus.WALL_TIMEOUT
    elif cpu_limit is not None and (term_signal == signal.SIGXCPU
                                    or cpu >= math.ceil(cpu_limit)):
        status = TestStatus.CPU_TIMEOUT
    else:
        status = TestStatus.PASS if exit_code == 0 and not fired \
            else TestStatus.FAIL
    if fired and not wall_limit:
        output = (output + f"\n[killed: exceeded the {_SAFETY_WALL_CAP:.0f}s "
                           f"safety cap]").strip()
    return RawResult(status, exit_code, term_signal, cpu, wall, output)


def references_test_id(test_command: Sequence[str]) -> bool:
    """Whether some argument of a test command holds ``{test_id}``."""
    return any("{test_id}" in arg for arg in test_command)


class LocalProcessExecutor:
    """Runs compile and test commands as subprocesses of this machine.

    ``test_command`` must contain the literal placeholder ``{test_id}``,
    substituted per run. Both commands execute with the project directory as
    working directory; exit status zero means success.
    """

    def __init__(self, compile_command: Sequence[str] | None,
                 test_command: Sequence[str] | None):
        if test_command is not None and not references_test_id(test_command):
            raise ExecutorError("test_command must reference {test_id}")
        self.compile_command = tuple(compile_command) if compile_command else None
        self.test_command = tuple(test_command) if test_command else None

    def compile(self, workdir: Path) -> tuple[bool, str]:
        if self.compile_command is None:
            return True, ""
        run = _run_limited(self.compile_command, Path(workdir), None, None)
        return run.status is TestStatus.PASS, run.output

    def run_test(self, workdir: Path, test_id: str, cpu_timeout: float | None,
                 wall_timeout: float | None, *,
                 started: Callable[[], None] | None = None) -> RawResult:
        if self.test_command is None:
            raise ExecutorError("no test_command configured for this course")
        cmd = [arg.replace("{test_id}", test_id) for arg in self.test_command]
        return _run_limited(cmd, Path(workdir), cpu_timeout, wall_timeout,
                            started)
