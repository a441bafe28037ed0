"""Local subprocess executor: limits, classification, output capture."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from courseforge.executor import (
    ExecutorError,
    LocalProcessExecutor,
    TestStatus,
)

PYTHON = sys.executable


def write_script(workdir, name: str, body: str) -> None:
    path = workdir / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body, encoding="utf-8")


def script_executor() -> LocalProcessExecutor:
    """Runs a named python file inside the project directory."""
    return LocalProcessExecutor(None, [PYTHON, "{test_id}"])


def test_test_command_must_mention_test_id_placeholder():
    with pytest.raises(ExecutorError, match="test_id"):
        LocalProcessExecutor(None, [PYTHON, "run_all.py"])


def test_run_test_without_configured_command_is_an_error(tmp_path):
    ex = LocalProcessExecutor([PYTHON, "-c", "pass"], None)
    with pytest.raises(ExecutorError, match="no test_command configured"):
        ex.run_test(tmp_path, "t", None, None)


def test_missing_binary_raises_executor_error(tmp_path):
    ex = LocalProcessExecutor(None, ["no-such-binary-anywhere", "{test_id}"])
    with pytest.raises(ExecutorError, match="cannot launch"):
        ex.run_test(tmp_path, "t", None, None)


def test_compile_with_no_command_succeeds_quietly(tmp_path):
    ok, message = LocalProcessExecutor(None, None).compile(tmp_path)
    assert ok and message == ""


def test_compile_success_on_valid_sources(tmp_path):
    write_script(tmp_path, "good.py", "x = 1\n")
    ex = LocalProcessExecutor([PYTHON, "-m", "compileall", "-q", "."], None)
    ok, _ = ex.compile(tmp_path)
    assert ok


def test_compile_failure_reports_compiler_message(tmp_path):
    write_script(tmp_path, "bad.py", "def broken(:\n")
    ex = LocalProcessExecutor([PYTHON, "-m", "py_compile", "bad.py"], None)
    ok, message = ex.compile(tmp_path)
    assert not ok
    assert "bad.py" in message and "SyntaxError" in message


def test_passing_test_reports_pass_with_output(tmp_path):
    write_script(tmp_path, "ok.py", "print('all good here')\n")
    result = script_executor().run_test(tmp_path, "ok.py", None, None)
    assert result.status is TestStatus.PASS
    assert result.exit_code == 0
    assert result.term_signal is None
    assert "all good here" in result.output
    assert result.wall_seconds > 0
    assert result.cpu_seconds >= 0


def test_failing_test_reports_fail_with_exit_code(tmp_path):
    write_script(tmp_path, "no.py",
                 "import sys\nprint('assertion went wrong')\nsys.exit(3)\n")
    result = script_executor().run_test(tmp_path, "no.py", None, None)
    assert result.status is TestStatus.FAIL
    assert result.exit_code == 3
    assert "assertion went wrong" in result.output


def test_commands_run_inside_the_project_directory(tmp_path):
    write_script(tmp_path, "where.py", "import os\nprint(os.getcwd())\n")
    result = script_executor().run_test(tmp_path, "where.py", None, None)
    assert os.path.realpath(result.output.strip()) == os.path.realpath(tmp_path)


def test_placeholder_substitution_reaches_embedded_arguments(tmp_path):
    write_script(tmp_path, "t42.py", "print('marker-t42')\n")
    ex = LocalProcessExecutor(None, [PYTHON, "-c",
                                     "import runpy; runpy.run_path('{test_id}.py')"])
    result = ex.run_test(tmp_path, "t42", None, None)
    assert result.status is TestStatus.PASS
    assert "marker-t42" in result.output


def test_cpu_spin_is_classified_as_cpu_timeout(tmp_path):
    write_script(tmp_path, "spin.py", "while True:\n    pass\n")
    start = time.monotonic()
    result = script_executor().run_test(tmp_path, "spin.py", 1.0, None)
    elapsed = time.monotonic() - start
    assert result.status is TestStatus.CPU_TIMEOUT
    assert result.cpu_seconds <= 3.0  # within 3x of the configured budget
    assert elapsed < 30


def test_cpu_spin_in_spawned_thread_is_still_caught(tmp_path):
    write_script(tmp_path, "threaded.py",
                 "import threading\n"
                 "def burn():\n"
                 "    while True:\n"
                 "        pass\n"
                 "t = threading.Thread(target=burn)\n"
                 "t.start()\n"
                 "t.join()\n")
    result = script_executor().run_test(tmp_path, "threaded.py", 1.0, None)
    assert result.status is TestStatus.CPU_TIMEOUT
    assert result.cpu_seconds <= 3.0


def test_sleep_is_classified_as_wall_timeout(tmp_path):
    write_script(tmp_path, "nap.py", "import time\ntime.sleep(60)\n")
    start = time.monotonic()
    result = script_executor().run_test(tmp_path, "nap.py", None, 1.0)
    elapsed = time.monotonic() - start
    assert result.status is TestStatus.WALL_TIMEOUT
    assert elapsed <= 3.0  # within 3x of the configured budget
    assert result.term_signal == signal.SIGKILL
    assert result.exit_code is None


def test_sleep_under_generous_wall_budget_passes(tmp_path):
    write_script(tmp_path, "brief.py", "import time\ntime.sleep(0.1)\n")
    result = script_executor().run_test(tmp_path, "brief.py", None, 30.0)
    assert result.status is TestStatus.PASS


def test_a_wall_limit_too_long_to_wait_for_at_once_still_passes(tmp_path):
    write_script(tmp_path, "brief.py", "import time\ntime.sleep(0.1)\n")
    result = script_executor().run_test(tmp_path, "brief.py", None, 1e12)
    assert result.status is TestStatus.PASS


def test_closed_output_does_not_end_the_wall_limit(tmp_path):
    write_script(tmp_path, "mute.py",
                 "import os, time\nos.close(1)\nos.close(2)\ntime.sleep(60)\n")
    start = time.monotonic()
    result = script_executor().run_test(tmp_path, "mute.py", None, 1.0)
    assert result.status is TestStatus.WALL_TIMEOUT
    assert time.monotonic() - start < 1.0 + 1.0


def test_run_test_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError(f"run_test started a thread: {self!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    write_script(tmp_path, "ok.py", "print('fine')\n")
    write_script(tmp_path, "chatty.py", "print('x' * 200000)\n")
    write_script(tmp_path, "nap.py", "import time\ntime.sleep(60)\n")
    ex = script_executor()
    assert ex.run_test(tmp_path, "ok.py", None, 5.0).status is TestStatus.PASS
    assert ex.run_test(tmp_path, "chatty.py", None, None).status \
        is TestStatus.PASS
    assert ex.run_test(tmp_path, "nap.py", None, 1.0).status \
        is TestStatus.WALL_TIMEOUT


def _spawner(child_seconds: int, detached: bool = False) -> str:
    """A test script that starts a sleeping child and prints its pid."""
    streams = (", stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL"
               if detached else "")
    return ("import subprocess, sys, time\n"
            "child = subprocess.Popen([sys.executable, '-c',"
            f" 'import time; time.sleep({child_seconds})']{streams})\n"
            "print(child.pid, flush=True)\n")


_FORK_SPINNER = ("import os\n"
                 "pid = os.fork()\n"
                 "if pid == 0:\n"
                 "    while True:\n"
                 "        pass\n"
                 "print(pid, flush=True)\n"
                 "while True:\n"
                 "    pass\n")


def test_watchdog_kills_the_whole_process_group(tmp_path):
    cases = [
        # the test outlives its wall limit
        (_spawner(600) + "time.sleep(600)\n", None, 1.0,
         TestStatus.WALL_TIMEOUT),
        # the test passes, leaving a child that holds its output pipe
        (_spawner(10), 5, 3.0, TestStatus.PASS),
        # the test passes, leaving a child detached from its output
        (_spawner(10, detached=True), 5, 3.0, TestStatus.PASS),
        # the test forks a CPU spinner first thing, then spins itself
        (_FORK_SPINNER, 1, 5.0, TestStatus.CPU_TIMEOUT),
    ]
    for body, cpu, wall, status in cases:
        write_script(tmp_path, "spawner.py", body)
        start = time.monotonic()
        result = script_executor().run_test(tmp_path, "spawner.py", cpu, wall)
        elapsed = time.monotonic() - start
        assert result.status is status
        child_pid = int(result.output.split()[0])
        for _ in range(50):
            try:
                os.kill(child_pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            os.kill(child_pid, signal.SIGKILL)
            pytest.fail("grandchild process survived the group kill")
        assert elapsed < wall + 1.0, "a leftover child held the run open"


def test_child_that_leaves_the_group_does_not_hold_the_run_open(tmp_path):
    write_script(tmp_path, "escape.py",
                 "import os, time\n"
                 "pid = os.fork()\n"
                 "if pid == 0:\n"
                 "    os.setsid()\n"
                 "    time.sleep(12)\n"
                 "    os._exit(0)\n"
                 "print(pid, flush=True)\n")
    start = time.monotonic()
    result = script_executor().run_test(tmp_path, "escape.py", 5, 3.0)
    elapsed = time.monotonic() - start
    os.kill(int(result.output.split()[0]), signal.SIGKILL)
    assert result.status is TestStatus.PASS
    assert elapsed < 3.0 + 1.0, "a child outside the group held the run open"


def test_started_is_called_once_the_test_process_exists(tmp_path):
    write_script(tmp_path, "ok.py", "print('ran')\n")
    calls = []
    result = script_executor().run_test(
        tmp_path, "ok.py", 5, None, started=lambda: calls.append("started"))
    assert calls == ["started"]
    assert result.status is TestStatus.PASS


def assert_refused_call_stops_the_test(tmp_path, monkeypatch, refused):
    write_script(tmp_path, "nap.py", "import time\ntime.sleep(60)\n")
    pids = []

    def refuse(pid, *args):
        pids.append(pid)
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(f"courseforge.executor.{refused}", refuse)
    start = time.monotonic()
    with pytest.raises(ExecutorError, match="cannot limit"):
        script_executor().run_test(tmp_path, "nap.py", 1.0, None)
    assert time.monotonic() - start < 5
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)


def test_a_cpu_limit_that_cannot_be_set_stops_the_test(tmp_path,
                                                       monkeypatch):
    assert_refused_call_stops_the_test(tmp_path, monkeypatch,
                                       "resource.prlimit")


def test_a_pidfd_that_cannot_be_opened_stops_the_test(tmp_path, monkeypatch):
    assert_refused_call_stops_the_test(tmp_path, monkeypatch,
                                       "os.pidfd_open")


def test_compile_and_test_processes_cannot_dump_core(tmp_path):
    """Both core-file limits are 0, so a test cannot raise its own."""
    check = [PYTHON, "-c", "import resource, sys; sys.exit(resource.getrlimit("
             "resource.RLIMIT_CORE) != (0, 0))"]
    ex = LocalProcessExecutor(check, check + ["{test_id}"])
    assert ex.compile(tmp_path) == (True, "")
    result = ex.run_test(tmp_path, "t", None, None)
    assert result.status is TestStatus.PASS


def test_compile_and_test_processes_get_only_the_documented_variables(
        tmp_path, monkeypatch):
    """PATH, HOME, TMPDIR and LANG pass when the grader has them; the
    hosting token and every other variable stay with the grader."""
    monkeypatch.setenv("COURSEFORGE_TOKEN", "s3cret-hosting-token")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setenv("LANG", "C.UTF-8")  # no locale coercion to add one
    write_script(tmp_path, "show_env.py",
                 "import json, os\nprint(json.dumps(dict(os.environ)))\n")
    show = [PYTHON, "show_env.py"]
    ex = LocalProcessExecutor(show, show + ["{test_id}"])
    wanted = {k: os.environ[k] for k in ("PATH", "HOME", "TMPDIR", "LANG")}
    ok, message = ex.compile(tmp_path)
    assert ok and json.loads(message) == wanted
    result = ex.run_test(tmp_path, "t", None, None)
    assert result.status is TestStatus.PASS
    assert json.loads(result.output) == wanted
    assert "s3cret" not in result.output
    monkeypatch.delenv("HOME")
    monkeypatch.delenv("TMPDIR")
    result = ex.run_test(tmp_path, "t", None, None)
    assert json.loads(result.output) == {"PATH": os.environ["PATH"],
                                         "LANG": "C.UTF-8"}


def test_long_output_keeps_only_the_tail(tmp_path):
    write_script(tmp_path, "chatty.py",
                 "print('x' * 200000)\nprint('THE-VERY-END')\n")
    result = script_executor().run_test(tmp_path, "chatty.py", None, None)
    assert result.status is TestStatus.PASS
    assert result.output.startswith("... (output truncated) ...\n")
    assert result.output.rstrip().endswith("THE-VERY-END")
    assert len(result.output) <= 10_000 + len("... (output truncated) ...\n")


def test_short_output_is_untouched(tmp_path):
    write_script(tmp_path, "short.py", "print('tiny')\n")
    result = script_executor().run_test(tmp_path, "short.py", None, None)
    assert result.output == "tiny\n"


def test_safety_cap_bounds_tests_with_no_wall_limit(tmp_path, monkeypatch):
    monkeypatch.setattr("courseforge.executor._SAFETY_WALL_CAP", 1.0)
    write_script(tmp_path, "runaway.py", "import time\ntime.sleep(600)\n")
    result = script_executor().run_test(tmp_path, "runaway.py", None, None)
    assert result.status is TestStatus.FAIL
    assert "[killed: exceeded the 1s safety cap]" in result.output


def test_safety_cap_bounds_the_compile_step(tmp_path, monkeypatch):
    monkeypatch.setattr("courseforge.executor._SAFETY_WALL_CAP", 1.0)
    ex = LocalProcessExecutor([PYTHON, "-c", "import time; time.sleep(600)"],
                              None)
    ok, message = ex.compile(tmp_path)
    assert not ok
    assert message == "[killed: exceeded the 1s safety cap]"


_SLEEPER = "import time\ntime.sleep(600)\n"
_SPINNER = "while True:\n    pass\n"
_XCPU_CATCHER = ("import os, signal\n"
                 "signal.signal(signal.SIGXCPU, lambda *_: os._exit(0))\n"
                 "while True:\n"
                 "    pass\n")


@pytest.mark.parametrize("body, cpu, wall, status, exit_code, note", [
    # the wall limit comes first, whatever the CPU limit
    (_SLEEPER, 1, 0.5, TestStatus.WALL_TIMEOUT, None, False),
    (_SPINNER, 1, 5, TestStatus.CPU_TIMEOUT, None, False),
    # the CPU time decides, not the exit status
    (_XCPU_CATCHER, 1, 5, TestStatus.CPU_TIMEOUT, 0, False),
    # the safety cap alone fails the run and says so
    (_SLEEPER, 5, None, TestStatus.FAIL, None, True),
], ids=["wall-limit", "cpu-limit", "sigxcpu-caught", "safety-cap"])
def test_status_precedence(tmp_path, monkeypatch, body, cpu, wall, status,
                           exit_code, note):
    monkeypatch.setattr("courseforge.executor._SAFETY_WALL_CAP", 1.0)
    write_script(tmp_path, "t.py", body)
    result = script_executor().run_test(tmp_path, "t.py", cpu, wall)
    assert result.status is status
    assert result.exit_code == exit_code
    assert result.output.endswith("[killed: exceeded the 1s safety cap]") \
        is note


def _truncated_whole(data: bytes) -> str:
    """The output of a run that printed ``data``, kept as the whole text."""
    text = data.decode("utf-8", errors="replace")
    if len(text) <= 10_000:
        return text
    return "... (output truncated) ...\n" + text[-10_000:]


def _payloads() -> dict[str, bytes]:
    rng = random.Random(7)
    emoji = "\U0001F600".encode()
    return {
        "empty": b"",
        "short": b"tiny\n",
        "at-cap": b"y" * 10_000,
        "over-cap": b"y" * 10_001,
        "noisy": "".join(f"debug line {i}: \u20ac {i * i}\n"
                         for i in range(50_000)).encode(),
        "emoji": emoji * 30_000,
        "random-bytes": rng.randbytes(300_000),
        "continuation-run": b"\xf0\x9f" + b"\x80" * 50_000 + b"end",
        **{f"cut-{k}": b"a" * k + emoji * 10_001 for k in range(4)},
        **{f"mixed-{k}": b"b" * k + (emoji + b"\xe2\x82\xac\xc3\xa9z") * 5_000
           for k in range(4)},
    }


@pytest.mark.parametrize("name", sorted(_payloads()))
def test_bounded_drain_keeps_the_output_text(tmp_path, name):
    data = _payloads()[name]
    (tmp_path / "payload.bin").write_bytes(data)
    ex = LocalProcessExecutor(None, [
        PYTHON, "-c",
        "import sys; sys.stdout.buffer.write(open(sys.argv[1], 'rb').read())",
        "{test_id}"])
    result = ex.run_test(tmp_path, "payload.bin", None, None)
    assert result.status is TestStatus.PASS
    assert result.output == _truncated_whole(data)


def test_flooding_test_does_not_grow_the_grader(tmp_path):
    flood = ("import sys\n"
             "line = b'z' * (1 << 20) + b'\\n'\n"
             "for _ in range(200):\n"
             "    sys.stdout.buffer.write(line)\n"
             "sys.stdout.buffer.write(b'THE-END\\n')\n")
    write_script(tmp_path, "flood.py", flood)
    grader = (
        "from courseforge.executor import LocalProcessExecutor\n"
        f"ex = LocalProcessExecutor(None, [{PYTHON!r}, '{{test_id}}'])\n"
        f"r = ex.run_test({str(tmp_path)!r}, 'flood.py', None, None)\n"
        "assert r.status.value == 'pass', r\n"
        "assert r.output.endswith('z' * 100 + '\\nTHE-END\\n'), r.output[-50:]\n"
        "assert len(r.output) == 10_000 + len('... (output truncated) ...\\n')\n"
        # ru_maxrss would include the spawning process's peak at exec
        "status = open('/proc/self/status').read()\n"
        "print(status.split('VmHWM:')[1].split()[0])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([PYTHON, "-c", grader], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 64 * 1024  # VmHWM is in KiB
