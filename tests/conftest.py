"""Keeps this directory importable so test modules can share oracles/util,
serves the ``bridge`` hosting service, and fails the run when a process a
test started outlives the session."""

import os
import signal
import threading
import time
import uuid
from pathlib import Path

import pytest

from bridge import BridgeServer
from courseforge.repomodel import InMemoryHosting

_SESSION_VAR = "COURSEFORGE_TEST_SESSION"


def _processes_with(entry: bytes) -> dict[int, str]:
    """Other processes whose environment holds ``entry``, with their cmdlines."""
    found = {}
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit() or int(proc.name) == os.getpid():
            continue
        try:
            if entry in (proc / "environ").read_bytes().split(b"\0"):
                cmdline = (proc / "cmdline").read_bytes()
                found[int(proc.name)] = cmdline.replace(b"\0", b" ").decode(
                    errors="replace").strip()
        except OSError:  # gone, or not ours to read
            continue
    return found


@pytest.fixture(scope="session", autouse=True)
def no_process_outlives_the_session():
    """Every process started during the session inherits a token in its
    environment, also once it starts a session of its own or is reparented.
    At the end, any that still runs after about 2 s is killed and named."""
    token = uuid.uuid4().hex
    os.environ[_SESSION_VAR] = token
    yield
    entry = f"{_SESSION_VAR}={token}".encode()
    deadline = time.monotonic() + 2
    while (left := _processes_with(entry)) and time.monotonic() < deadline:
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if left:
        pytest.fail("processes outlived the test session:\n" + "\n".join(
            f"  pid {pid}: {cmd}" for pid, cmd in sorted(left.items())),
            pytrace=False)


@pytest.fixture()
def bridge():
    """A live HTTP hosting service over an empty InMemoryHosting."""
    server = BridgeServer(InMemoryHosting())
    thread = threading.Thread(
        target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
