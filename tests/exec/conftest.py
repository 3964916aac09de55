"""Shared fixtures for the sweep-service tests."""

import glob
import os
import threading

import pytest

from repro.exec.worker import serve_http


def child_pids():
    """PIDs of this process's children, live or zombie.

    Every thread's ``/proc`` children list counts: a reader thread
    respawns workers.
    """
    paths = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    assert paths, "the kernel publishes no /proc/<pid>/task/*/children"
    pids = set()
    for path in paths:
        try:
            with open(path) as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            pass  # the thread exited between glob and open
    return pids


@pytest.fixture
def leaked_children():
    """Call it after a sweep: the children started since the test began
    that are still running or unreaped (should be none)."""
    before = child_pids()
    return lambda: child_pids() - before


@pytest.fixture
def http_worker():
    """An in-process HTTP worker daemon on an ephemeral port.

    Teardown stops the daemon and joins every thread the test started
    (server, runner, request handlers), so none outlives the test.
    """
    before = set(threading.enumerate())
    server = serve_http(0, serve_forever=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host = f"127.0.0.1:{server.server_address[1]}"
    yield host, server
    state = server.worker_state
    with state.cond:
        state.stopping = True
        state.cond.notify_all()
    server.shutdown()
    server.server_close()
    for started in set(threading.enumerate()) - before:
        started.join(timeout=5.0)
