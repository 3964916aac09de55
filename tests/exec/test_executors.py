"""Tests for the executor protocol and its three transports.

The protocol contract under test: an executor accepts Job submissions,
yields Completion events in *any* order, names the worker behind each
one, and reports worker loss as a ``worker_lost`` completion (never an
exception, never silence).  Everything above — ordering, retry, digest
identity — is the coordinator's job and tested separately.
"""

import pickle

import pytest

from repro.errors import DCudaUsageError, DCudaWorkerError
from repro.exec.executors import (
    EXECUTOR_NAMES,
    Completion,
    HTTPWorkerExecutor,
    Job,
    LocalPoolExecutor,
    SerialExecutor,
    _child_env,
    build_executor,
)
from repro.exec.worker import run_job_payload


def _drain(executor, count, timeout=60.0):
    """Collect *count* completions from *executor* (order-insensitive)."""
    out = []
    while len(out) < count:
        comp = executor.next_completion(timeout=timeout)
        assert comp is not None, f"drained only {len(out)}/{count}"
        out.append(comp)
    return out


def _echo_jobs(n):
    return [Job(job_id=i, entrypoint="selftest_point",
                params={"token": i}, label=f"echo-{i}") for i in range(n)]


class TestBuildExecutor:
    def test_names_round_trip(self):
        assert build_executor("serial").name == "serial"
        assert build_executor("local", workers=2).name == "local"
        assert build_executor("http", hosts=["127.0.0.1:1"]).name == "http"

    def test_unknown_name_rejected(self):
        with pytest.raises(DCudaUsageError, match="unknown executor"):
            build_executor("carrier-pigeon")
        with pytest.raises(DCudaUsageError, match="unknown executor"):
            build_executor("subprocess")

    def test_http_requires_hosts(self):
        with pytest.raises(DCudaUsageError, match="host:port"):
            build_executor("http")

    def test_names_constant_is_complete(self):
        assert EXECUTOR_NAMES == ("serial", "local", "http")


class TestSerialExecutor:
    def test_jobs_run_lazily_in_order(self):
        ex = SerialExecutor()
        ex.start(expected_jobs=3)
        for job in _echo_jobs(3):
            ex.submit(job)
        comps = _drain(ex, 3)
        assert [c.job_id for c in comps] == [0, 1, 2]
        assert all(c.ok and c.worker == "serial" for c in comps)
        assert comps[1].value["token"] == 1
        ex.stop()

    def test_exceptions_propagate_raw(self):
        ex = SerialExecutor()
        ex.start()
        ex.submit(Job(0, "selftest_point",
                      {"mode": "raise", "message": "bang"}))
        with pytest.raises(RuntimeError, match="bang"):
            ex.next_completion()
        ex.stop()

    def test_not_preemptive(self):
        assert SerialExecutor.preemptive is False


class TestLocalPoolPythonPathHygiene:
    def test_double_stop_preserves_callers_pythonpath(self, monkeypatch):
        """The fleet computes its workers' environment without touching
        ``os.environ``: start(), stop(), a second stop() and a stop()
        without start() all leave the caller's value as it was."""
        import os

        monkeypatch.setenv("PYTHONPATH", "caller-value")
        ex = LocalPoolExecutor(workers=1)
        ex.stop()  # never started: environment untouched
        assert os.environ["PYTHONPATH"] == "caller-value"
        ex2 = LocalPoolExecutor(workers=1)
        ex2.start(expected_jobs=1)
        assert os.environ["PYTHONPATH"] == "caller-value"
        child = ex2.child_env["PYTHONPATH"].split(os.pathsep)
        assert child[-1] == "caller-value" and len(child) == 2
        ex2.stop()
        assert os.environ["PYTHONPATH"] == "caller-value"
        ex2.stop()  # idempotent
        assert os.environ["PYTHONPATH"] == "caller-value"

    def test_child_env_is_pure(self, monkeypatch):
        import os

        import repro

        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        monkeypatch.delenv("PYTHONPATH", raising=False)
        assert _child_env()["PYTHONPATH"] == src
        assert "PYTHONPATH" not in os.environ
        # Already importable from there: the caller's value is kept.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(["x", src]))
        assert _child_env()["PYTHONPATH"] == os.pathsep.join(["x", src])


@pytest.mark.slow
class TestLocalPoolExecutor:
    """The ``local`` executor as the engine builds it by name: the pipe
    fleet, one ``worker --stdio`` process per slot."""

    def test_completes_all_jobs(self):
        with build_executor("local", workers=2) as ex:
            assert isinstance(ex, LocalPoolExecutor)
            ex.start(expected_jobs=4)
            for job in _echo_jobs(4):
                ex.submit(job)
            comps = _drain(ex, 4)
        assert sorted(c.job_id for c in comps) == [0, 1, 2, 3]
        for c in comps:
            assert c.ok and c.value["token"] == c.job_id
            assert c.worker.startswith("worker-")

    def test_task_exception_is_typed_completion(self):
        with build_executor("local", workers=1) as ex:
            ex.start(expected_jobs=1)
            ex.submit(Job(0, "selftest_point",
                          {"mode": "raise", "message": "pow"}, "boomtask"))
            (comp,) = _drain(ex, 1)
        assert not comp.ok and not comp.worker_lost
        assert isinstance(comp.error, DCudaWorkerError)
        assert "pow" in str(comp.error)

    def test_worker_death_is_worker_lost_and_pool_recovers(self):
        with build_executor("local", workers=1) as ex:
            ex.start(expected_jobs=2)
            ex.submit(Job(0, "selftest_point", {"mode": "exit"}, "killer"))
            (lost,) = _drain(ex, 1)
            assert lost.worker_lost and not lost.ok
            # The fleet respawns the slot; the next job runs on it.
            ex.submit(Job(1, "selftest_point", {"token": "after"}))
            (ok,) = _drain(ex, 1)
        assert ok.ok and ok.value["token"] == "after"
        assert ok.worker != lost.worker  # distinct worker identity


@pytest.mark.slow
class TestSubprocessWorkerExecutor:
    """The pipe fleet driven through its class (``LocalPoolExecutor``,
    once named ``SubprocessWorkerExecutor``): slot count, pipe-crossing
    errors and respawn after a worker dies."""

    def test_completes_jobs_across_fleet(self):
        with LocalPoolExecutor(workers=2) as ex:
            ex.start(expected_jobs=6)
            assert len(ex.worker_pids()) == 2
            for job in _echo_jobs(6):
                ex.submit(job)
            comps = _drain(ex, 6)
        assert sorted(c.job_id for c in comps) == list(range(6))
        for c in comps:
            assert c.ok and c.worker.startswith("worker-")
            assert c.value["token"] == c.job_id

    def test_worker_death_reported_and_respawned(self):
        with LocalPoolExecutor(workers=1) as ex:
            ex.start(expected_jobs=2)
            ex.submit(Job(0, "selftest_point", {"mode": "exit"}, "poison"))
            (lost,) = _drain(ex, 1)
            assert lost.worker_lost
            ex.submit(Job(1, "selftest_point", {"token": "alive"}))
            (ok,) = _drain(ex, 1)
        assert ok.ok and ok.value["token"] == "alive"
        assert ok.worker != lost.worker  # respawn = new pid = new identity

    def test_typed_error_crosses_the_pipe(self):
        with LocalPoolExecutor(workers=1) as ex:
            ex.start(expected_jobs=1)
            ex.submit(Job(0, "selftest_point",
                          {"mode": "raise", "message": "wired"}, "t"))
            (comp,) = _drain(ex, 1)
        assert isinstance(comp.error, DCudaWorkerError)
        assert "wired" in str(comp.error)


class TestHTTPWorkerExecutor:
    def test_completes_jobs_via_daemon(self, http_worker):
        host, _ = http_worker
        ex = HTTPWorkerExecutor([host], poll_wait=0.2)
        ex.start(expected_jobs=3)
        try:
            for job in _echo_jobs(3):
                ex.submit(job)
            comps = _drain(ex, 3)
        finally:
            ex.stop()
        assert sorted(c.job_id for c in comps) == [0, 1, 2]
        for c in comps:
            assert c.ok and c.worker == f"http:{host}"
            assert c.value["token"] == c.job_id

    def test_unreachable_daemon_reports_worker_lost_not_hang(self):
        ex = HTTPWorkerExecutor(["127.0.0.1:1"], poll_wait=0.1,
                                reconnect_interval=0.01,
                                max_reconnect_failures=3)
        ex.start(expected_jobs=1)
        try:
            ex.submit(Job(0, "selftest_point", {}))
            deadline = 50
            while ex.alive_workers() > 0 and deadline:
                deadline -= 1
                import time
                time.sleep(0.1)
            assert ex.alive_workers() == 0  # gave up typed, not hung
        finally:
            ex.stop()

    def test_stale_frames_from_dead_session_never_credited(
            self, http_worker):
        """Daemon reuse across sweeps: a straggler frame left by a
        previous sweep (same job_id space!) must not be recorded as
        this sweep's result — epoch tags fence it off."""
        host, server = http_worker
        state = server.worker_state
        # A dead session's unpolled result, colliding on job_id 0.
        with state.cond:
            state.finished.append({"kind": "done", "job_id": 0,
                                   "ok": True, "value": {"token": "STALE"},
                                   "epoch": "dead-session"})
            state.cond.notify_all()
        ex = HTTPWorkerExecutor([host], poll_wait=0.2)
        ex.start(expected_jobs=1)
        try:
            ex.submit(Job(0, "selftest_point", {"token": "fresh"}))
            (comp,) = _drain(ex, 1)
        finally:
            ex.stop()
        assert comp.ok and comp.value["token"] == "fresh"

    def test_init_clears_dead_session_state(self, http_worker):
        """POST /init starts a session: stale queue + outbox dropped."""
        host, server = http_worker
        state = server.worker_state
        with state.cond:
            state.finished.append({"kind": "done", "job_id": 9,
                                   "ok": True, "value": "old",
                                   "epoch": "dead"})
        session = state.session
        state.reset()
        with state.cond:
            assert state.finished == [] and state.jobs == []
            assert state.session == session + 1

    def test_job_running_at_init_is_never_delivered(self, http_worker):
        """A client that reconnects (``POST /init``) while the daemon
        still runs its abandoned job must not receive that job's result:
        in the new session it would cost the job the client then holds
        a worker loss."""
        import time

        host, server = http_worker
        state = server.worker_state
        with state.cond:
            state.jobs.append({"kind": "job", "job_id": 0,
                               "entrypoint": "selftest_point",
                               "params": {"mode": "sleep", "seconds": 0.3},
                               "label": "abandoned", "epoch": "e"})
            state.cond.notify_all()
        deadline = time.monotonic() + 10.0
        while state.jobs:  # until the runner has taken it
            assert time.monotonic() < deadline
            time.sleep(0.005)
        state.reset()
        while state.served < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        with state.cond:
            assert state.finished == []

    def test_daemon_stats_route(self, http_worker):
        host, server = http_worker
        ex = HTTPWorkerExecutor([host], poll_wait=0.2)
        ex.start(expected_jobs=1)
        try:
            ex.submit(Job(0, "selftest_point", {"token": "t"}))
            _drain(ex, 1)
        finally:
            ex.stop()
        import http.client

        hostname, _, port = host.partition(":")
        conn = http.client.HTTPConnection(hostname, int(port), timeout=5)
        conn.request("GET", "/stats")
        stats = pickle.loads(conn.getresponse().read())
        conn.close()
        assert stats["served"] == 1


class TestWorkerPayload:
    """run_job_payload: every outcome must cross the wire typed."""

    def _job(self, **params):
        return {"kind": "job", "job_id": 7, "entrypoint": "selftest_point",
                "params": params, "label": "t"}

    def test_success_frame(self):
        frame = run_job_payload(self._job(token="x"))
        assert frame["ok"] and frame["job_id"] == 7
        assert frame["value"]["token"] == "x"

    def test_untyped_exception_wrapped_with_traceback(self):
        frame = run_job_payload(self._job(mode="raise", message="deep"))
        assert not frame["ok"]
        assert isinstance(frame["error"], DCudaWorkerError)
        assert "deep" in str(frame["error"])
        assert "Traceback" in str(frame["error"])

    def test_typed_error_passes_through(self):
        job = {"kind": "job", "job_id": 1, "entrypoint": "no_such_point",
               "params": {}, "label": "t"}
        frame = run_job_payload(job)
        assert not frame["ok"]
        assert isinstance(frame["error"], DCudaUsageError)

    def test_frame_is_picklable_even_for_weird_errors(self):
        frame = run_job_payload(self._job(mode="raise", message="x"))
        assert pickle.loads(pickle.dumps(frame))


class TestFrameProtocol:
    def test_round_trip(self, tmp_path):
        from repro.exec.worker import recv_frame, send_frame

        path = tmp_path / "pipe"
        with open(path, "wb") as w:
            send_frame(w, {"kind": "job", "n": 1})
            send_frame(w, {"kind": "shutdown"})
        with open(path, "rb") as r:
            assert recv_frame(r) == {"kind": "job", "n": 1}
            assert recv_frame(r) == {"kind": "shutdown"}
            assert recv_frame(r) is None  # clean EOF

    def test_truncated_payload_raises_eof(self, tmp_path):
        from repro.exec.worker import recv_frame, send_frame

        path = tmp_path / "pipe"
        with open(path, "wb") as w:
            send_frame(w, {"kind": "job", "blob": "x" * 100})
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with open(path, "rb") as r, pytest.raises(EOFError):
            recv_frame(r)

    def test_absurd_length_header_raises_eof(self, tmp_path):
        from repro.exec.worker import recv_frame

        path = tmp_path / "pipe"
        path.write_bytes(b"\xff\xff\xff\xff")
        with open(path, "rb") as r, pytest.raises(EOFError):
            recv_frame(r)


def test_completion_shapes():
    ok = Completion(1, ok=True, value=3, worker="w")
    lost = Completion(2, worker="w", worker_lost=True)
    assert ok.ok and not ok.worker_lost
    assert not lost.ok and lost.worker_lost and lost.error is None
