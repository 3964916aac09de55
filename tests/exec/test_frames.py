"""Frame fuzz: a worker's result is credited only when its frame is valid.

:func:`~repro.exec.executors.decode_done` is the one decoder of the pipe
(``local``) and HTTP clients.  A done frame is credited only when it is
a dict of kind ``"done"`` whose ``int`` ``job_id`` is the job its
worker holds (and, on HTTP, whose epoch is current).  Anything else
loses the worker for the job it holds: the job is re-dispatched, then
quarantined, and a forged value is never credited.  The corpus is fed to
the decoder directly, then one forged frame per case travels end to end
over each transport.  Every end-to-end case has a wall-clock bound, so
a hang fails the test instead of stalling CI.
"""

import pickle
import struct
import threading
import time

import pytest

from repro.errors import DCudaUsageError, DCudaWorkerError
from repro.exec import ResultCache, RunSpec, run_specs
from repro.exec.executors import HTTPWorkerExecutor, Job, decode_done
from repro.exec.worker import recv_frame

#: The job the sending worker holds.  Its id is 1 so that ``True``
#: (which compares equal to 1) must be rejected on its type.
HELD = Job(1, "selftest_point", {"token": "real"}, "held")
FORGED = {"token": "FORGED"}


def _done(**fields):
    frame = {"kind": "done", "job_id": HELD.job_id, "ok": True,
             "value": FORGED}
    frame.update(fields)
    return frame


#: Frames no client may credit to HELD.
REJECTED = {
    "list": ["done", HELD.job_id, FORGED],
    "str": "done",
    "none": None,
    "missing-job-id": {"kind": "done", "ok": True, "value": FORGED},
    "str-job-id": _done(job_id="1"),
    "float-job-id": _done(job_id=1.0),
    "bool-job-id": _done(job_id=True),
    "foreign-job-id": _done(job_id=2),
    "unknown-kind": _done(kind="result"),
    "missing-kind": {"job_id": HELD.job_id, "ok": True, "value": FORGED},
    "truthy-ok": _done(ok=1),
    "failure-without-error": _done(ok=False),
    "failure-with-untyped-error": _done(ok=False, error=RuntimeError("x")),
}


def _on(transport, frame):
    """*frame* as it reaches *transport*'s client (HTTP: current epoch)."""
    if transport == "http" and isinstance(frame, dict):
        return dict(frame, epoch="E")
    return frame


def _decode(transport, frame, held=HELD):
    return decode_done(_on(transport, frame), held, "w",
                       epoch="E" if transport == "http" else None)


@pytest.mark.parametrize("transport", ["pipe", "http"])
class TestDecoder:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_frame_is_never_credited(self, transport, case):
        with pytest.raises(ValueError):
            _decode(transport, REJECTED[case])

    def test_valid_frames_are_credited(self, transport):
        comp = _decode(transport, _done(value={"token": "real"}))
        assert comp.ok and comp.job_id == HELD.job_id
        assert comp.value == {"token": "real"} and comp.worker == "w"
        error = DCudaUsageError("typed")
        comp = _decode(transport, _done(ok=False, error=error))
        assert not comp.ok and not comp.worker_lost
        assert comp.error is error

    def test_duplicate_or_reordered_done_frame(self, transport):
        frame = _done(value={"token": "real"})
        assert _decode(transport, frame).ok
        # The same frame again: its worker now holds nothing, or the
        # next job, so the repeat is never credited to either.
        with pytest.raises(ValueError):
            _decode(transport, frame, held=None)
        with pytest.raises(ValueError):
            _decode(transport, frame, held=Job(2, "selftest_point", {}))


def test_stale_epoch_is_dropped_not_credited():
    for frame in (_done(epoch="dead-session"), _done(),
                  dict(REJECTED["unknown-kind"], epoch="old")):
        assert decode_done(frame, HELD, "w", epoch="E") is None


def test_garbled_pickle_behind_valid_length_raises(tmp_path):
    """The pipe reader and the HTTP client count any exception while
    reading a frame as losing the worker."""
    garbled = b"\x80\x05" + b"\xff" * 14
    path = tmp_path / "pipe"
    path.write_bytes(struct.pack(">I", len(garbled)) + garbled)
    with open(path, "rb") as r, pytest.raises(Exception):
        recv_frame(r)
    with pytest.raises(Exception):
        pickle.loads(garbled)


# ----------------------------------------------------------- end to end -----
def _bounded(fn, seconds):
    """Run *fn*; return its result or the exception it raised, and fail
    if it has not returned within *seconds*."""
    box = {}

    def target():
        try:
            box["out"] = fn()
        except Exception as exc:  # handed to the test to inspect
            box["out"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds}s"
    return box["out"]


def _framed(obj):
    blob = pickle.dumps(obj)
    return struct.pack(">I", len(blob)) + blob


#: Bytes a forging worker writes before its real done frame.  Its job is
#: 0; job 1 is a healthy spec another worker is running.
PIPE_FORGERIES = {
    "list": _framed(["done", 0, FORGED]),
    "foreign-job-id": _framed({"kind": "done", "job_id": 1, "ok": True,
                               "value": FORGED}),
    "missing-job-id": _framed({"kind": "done", "ok": True,
                               "value": FORGED}),
    "unknown-kind": _framed({"kind": "result", "job_id": 0, "ok": True,
                             "value": FORGED}),
    "garbled-pickle": struct.pack(">I", 16) + b"\x80\x05" + b"\xff" * 14,
}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(PIPE_FORGERIES))
def test_pipe_forged_frame_is_never_credited(case, tmp_path,
                                             leaked_children):
    forger = RunSpec("selftest_point",
                     {"mode": "forge", "blob": PIPE_FORGERIES[case]},
                     label="forger")
    healthy = [RunSpec("selftest_point",
                       {"token": i, "mode": "sleep", "seconds": 0.2},
                       label=f"healthy-{i}") for i in range(4)]
    cache = ResultCache(tmp_path / "cache")
    out = _bounded(lambda: run_specs([forger] + healthy, workers=2,
                                     cache=cache, timeout=20.0), 60.0)
    # Every dispatch forges, so the forger loses three distinct workers
    # and is quarantined; the healthy specs complete with their own
    # values.
    assert isinstance(out, DCudaWorkerError), out
    message = str(out)
    assert message.startswith("1 spec(s) quarantined"), message
    assert "forger" in message and "healthy" not in message
    for spec in healthy:
        hit, value = cache.get(cache.key_for(spec))
        assert hit and value["token"] == spec.params["token"]
    assert leaked_children() == set()


#: Frames planted in the HTTP daemon's outbox while the client holds job
#: 0, given the sweep's epoch.
HTTP_FORGERIES = {
    "list": lambda epoch: ["done", 0, FORGED],
    "foreign-job-id": lambda epoch: {"kind": "done", "job_id": 1,
                                     "ok": True, "value": FORGED,
                                     "epoch": epoch},
    "missing-job-id": lambda epoch: {"kind": "done", "ok": True,
                                     "value": FORGED, "epoch": epoch},
    "unknown-kind": lambda epoch: {"kind": "result", "job_id": 0,
                                   "ok": True, "value": FORGED,
                                   "epoch": epoch},
    "stale-epoch": lambda epoch: {"kind": "done", "job_id": 0, "ok": True,
                                  "value": FORGED, "epoch": "dead-session"},
}


@pytest.mark.parametrize("case", sorted(HTTP_FORGERIES))
def test_http_forged_frame_is_never_credited(case, http_worker):
    host, server = http_worker
    state = server.worker_state
    job = Job(0, "selftest_point",
              {"token": "real", "mode": "sleep", "seconds": 0.5}, "held")
    ex = HTTPWorkerExecutor([host], poll_wait=0.2, reconnect_interval=0.05)
    ex.start(expected_jobs=1)
    comps = []
    try:
        ex.submit(job)
        deadline = time.monotonic() + 10.0
        while not ex._clients[0].alive:  # past /init, which clears state
            assert time.monotonic() < deadline, "client never connected"
            time.sleep(0.01)
        with state.cond:
            state.finished.append(HTTP_FORGERIES[case](ex.epoch))
            state.cond.notify_all()
        # Re-dispatch on loss, as the coordinator does, at most twice.
        for _ in range(3):
            comp = ex.next_completion(timeout=15.0)
            assert comp is not None, "no completion within 15s"
            comps.append(comp)
            if not comp.worker_lost:
                break
            ex.submit(job)
    finally:
        ex.stop()
    assert [c.job_id for c in comps] == [0] * len(comps)
    assert comps[-1].ok and comps[-1].value["token"] == "real"
    assert all(c.value != FORGED for c in comps)
    if case == "stale-epoch":
        assert len(comps) == 1  # dropped, not a loss
    else:
        assert comps[0].worker_lost
