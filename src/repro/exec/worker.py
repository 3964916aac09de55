"""The sweep worker daemon: ``python -m repro.exec worker``.

One process, one job at a time, two transports over the same tiny frame
protocol:

* ``--stdio`` — serve a parent :class:`~repro.exec.executors.
  LocalPoolExecutor` over stdin/stdout pipes.  Frames are
  length-prefixed pickles: a 4-byte big-endian payload length followed
  by the pickled dict.  The worker loads the entrypoint registry at
  start-up and sends ``ready`` unprompted.  Parent → worker kinds:
  ``job`` (one task) and ``shutdown``.  Worker → parent kinds: ``ready``
  (started / job finished, free for work) and ``done`` (one task
  outcome).
* ``--port N`` — serve :class:`~repro.exec.executors.HTTPWorkerExecutor`
  coordinators over stdlib HTTP: ``POST /init`` starts a new session (it
  carries no body), ``POST /submit`` enqueues one job, ``GET
  /poll?wait=S`` long-polls for finished completions, ``GET /healthz``
  answers liveness, ``GET /stats`` reports jobs served.  Payloads are
  pickled dicts — the trust model is "machines that already run your
  code" (like SSH), never the open internet.

A job carries everything its task reads: the entrypoint name and its
params (:mod:`repro.exec.spec`).

Task outcomes always cross the wire typed: a task raising a
:class:`~repro.errors.DCudaError` ships it as-is, any other exception is
wrapped in :class:`~repro.errors.DCudaWorkerError` with the original
traceback text, and an unpicklable result becomes a
:class:`~repro.errors.DCudaWorkerError` instead of a protocol break.  A
worker that dies outright (the poisoned-spec case) is detected by the
transport — pipe EOF or a refused connection — and handled by the
coordinator's retry/quarantine logic, not here.
"""

from __future__ import annotations

import pickle
import struct
import sys
import threading
import traceback
from typing import Any, BinaryIO, Dict, List, Mapping, Optional

from ..errors import DCudaError, DCudaWorkerError
from .spec import resolve_entrypoint

__all__ = ["send_frame", "recv_frame", "serve_stdio", "serve_http",
           "run_job_payload"]

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")
#: Upper bound on a single frame (guards against a corrupted header
#: making the reader allocate gigabytes).
MAX_FRAME_BYTES = 1 << 30


def send_frame(pipe: BinaryIO, obj: Mapping[str, Any]) -> None:
    """Write one length-prefixed pickled frame and flush.

    Raises:
        OSError: The pipe is closed (the peer died).
    """
    blob = pickle.dumps(dict(obj), protocol=pickle.HIGHEST_PROTOCOL)
    pipe.write(_HEADER.pack(len(blob)) + blob)
    pipe.flush()


def recv_frame(pipe: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF.

    Raises:
        EOFError: The stream ended mid-frame (the peer died while
            writing) or the header announces an impossible length.
    """
    header = pipe.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EOFError(f"frame length {length} exceeds protocol maximum")
    blob = b""
    while len(blob) < length:
        chunk = pipe.read(length - len(blob))
        if not chunk:
            raise EOFError("truncated frame payload")
        blob += chunk
    return pickle.loads(blob)


def run_job_payload(job: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one ``job`` frame; return the matching ``done`` frame.

    The outcome is guaranteed picklable: typed errors pass through,
    untyped exceptions are wrapped with their traceback text, and a
    result pickle cannot serialize is converted to a typed error rather
    than killing the connection.
    """
    label = job.get("label", "")
    try:
        fn = resolve_entrypoint(job["entrypoint"])
        value = fn(dict(job.get("params") or {}))
    except DCudaError as exc:
        return {"kind": "done", "job_id": job["job_id"], "ok": False,
                "error": exc}
    except Exception:
        return {"kind": "done", "job_id": job["job_id"], "ok": False,
                "error": DCudaWorkerError(
                    f"task {label!r} ({job.get('entrypoint')}) failed:\n"
                    + traceback.format_exc())}
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        return {"kind": "done", "job_id": job["job_id"], "ok": False,
                "error": DCudaWorkerError(
                    f"task {label!r} returned an unpicklable result: "
                    f"{exc!r}")}
    return {"kind": "done", "job_id": job["job_id"], "ok": True,
            "value": value}


def serve_stdio() -> int:
    """Run the stdio worker loop until ``shutdown`` or parent EOF.

    Returns:
        Process exit status (0 on clean shutdown).
    """
    from . import points  # noqa: F401  (populate the registry)

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    send_frame(stdout, {"kind": "ready"})
    while True:
        try:
            frame = recv_frame(stdin)
        except EOFError:
            return 1
        if frame is None or frame.get("kind") == "shutdown":
            return 0
        if frame.get("kind") == "job":
            send_frame(stdout, run_job_payload(frame))
            send_frame(stdout, {"kind": "ready"})


class _HttpWorkerState:
    """Shared state of one HTTP worker daemon: queue, runner, results."""

    def __init__(self):
        self.jobs: List[Dict[str, Any]] = []
        self.finished: List[Dict[str, Any]] = []
        self.served = 0
        #: Bumped by :meth:`reset`; a job carries it from queue to result.
        self.session = 0
        self.cond = threading.Condition()
        self.stopping = False

    def reset(self) -> None:
        """Start a new session: drop stale work.

        A daemon outlives the sweeps it serves.  Any queued job, running
        job or unpolled result at init time belongs to a dead session —
        a coordinator that gave up on this host, or a finished sweep —
        and job ids are only unique *within* a sweep, so serving a
        stale frame to the next session would record a foreign result
        under a colliding id, or cost the job its client then holds.
        Dropping them here (the running job's result when it finishes,
        plus the epoch tag echoed on every done frame) makes reuse safe.
        """
        with self.cond:
            self.session += 1
            self.jobs.clear()
            self.finished.clear()
            self.cond.notify_all()

    def runner(self):
        while True:
            with self.cond:
                while not self.jobs and not self.stopping:
                    self.cond.wait(timeout=0.5)
                if self.stopping:
                    return
                job = self.jobs.pop(0)
                session = self.session
            done = run_job_payload(job)
            # Echo the submitter's epoch so clients can tell this
            # sweep's frames from a dead session's stragglers.
            done["epoch"] = job.get("epoch")
            with self.cond:
                if session == self.session:
                    self.finished.append(done)
                self.served += 1
                self.cond.notify_all()

    def drain(self, wait: float) -> List[Dict[str, Any]]:
        with self.cond:
            if not self.finished and wait > 0:
                self.cond.wait(timeout=wait)
            out, self.finished = self.finished, []
            return out


def serve_http(port: int, host: str = "127.0.0.1",
               ready_event: Optional[threading.Event] = None,
               serve_forever: bool = True):
    """Start the HTTP worker daemon (see the module docstring for routes).

    Args:
        port: TCP port to bind (0 picks a free one).
        host: Bind address; the localhost default means exposing a
            worker to other machines is an explicit decision.
        ready_event: Set once the socket is bound (tests use this to
            avoid races instead of sleeping).
        serve_forever: When ``False``, returns the bound
            ``ThreadingHTTPServer`` immediately instead of blocking —
            the caller drives ``serve_forever``/``shutdown`` (tests run
            the daemon in a thread of the same process).

    Returns:
        The server object when ``serve_forever=False``; otherwise only
        on shutdown.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    state = _HttpWorkerState()
    from . import points  # noqa: F401  (populate the registry up front)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # quiet: workers are daemons
            pass

        def _reply(self, blob: bytes = b"ok", status: int = 200):
            self.send_response(status)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Length", str(len(blob)))
            self.end_headers()
            self.wfile.write(blob)

        def _body(self) -> bytes:
            length = int(self.headers.get("Content-Length") or 0)
            return self.rfile.read(length) if length else b""

        def do_GET(self):
            if self.path.startswith("/healthz"):
                self._reply(b"ok")
            elif self.path.startswith("/stats"):
                with state.cond:
                    blob = pickle.dumps({"served": state.served,
                                         "queued": len(state.jobs)})
                self._reply(blob)
            elif self.path.startswith("/poll"):
                wait = 0.0
                if "wait=" in self.path:
                    try:
                        wait = float(self.path.split("wait=")[1]
                                     .split("&")[0])
                    except ValueError:
                        wait = 0.0
                self._reply(pickle.dumps(state.drain(min(wait, 30.0)),
                                         protocol=pickle.HIGHEST_PROTOCOL))
            else:
                self._reply(b"not found", status=404)

        def do_POST(self):
            body = self._body()
            if self.path.startswith("/init"):
                state.reset()
                self._reply(b"ok")
            elif self.path.startswith("/submit"):
                job = pickle.loads(body)
                with state.cond:
                    state.jobs.append(job)
                    state.cond.notify_all()
                self._reply(b"queued")
            else:
                self._reply(b"not found", status=404)

    server = ThreadingHTTPServer((host, port), Handler)
    server.worker_state = state
    runner = threading.Thread(target=state.runner, daemon=True)
    runner.start()
    if ready_event is not None:
        ready_event.set()
    if not serve_forever:
        return server
    try:
        server.serve_forever()
    finally:
        with state.cond:
            state.stopping = True
            state.cond.notify_all()
        server.server_close()
    return server
