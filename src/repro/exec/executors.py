"""Pluggable sweep executors: one protocol, three transports.

The sweep service splits *what to run* (the coordinator,
:mod:`repro.exec.coordinator`) from *where it runs* (this module).  An
:class:`Executor` accepts :class:`Job` submissions and yields
:class:`Completion` events; everything else — ordering, caching, dedup,
retry — lives above the protocol, so every transport inherits the
bit-identity guarantee for free: results are merged by submission index
upstream, and an executor only ever influences *when* a completion
arrives, never *what* it contains.

Transports:

* :class:`SerialExecutor` — in-process, lazy execution at drain time;
  task exceptions propagate raw (the debugging-friendly historical
  behaviour of serial sweeps).
* :class:`LocalPoolExecutor` — a fleet of long-lived worker processes
  (``python -m repro.exec worker --stdio``) speaking the length-prefixed
  pickle frame protocol of :mod:`repro.exec.worker` over stdin/stdout
  pipes.  A worker that dies or sends a frame :func:`decode_done`
  rejects is reaped and respawned, and :meth:`~LocalPoolExecutor.stop`
  waits for every process the fleet started.  This is also the template
  for SSH transports (same frames over ``ssh host python -m repro.exec
  worker --stdio``).
* :class:`HTTPWorkerExecutor` — connects to worker daemons started with
  ``python -m repro.exec worker --port N``: the coordinator POSTs specs
  to ``/submit`` and polls ``/poll`` for completions, so workers can
  live on other hosts.  A connection failure marks the worker lost; the
  executor keeps probing ``/healthz`` and re-adopts a restarted daemon.

Both process transports run the same worker program and task body
(:func:`~repro.exec.worker.run_job_payload`), and credit a result
through the same decoder, :func:`decode_done`: a done frame counts only
when it names the job its worker holds.

Worker identity: every :class:`Completion` names the worker that
produced (or died under) it.  The coordinator uses those names to
enforce the poisoned-spec rule — a spec that takes down *distinct*
workers on every attempt is quarantined instead of re-dispatched
forever.
"""

from __future__ import annotations

import abc
import os
import pickle
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import DCudaError, DCudaUsageError
from .spec import resolve_entrypoint

__all__ = [
    "Job",
    "Completion",
    "Executor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "HTTPWorkerExecutor",
    "build_executor",
    "decode_done",
    "EXECUTOR_NAMES",
]

#: Names accepted by :func:`build_executor` (and the CLIs' ``--executor``).
EXECUTOR_NAMES = ("serial", "local", "http")

#: Respawns one ``local`` fleet allows before dead slots stay dead: a
#: poisoned campaign must not fork-bomb the host.
_RESPAWN_LIMIT = 16
#: Seconds :func:`_reap` lets a terminated worker exit before killing it.
_REAP_TIMEOUT = 2.0


@dataclass(frozen=True)
class Job:
    """One unit of executor work: a spec flattened to wire-friendly data.

    Args:
        job_id: Coordinator-assigned identity; echoed in the completion.
        entrypoint: Registered entrypoint name (:mod:`repro.exec.spec`).
        params: Picklable entrypoint parameters.
        label: Human-readable identity for progress and error messages.
    """

    job_id: int
    entrypoint: str
    params: Mapping[str, Any]
    label: str = ""


@dataclass
class Completion:
    """Outcome of one :class:`Job` attempt on one worker.

    Exactly one of three shapes: success (``ok=True``, ``value`` set),
    task failure (``error`` carries a typed
    :class:`~repro.errors.DCudaError`), or worker loss
    (``worker_lost=True`` — the job did *not* run to completion and may
    be re-dispatched).
    """

    job_id: int
    ok: bool = False
    value: Any = None
    error: Optional[BaseException] = None
    worker: str = ""
    worker_lost: bool = False


class Executor(abc.ABC):
    """The executor protocol every transport implements.

    Lifecycle: :meth:`start` once, any number of :meth:`submit` /
    :meth:`next_completion` interleavings, then :meth:`stop`.  A job
    carries everything its task reads, so starting ships nothing.
    Implementations are thread-safe for one submitting thread plus
    internal harvester threads.

    Attributes:
        name: Transport name recorded in :class:`~repro.exec.engine.
            SweepReport` and progress events.
        preemptive: Whether the transport can abandon a running task
            (process kill).  The coordinator only enforces per-task
            timeouts on preemptive executors — serial execution cannot
            be interrupted, matching the historical engine contract.
    """

    name = "?"
    preemptive = True

    @abc.abstractmethod
    def start(self, expected_jobs: Optional[int] = None) -> None:
        """Provision workers (at most *expected_jobs* where that caps
        the fleet)."""

    @abc.abstractmethod
    def submit(self, job: Job) -> None:
        """Enqueue *job* for execution on any available worker."""

    @abc.abstractmethod
    def next_completion(self, timeout: Optional[float] = None
                        ) -> Optional[Completion]:
        """Block for the next completion; ``None`` when *timeout* expires."""

    @abc.abstractmethod
    def stop(self) -> None:
        """Tear down every worker and thread the transport started.

        The coordinator calls it only once no result is still wanted, so
        a transport never drains: queued jobs are dropped and running
        ones abandoned.  Idempotent.
        """

    def alive_workers(self) -> int:
        """Workers currently able to take jobs (after any respawning)."""
        return 1

    def worker_pids(self) -> List[int]:
        """PIDs of live worker processes (empty when not applicable).

        Exists for the worker-loss chaos harness: tests kill real
        workers mid-campaign and assert the merged digest is unchanged.
        """
        return []

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# --------------------------------------------------------------- serial -----
class SerialExecutor(Executor):
    """In-process execution, one job at a time, at drain time.

    Jobs queue up on :meth:`submit` and run inside
    :meth:`next_completion` — keeping the protocol uniform while
    preserving the historical serial semantics: exceptions (typed or
    not) propagate raw to the caller, with a full in-process traceback.
    """

    name = "serial"
    preemptive = False

    def __init__(self):
        self._pending: List[Job] = []

    def start(self, expected_jobs=None):
        pass

    def submit(self, job):
        self._pending.append(job)

    def next_completion(self, timeout=None):
        if not self._pending:
            return None
        job = self._pending.pop(0)
        fn = resolve_entrypoint(job.entrypoint)
        value = fn(dict(job.params))
        return Completion(job.job_id, ok=True, value=value, worker="serial")

    def stop(self):
        self._pending.clear()


# -------------------------------------------------------- frame decoder -----
def decode_done(frame: Any, held: Optional[Job], worker: str,
                epoch: Optional[str] = None) -> Optional[Completion]:
    """The one done-frame decoder of the pipe and HTTP clients.

    A frame is credited to *held*, the job its worker holds, only when
    it is a dict of kind ``"done"`` whose ``int`` ``job_id`` is
    ``held.job_id`` and whose outcome has one of the two shapes
    :func:`~repro.exec.worker.run_job_payload` sends: ``ok=True`` with a
    value, or ``ok=False`` with a typed error.  This is the host-queue
    rule of the paper: an entry without a valid sequence number is
    rejected, never delivered.

    Args:
        frame: One unpickled frame, as received.
        held: The job the sending worker holds (``None`` when idle).
        worker: Worker identity recorded on the completion.
        epoch: HTTP only: the session tag every frame of this sweep
            echoes.  A frame of another epoch is a dead session's
            straggler (job ids are only unique within a sweep).

    Returns:
        The completion to credit, or ``None`` for a stale-epoch frame,
        which the caller drops.

    Raises:
        ValueError: Any other frame.  The caller counts it as losing the
            worker for *held*, which the coordinator re-dispatches and
            eventually quarantines, and never credits.
    """
    if not isinstance(frame, dict):
        raise ValueError(f"{type(frame).__name__} frame from {worker}")
    if epoch is not None and frame.get("epoch") != epoch:
        return None
    job_id = frame.get("job_id")
    if (frame.get("kind") != "done" or held is None
            or type(job_id) is not int or job_id != held.job_id):
        raise ValueError(
            f"{worker} sent {frame.get('kind')!r} frame for job "
            f"{job_id!r} while holding "
            f"{held.job_id if held else None!r}")
    ok, error = frame.get("ok"), frame.get("error")
    if ok is True:
        return Completion(job_id, ok=True, value=frame.get("value"),
                          worker=worker)
    if ok is False and isinstance(error, DCudaError):
        return Completion(job_id, error=error, worker=worker)
    raise ValueError(f"{worker} sent a done frame with ok={ok!r} and "
                     f"error={type(error).__name__}")


# ----------------------------------------------------- local pipe fleet -----
def _child_env() -> Dict[str, str]:
    """The environment a worker starts with: this process's, with the
    directory ``repro`` was imported from first on ``PYTHONPATH``.

    Pure: it reads ``os.environ`` and returns a new dict.
    """
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    prev = env.get("PYTHONPATH")
    if src not in (prev.split(os.pathsep) if prev else []):
        env["PYTHONPATH"] = src + (os.pathsep + prev if prev else "")
    return env


def _reap(procs: Sequence[subprocess.Popen]) -> None:
    """Terminate *procs*, kill any that outlive the grace period, and
    wait for every one, so none is left running or as a zombie."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=_REAP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class _PipeWorker:
    """One fleet slot: its current process, the job it holds, its reader.

    Every method that writes to the worker runs under the executor lock.
    """

    def __init__(self, executor: "LocalPoolExecutor", slot: int):
        self.executor = executor
        self.slot = slot
        self.proc: Optional[subprocess.Popen] = None
        self.current: Optional[Job] = None
        self.alive = False
        self.thread: Optional[threading.Thread] = None

    @property
    def ident(self) -> str:
        pid = self.proc.pid if self.proc else "?"
        return f"worker-{self.slot}-pid{pid}"

    def spawn(self):
        ex = self.executor
        self.proc = proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.exec", "worker",
             "--stdio"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=ex.child_env)
        ex.procs.append(proc)
        self.alive = True
        self.thread = threading.Thread(target=self._read_loop,
                                       args=(proc,), daemon=True)
        self.thread.start()

    def send_job(self, job: Job):
        from .worker import send_frame

        send_frame(self.proc.stdin, {
            "kind": "job", "job_id": job.job_id,
            "entrypoint": job.entrypoint, "params": dict(job.params),
            "label": job.label})
        self.current = job

    def _read_loop(self, proc: subprocess.Popen):
        from .worker import recv_frame

        try:
            while True:
                frame = recv_frame(proc.stdout)
                if frame is None:
                    break
                self.executor._on_frame(self, frame)
        except Exception:
            pass  # a garbled, truncated or rejected frame: lost, like EOF
        self.executor._on_worker_lost(self, proc)


class LocalPoolExecutor(Executor):
    """A fleet of long-lived ``worker --stdio`` processes over pipes.

    Each worker is a fresh interpreter running the frame loop of
    :mod:`repro.exec.worker`; it announces itself with ``ready`` and the
    parent feeds it one job at a time.  A worker is lost when its
    pipe reaches EOF or it sends anything but ``ready`` or a done frame
    :func:`decode_done` credits.  Its in-flight job then becomes a
    ``worker_lost`` completion, the process is reaped, and the slot is
    respawned (up to 16 times per fleet), so a sweep survives worker
    loss without losing its dispatch queue.

    Lifecycle rule: a respawn happens under the executor lock and is
    refused once :meth:`stop` has run, and :meth:`stop` terminates every
    process the fleet started, kills it on timeout, and waits for it.

    Args:
        workers: Fleet size (capped at the expected job count on start).
    """

    name = "local"

    def __init__(self, workers: int = 2):
        self.workers = max(1, int(workers))
        self.child_env: Dict[str, str] = {}
        #: Every process this fleet started, respawns included.
        self.procs: List[subprocess.Popen] = []
        self._fleet: List[_PipeWorker] = []
        self._pending: List[Job] = []
        self._completions: "queue.Queue[Completion]" = queue.Queue()
        self._lock = threading.Lock()
        self._respawns = 0
        self._stopped = False

    def start(self, expected_jobs=None):
        self.child_env = _child_env()
        count = (min(self.workers, expected_jobs)
                 if expected_jobs else self.workers)
        with self._lock:
            for slot in range(max(1, count)):
                worker = _PipeWorker(self, slot)
                self._fleet.append(worker)
                worker.spawn()

    # Reader-thread callbacks ------------------------------------------------
    def _on_frame(self, worker: _PipeWorker, frame: Any):
        """Credit a done frame and hand the worker its next job.

        Raises:
            ValueError: The frame is neither ``ready`` nor a done frame
                for the job *worker* holds (see :func:`decode_done`).
        """
        comp = None
        with self._lock:
            if not (isinstance(frame, dict)
                    and frame.get("kind") == "ready"):
                comp = decode_done(frame, worker.current, worker.ident)
                worker.current = None
            if self._pending and worker.alive and worker.current is None:
                job = self._pending.pop(0)
                try:
                    worker.send_job(job)
                except OSError:
                    self._pending.insert(0, job)
        if comp is not None:
            self._completions.put(comp)

    def _on_worker_lost(self, worker: _PipeWorker, proc: subprocess.Popen):
        """Reap *proc*, report the job it held as lost, respawn the slot."""
        _reap([proc])
        proc.stdout.close()
        with self._lock:
            try:
                proc.stdin.close()
            except OSError:
                pass  # unflushed bytes to a dead pipe
            if self._stopped:
                return
            worker.alive = False
            lost, worker.current = worker.current, None
            if lost is not None:
                self._completions.put(Completion(
                    lost.job_id, worker=worker.ident, worker_lost=True))
            if self._respawns < _RESPAWN_LIMIT:
                self._respawns += 1
                try:
                    worker.spawn()
                except OSError:
                    worker.alive = False

    # Protocol ----------------------------------------------------------------
    def submit(self, job):
        with self._lock:
            for worker in self._fleet:
                if worker.alive and worker.current is None:
                    try:
                        worker.send_job(job)
                        return
                    except OSError:
                        continue
            self._pending.append(job)

    def next_completion(self, timeout=None):
        try:
            return self._completions.get(timeout=timeout)
        except queue.Empty:
            return None

    def alive_workers(self):
        with self._lock:
            live = sum(1 for w in self._fleet if w.alive)
            if self._respawns < _RESPAWN_LIMIT:
                live = max(live, 1)  # a dead slot can still come back
            return live

    def worker_pids(self):
        with self._lock:
            return [w.proc.pid for w in self._fleet
                    if w.alive and w.proc is not None
                    and w.proc.poll() is None]

    def stop(self):
        """Terminate, kill on timeout and wait for every process started."""
        with self._lock:
            self._stopped = True
            self._pending.clear()
            procs = list(self.procs)
            fleet, self._fleet = self._fleet, []
        _reap(procs)
        for worker in fleet:
            if worker.thread is not None:
                worker.thread.join(timeout=_REAP_TIMEOUT)


# --------------------------------------------------------- HTTP workers -----
class _HttpWorkerClient(threading.Thread):
    """Dispatcher thread for one remote worker daemon."""

    def __init__(self, executor: "HTTPWorkerExecutor", host: str):
        super().__init__(daemon=True)
        self.executor = executor
        self.host = host
        self.alive = False
        self.stopping = False
        self.failures = 0

    def _request(self, method: str, path: str, body: bytes = b"",
                 timeout: float = 10.0) -> bytes:
        import http.client

        hostname, _, port = self.host.partition(":")
        conn = http.client.HTTPConnection(hostname, int(port or 80),
                                          timeout=timeout)
        try:
            conn.request(method, path, body=body or None,
                         headers={"Content-Type":
                                  "application/octet-stream"})
            resp = conn.getresponse()
            data = resp.read()
            if resp.status != 200:
                raise ConnectionError(
                    f"{self.host}{path} -> HTTP {resp.status}")
            return data
        finally:
            conn.close()

    def run(self):
        while not self.stopping:
            if not self.alive:
                if self._try_connect():
                    self.failures = 0
                else:
                    self.failures += 1
                    if (self.failures
                            > self.executor.max_reconnect_failures):
                        # Give up on a daemon that stays unreachable so
                        # the coordinator can fail typed, never hang.
                        self.stopping = True
                        return
                    time.sleep(self.executor.reconnect_interval)
                    continue
            job = self.executor._take_job()
            if job is None:
                if self.stopping:
                    return
                continue
            self._run_job(job)

    def _try_connect(self) -> bool:
        try:
            self._request("GET", "/healthz", timeout=2.0)
            self._request("POST", "/init")
        except Exception:
            return False
        self.alive = True
        return True

    def _run_job(self, job: Job):
        ident = f"http:{self.host}"
        blob = pickle.dumps(
            {"job_id": job.job_id, "entrypoint": job.entrypoint,
             "params": dict(job.params), "label": job.label,
             "epoch": self.executor.epoch},
            protocol=pickle.HIGHEST_PROTOCOL)
        try:
            self._request("POST", "/submit", blob)
            while not self.stopping:
                data = self._request(
                    "GET", f"/poll?wait={self.executor.poll_wait}",
                    timeout=self.executor.poll_wait + 10.0)
                for frame in pickle.loads(data) if data else []:
                    # A stale-epoch frame is a dead session's straggler
                    # (the daemon ran a job whose client had given up,
                    # then a new sweep reused it): dropped.  Anything
                    # else but this job's done frame loses the worker.
                    comp = decode_done(frame, job, ident,
                                       epoch=self.executor.epoch)
                    if comp is not None:
                        self.executor._completions.put(comp)
                        return
        except Exception:
            self.alive = False
            self.executor._completions.put(Completion(
                job.job_id, worker=ident, worker_lost=True))

    def stop(self):
        self.stopping = True


class HTTPWorkerExecutor(Executor):
    """Dispatch to ``python -m repro.exec worker --port N`` daemons.

    The coordinator-facing contract matches every other transport; the
    wire protocol is deliberately minimal stdlib HTTP: a body-less ``POST
    /init`` starts a session, ``POST /submit`` enqueues one pickled job,
    ``GET /poll?wait=S`` long-polls for completion frames, and ``GET
    /healthz`` answers liveness probes.  Payloads are pickle and carry
    no authentication — the transport is for machines you already trust
    to run your code (the same trust model as SSH workers), not the open
    internet.

    A worker that stops answering marks its in-flight job
    ``worker_lost`` (the coordinator re-dispatches to surviving workers)
    and is probed in the background: restarting the daemon re-adopts the
    host mid-sweep.

    Args:
        hosts: ``"host:port"`` strings, one per worker daemon.
        poll_wait: Long-poll horizon [s] for ``GET /poll``.
        reconnect_interval: Seconds between liveness probes of a lost
            worker.
    """

    name = "http"

    def __init__(self, hosts: Sequence[str], poll_wait: float = 2.0,
                 reconnect_interval: float = 0.5,
                 max_reconnect_failures: int = 60):
        hosts = [h.strip() for h in hosts if h and h.strip()]
        if not hosts:
            raise DCudaUsageError(
                "HTTPWorkerExecutor needs at least one host:port "
                "(start workers with `python -m repro.exec worker "
                "--port N`)")
        self.hosts = hosts
        self.poll_wait = poll_wait
        self.reconnect_interval = reconnect_interval
        self.max_reconnect_failures = max_reconnect_failures
        #: Session tag: submitted with every job and echoed on its done
        #: frame, so a reused daemon's stale frames (from a sweep that
        #: gave this host up) are never credited to this sweep.
        self.epoch = f"{os.getpid():x}-{id(self):x}-{time.time_ns():x}"
        self._clients: List[_HttpWorkerClient] = []
        self._jobs: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._completions: "queue.Queue[Completion]" = queue.Queue()

    def start(self, expected_jobs=None):
        self.epoch = f"{os.getpid():x}-{id(self):x}-{time.time_ns():x}"
        for host in self.hosts:
            client = _HttpWorkerClient(self, host)
            client.start()
            self._clients.append(client)

    def _take_job(self) -> Optional[Job]:
        try:
            return self._jobs.get(timeout=0.2)
        except queue.Empty:
            return None

    def submit(self, job):
        self._jobs.put(job)

    def next_completion(self, timeout=None):
        try:
            return self._completions.get(timeout=timeout)
        except queue.Empty:
            return None

    def alive_workers(self):
        # A lost daemon may be restarted out-of-band, so a host keeps
        # counting until its client gives up (max_reconnect_failures).
        if not self._clients:
            return len(self.hosts)
        return len([c for c in self._clients if not c.stopping])

    def stop(self):
        """Flag every client, then join each: a client mid long-poll
        leaves within ``poll_wait``, so the join is bounded."""
        for client in self._clients:
            client.stop()
        for client in self._clients:
            client.join(timeout=self.poll_wait + _REAP_TIMEOUT)


def build_executor(name: str, *, workers: int = 2,
                   hosts: Optional[Sequence[str]] = None) -> Executor:
    """Construct an executor by transport name (the CLI surface).

    Args:
        name: One of :data:`EXECUTOR_NAMES`.
        workers: Fleet size for ``local``.
        hosts: ``host:port`` list for ``http``.

    Raises:
        DCudaUsageError: Unknown name, or ``http`` without hosts.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "local":
        return LocalPoolExecutor(workers=workers)
    if name == "http":
        return HTTPWorkerExecutor(hosts or ())
    raise DCudaUsageError(
        f"unknown executor {name!r}; available: "
        f"{', '.join(EXECUTOR_NAMES)}")
