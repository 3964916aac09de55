"""The sweep coordinator: queue, dedup, retry, quarantine, progress.

Sits between spec lists and :mod:`repro.exec.executors`: the
coordinator owns every policy decision the executor protocol
deliberately excludes —

* **Merging**: results are placed by *submission index*, so the merged
  list (and its :func:`~repro.exec.spec.canonical_digest`) is a pure
  function of the spec list alone — bit-identical for any executor,
  worker count, and any sequence of worker deaths.  An executor only
  decides *when* a completion arrives, never *what* it contains, and a
  retried task re-runs the same pure function.
* **Caching**: one probe and one publish per unique task key (the
  spec's content hash) against the sharded
  :class:`~repro.exec.cache.ResultCache`.  A publish the store refuses
  (full disk, read-only or deleted cache) leaves that result uncached
  and is counted in :attr:`SweepReport.publish_failures`; it never
  fails the sweep.
* **In-flight dedup**: identical cacheable specs submitted concurrently
  execute once; every duplicate index receives the same result and is
  counted as a ``dedup_hit``.  Non-cacheable specs (wall-clock probes)
  are never deduplicated — collapsing two measurements into one would
  be the same lie as caching them.
* **Retry on worker loss**: a task whose worker died is re-dispatched —
  the job, not the worker, is the unit of recovery — up to
  *max_attempts* times.  A spec that kills *distinct* workers on every
  attempt is **quarantined**: it stops being dispatched, the rest of
  the sweep completes, and the coordinator raises a single typed
  :class:`~repro.errors.DCudaWorkerError` naming the spec and the
  workers it took down.  Typed task errors (including untyped
  exceptions wrapped by the worker) are deterministic and propagate
  immediately — re-running a failing function would fail again.
* **Progress streaming**: every state change emits a
  :class:`ProgressEvent` to the ``on_event`` callback and (when a cache
  is attached) to ``<cache-root>/status.json``, which ``python -m
  repro.exec status`` renders as a live progress line.  A sweep with
  nothing to execute writes the file once, with its final record.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import DCudaTimeoutError, DCudaWorkerError
from .cache import ResultCache
from .executors import Executor, Job, SerialExecutor
from .spec import RunSpec

__all__ = ["Coordinator", "ProgressEvent", "SweepReport",
           "STATUS_FILENAME"]

#: Live progress file written into the cache root while a sweep runs.
STATUS_FILENAME = "status.json"


@dataclass
class SweepReport:
    """Outcome of one coordinated sweep.

    ``results`` is in submission order — index ``i`` is the result of
    ``specs[i]`` — independent of executor, worker count, completion
    order, and any worker deaths survived along the way.
    """

    results: List[Any]
    tasks: int
    #: Unique tasks physically executed (after cache hits and dedup).
    executed: int
    cache_hits: int
    workers: int
    wall_s: float
    #: Duplicate in-flight specs served by another index's execution.
    dedup_hits: int = 0
    #: Re-dispatches performed after worker loss.
    retries: int = 0
    #: Executor transport that ran the sweep.
    executor: str = "serial"
    #: Coordinator phase times [s]: task keys (spec digests), cache
    #: probes, cache publishes.  Timings never enter a results digest.
    key_s: float = 0.0
    probe_s: float = 0.0
    publish_s: float = 0.0
    #: Executed results the cache refused to store (returned, not cached).
    publish_failures: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of tasks served from the cache (0.0 for empty sweeps)."""
        return self.cache_hits / self.tasks if self.tasks else 0.0

    def summary(self) -> str:
        """One-line human-readable engine summary."""
        line = (f"{self.tasks} task(s), {self.workers} worker(s) "
                f"[{self.executor}], {self.cache_hits} cache hit(s) "
                f"({self.cache_hit_rate:.0%}), {self.executed} executed, "
                f"{self.wall_s:.2f}s wall")
        if self.dedup_hits:
            line += f", {self.dedup_hits} dedup hit(s)"
        if self.retries:
            line += f", {self.retries} retried after worker loss"
        if self.publish_failures:
            line += f", {self.publish_failures} not cached (publish failed)"
        return (line + f"; keys {self.key_s * 1e3:.1f} ms, probes "
                f"{self.probe_s * 1e3:.1f} ms, publishes "
                f"{self.publish_s * 1e3:.1f} ms")


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed coordinator state change.

    ``kind`` is one of ``start``, ``cache-hit``, ``done``,
    ``worker-lost``, ``retry``, ``quarantine``, ``finish``.
    """

    kind: str
    done: int
    total: int
    cache_hits: int = 0
    dedup_hits: int = 0
    retries: int = 0
    quarantined: int = 0
    label: str = ""
    worker: str = ""

    def line(self) -> str:
        """Render the one-line progress string the CLIs print."""
        extra = ""
        if self.dedup_hits:
            extra += f", {self.dedup_hits} dedup"
        if self.retries:
            extra += f", {self.retries} retried"
        if self.quarantined:
            extra += f", {self.quarantined} quarantined"
        return (f"{self.done}/{self.total} done, "
                f"{self.cache_hits} cached{extra}")


@dataclass
class _JobState:
    """Book-keeping for one unique in-flight task."""

    spec: RunSpec
    indices: List[int]
    key: str = ""
    attempts: int = 0
    lost_workers: List[str] = field(default_factory=list)


class Coordinator:
    """Drives a spec queue through an executor to a merged report.

    Args:
        executor: Any :class:`~repro.exec.executors.Executor`.  The
            coordinator starts and stops it around :meth:`run`.
        cache: Optional :class:`~repro.exec.cache.ResultCache` (or a
            directory path to open one at).
        max_attempts: Dispatch budget per spec across worker losses;
            exhausting it on distinct workers quarantines the spec.
        on_event: Optional ``callback(ProgressEvent)`` for streaming
            progress (the CLI's live line; tests assert event order).
        workers_hint: Worker count recorded in the report (defaults to
            the executor's ``alive_workers`` at start).
        serial_fallback: When True (the engine's default for
            auto-built executors), a sweep that resolves to at most one
            unique miss skips the transport and runs in-process — the
            historical "don't spin up workers for one task" behaviour,
            which also preserves raw exception propagation for that
            case.  Explicitly constructed executors keep their
            transport regardless.
    """

    def __init__(self, executor: Executor, *,
                 cache: Optional[ResultCache] = None,
                 max_attempts: int = 3,
                 on_event: Optional[Callable[[ProgressEvent], None]] = None,
                 workers_hint: Optional[int] = None,
                 serial_fallback: bool = False):
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.executor = executor
        self.cache = cache
        self.max_attempts = max(1, int(max_attempts))
        self.on_event = on_event
        self.workers_hint = workers_hint
        self.serial_fallback = serial_fallback
        self._status_path = (cache.root / STATUS_FILENAME
                             if cache is not None else None)
        self._last_status_write = 0.0
        self._active: Executor = executor

    # ------------------------------------------------------- streaming -----
    def _emit(self, event: ProgressEvent, final: bool = False,
              record: bool = True) -> None:
        if self.on_event is not None:
            self.on_event(event)
        if self._status_path is None or not record:
            return
        now = time.monotonic()
        if not final and now - self._last_status_write < 0.1:
            return  # throttle: the status file is a UI, not a journal
        self._last_status_write = now
        record = dict(asdict(event),
                      state="done" if final else "running",
                      executor=self._active.name,
                      updated_unix=time.time())
        try:
            self._status_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self._status_path.with_name(
                f".{STATUS_FILENAME}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(record, sort_keys=True) + "\n")
            os.replace(tmp, self._status_path)
        except OSError:
            pass  # progress is best-effort; never fail a sweep over it

    # ------------------------------------------------------------- run -----
    def run(self, specs: Sequence[RunSpec], *,
            timeout: Optional[float] = None) -> SweepReport:
        """Execute *specs*; return the merged, submission-ordered report.

        Args:
            specs: The tasks; each must name a registered entrypoint.
            timeout: Per-task wall-clock budget [s], enforced on
                preemptive executors only (serial execution cannot
                preempt a running task and ignores it, as the engine
                always has).

        Raises:
            DCudaUsageError: Unknown entrypoint or unhashable params.
            DCudaTimeoutError: No completion arrived within *timeout*
                while tasks were in flight (the stuck worker is
                killed).
            DCudaWorkerError: A task raised an untyped exception in a
                worker, or a spec was quarantined after exhausting its
                dispatch budget on distinct workers, or every worker
                was lost with no respawn budget left.
        """
        specs = list(specs)
        t0 = time.perf_counter()

        results: List[Any] = [None] * len(specs)
        cache_hits = 0

        # Group indices by task key.  In-flight dedup is a property of
        # the content-addressed store: it only applies to cacheable
        # specs *with a cache attached* (the second submission would
        # have been a cache hit moments later anyway).  Without a cache
        # — or for non-cacheable wall-clock probes — every index runs
        # on its own, exactly like the pre-service engine.
        groups: Dict[str, List[int]] = {}
        group_spec: Dict[str, RunSpec] = {}
        for idx, spec in enumerate(specs):
            if spec.cacheable and self.cache is not None:
                key = self.cache.key_for(spec)
            else:
                key = f"!independent:{idx}"
            groups.setdefault(key, []).append(idx)
            group_spec.setdefault(key, spec)
        t_keys = time.perf_counter()

        # Cache probe: once per unique key.
        jobs: List[_JobState] = []
        dedup_hits = 0
        for key, indices in groups.items():
            spec = group_spec[key]
            if (self.cache is not None and spec.cacheable):
                hit, value = self.cache.get(key)
                if hit:
                    for idx in indices:
                        results[idx] = value
                    cache_hits += len(indices)
                    continue
            dedup_hits += len(indices) - 1
            jobs.append(_JobState(spec=spec, indices=indices, key=key))
        t_probes = time.perf_counter()
        phases = dict(key_s=t_keys - t0, probe_s=t_probes - t_keys)

        ex = self.executor
        if (self.serial_fallback and len(jobs) <= 1
                and not isinstance(ex, SerialExecutor)):
            ex = SerialExecutor()
        self._active = ex
        workers = (self.workers_hint
                   if self.workers_hint is not None
                   else max(1, ex.alive_workers()))
        total = len(specs)
        retries = publish_failures = 0
        publish_s = 0.0
        quarantined: List[_JobState] = []
        done_indices = cache_hits

        def _snapshot(kind, label="", worker=""):
            return ProgressEvent(kind=kind, done=done_indices, total=total,
                                 cache_hits=cache_hits,
                                 dedup_hits=dedup_hits, retries=retries,
                                 quarantined=len(quarantined),
                                 label=label, worker=worker)

        # A sweep with nothing to run records only its final state.
        self._emit(_snapshot("start"), record=bool(jobs))
        if not jobs:
            self._emit(_snapshot("finish"), final=True)
            return SweepReport(
                results=results, tasks=total, executed=0,
                cache_hits=cache_hits, workers=workers,
                wall_s=time.perf_counter() - t0, dedup_hits=dedup_hits,
                executor=ex.name, **phases)

        try:
            ex.start(expected_jobs=len(jobs))
            pending: Dict[int, _JobState] = {}
            order: List[int] = []  # submission order, for timeout blame
            for job_id, state in enumerate(jobs):
                pending[job_id] = state
                order.append(job_id)
                ex.submit(Job(
                    job_id=job_id, entrypoint=state.spec.entrypoint,
                    params=dict(state.spec.params),
                    label=state.spec.describe()))

            enforce_timeout = timeout is not None and ex.preemptive
            waited = 0.0
            tick = 0.25 if enforce_timeout else 1.0
            while pending:
                comp = ex.next_completion(
                    timeout=tick if ex.preemptive else None)
                if comp is None:
                    if ex.alive_workers() <= 0:
                        raise DCudaWorkerError(
                            "every worker was lost and the respawn "
                            "budget is exhausted; the coordinator "
                            "cannot dispatch the remaining "
                            f"{len(pending)} task(s)")
                    waited += tick
                    if enforce_timeout and waited >= timeout:
                        oldest = next(i for i in order if i in pending)
                        label = pending[oldest].spec.describe()
                        raise DCudaTimeoutError(
                            f"sweep task {label!r} exceeded the per-task "
                            f"timeout of {timeout}s") from None
                    continue
                waited = 0.0
                state = pending.get(comp.job_id)
                if state is None:
                    continue  # stale completion from a superseded attempt
                if comp.worker_lost:
                    state.attempts += 1
                    if comp.worker:
                        state.lost_workers.append(comp.worker)
                    self._emit(_snapshot("worker-lost",
                                         label=state.spec.describe(),
                                         worker=comp.worker))
                    if state.attempts >= self.max_attempts:
                        del pending[comp.job_id]
                        quarantined.append(state)
                        self._emit(_snapshot(
                            "quarantine", label=state.spec.describe(),
                            worker=comp.worker))
                    else:
                        retries += 1
                        ex.submit(Job(
                            job_id=comp.job_id,
                            entrypoint=state.spec.entrypoint,
                            params=dict(state.spec.params),
                            label=state.spec.describe()))
                        self._emit(_snapshot(
                            "retry", label=state.spec.describe()))
                    continue
                if comp.error is not None:
                    raise comp.error
                del pending[comp.job_id]
                for idx in state.indices:
                    results[idx] = comp.value
                done_indices += len(state.indices)
                if self.cache is not None and state.spec.cacheable:
                    t_put = time.perf_counter()
                    if not self.cache.put(state.key, comp.value,
                                          label=state.spec.describe()):
                        publish_failures += 1
                    publish_s += time.perf_counter() - t_put
                self._emit(_snapshot("done",
                                     label=state.spec.describe(),
                                     worker=comp.worker))
        finally:
            ex.stop()

        if quarantined:
            self._emit(_snapshot("finish"), final=True)
            lines = []
            for state in quarantined:
                workers_lost = ", ".join(state.lost_workers) or "unknown"
                lines.append(
                    f"  {state.spec.describe()!r} killed its worker on "
                    f"all {state.attempts} attempts ({workers_lost})")
            raise DCudaWorkerError(
                f"{len(quarantined)} spec(s) quarantined after "
                f"exhausting {self.max_attempts} dispatch attempts on "
                "distinct workers (the rest of the sweep completed):\n"
                + "\n".join(lines))

        executed = len(jobs)
        self._emit(_snapshot("finish"), final=True)
        return SweepReport(
            results=results, tasks=total, executed=executed,
            cache_hits=cache_hits, workers=workers,
            wall_s=time.perf_counter() - t0, dedup_hits=dedup_hits,
            retries=retries, executor=ex.name, publish_s=publish_s,
            publish_failures=publish_failures, **phases)
