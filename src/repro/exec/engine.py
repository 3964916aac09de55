"""The deterministic sweep engine: one call, any executor.

:func:`run_specs` is the stable library surface from PR 4; since the
sweep-as-a-service refactor it is a thin wrapper that picks an executor
transport (:mod:`repro.exec.executors`) and hands the spec list to the
:class:`~repro.exec.coordinator.Coordinator`, which owns merging,
caching, in-flight dedup, retry-on-worker-loss, and quarantine.

Determinism argument (the proof sketch expanded in
``docs/performance.md`` and ``docs/sweep_service.md``): every
entrypoint is a *pure function* of its spec's params — each task
builds its own :class:`~repro.sim.Environment` and cluster from config
data, the simulator is fully deterministic given its inputs, and
workers share no mutable state (fresh interpreters).  The coordinator
assigns each spec an index at submission, executes tasks in whatever
order on whichever transport, and merges results *by index*.  Therefore
the merged result list is a pure function of the spec list alone —
bit-identical for any executor, worker count, and any sequence of
worker deaths survived by retry.  The golden-timestamp
fixture, the chaos contract, and the worker-loss fuzz harness
(``tests/exec/``) enforce this empirically.

Failure surface: a task that raises a typed
:class:`~repro.errors.DCudaError` propagates it unchanged; any other
exception in a worker is wrapped in
:class:`~repro.errors.DCudaWorkerError` carrying the task label and the
original traceback text, and a per-task ``timeout`` (a stuck worker is
terminated) surfaces as :class:`~repro.errors.DCudaTimeoutError`.  A
worker that *dies* is not a task failure: the coordinator re-dispatches
the in-flight job to a surviving (or respawned) worker up to its
attempt budget, and only a spec that kills distinct workers on every
attempt is quarantined into a single typed
:class:`~repro.errors.DCudaWorkerError` after the rest of the sweep
completes.  Serial execution runs in-process and lets exceptions
propagate raw — the debugging-friendly behaviour of the historical
inline loops.  ("Re-run serially" is a debugging aid, not the recovery
path; recovery is the coordinator's retry/quarantine loop.)

Caching: pass a :class:`~repro.exec.cache.ResultCache` (or a directory
path) and every spec is first probed by content key against the
store; hits skip execution entirely, misses execute and are
published atomically, so an unchanged sweep replays near-instantly and
an interrupted sweep resumes from its completed prefix.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..errors import DCudaUsageError
from .cache import ResultCache
from .coordinator import Coordinator, ProgressEvent, SweepReport
from .executors import EXECUTOR_NAMES, Executor, build_executor
from .spec import RunSpec

__all__ = ["SweepReport", "run_specs", "default_workers",
           "default_executor_name", "WORKERS_ENV", "EXECUTOR_ENV",
           "HOSTS_ENV"]

#: Environment knob consulted when ``workers`` is not given explicitly:
#: tests and CI set ``REPRO_EXEC_WORKERS=2`` to exercise workers without
#: every call site growing a flag.
WORKERS_ENV = "REPRO_EXEC_WORKERS"
#: Environment knob for the executor transport (one of
#: :data:`~repro.exec.executors.EXECUTOR_NAMES`); same opt-in philosophy
#: as the worker knob.
EXECUTOR_ENV = "REPRO_EXEC_EXECUTOR"
#: Comma-separated ``host:port`` list for the ``http`` transport.
HOSTS_ENV = "REPRO_EXEC_HOSTS"


def default_workers() -> int:
    """Worker count when unspecified: ``$REPRO_EXEC_WORKERS`` or 1.

    Serial is the deliberate default — library callers (tier-1 tests,
    the golden capture) stay deterministic-cheap, and parallelism is an
    explicit opt-in via flag or environment.
    """
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise DCudaUsageError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}") from None


def default_executor_name(workers: int) -> str:
    """Transport when unspecified: ``$REPRO_EXEC_EXECUTOR``, else by
    worker count (1 ⇒ ``serial``, more ⇒ ``local``)."""
    raw = os.environ.get(EXECUTOR_ENV, "").strip().lower()
    if raw:
        if raw not in EXECUTOR_NAMES:
            raise DCudaUsageError(
                f"{EXECUTOR_ENV} must be one of "
                f"{', '.join(EXECUTOR_NAMES)}; got {raw!r}")
        return raw
    return "serial" if workers <= 1 else "local"


def _env_hosts() -> tuple:
    raw = os.environ.get(HOSTS_ENV, "").strip()
    return tuple(h.strip() for h in raw.split(",") if h.strip())


def _resolve_executor(executor, workers: int, hosts):
    """Normalize the ``executor`` argument to ``(Executor, fallback)``.

    ``fallback`` enables the coordinator's serial shortcut for an
    *auto-built* ``local`` fleet — the historical "don't spin up
    workers for one task" behaviour.  An executor instance the caller
    built is used exactly as given; an explicit ``http`` transport keeps
    its remote workers even for tiny sweeps (the point may be the remote
    environment).
    """
    if isinstance(executor, Executor):
        return executor, False
    if executor is None:
        executor = default_executor_name(workers)
    if not isinstance(executor, str):
        raise DCudaUsageError(
            f"executor must be an Executor instance or one of "
            f"{', '.join(EXECUTOR_NAMES)}; got {executor!r}")
    hosts = tuple(hosts or ()) or _env_hosts()
    built = build_executor(executor, workers=workers, hosts=hosts)
    return built, executor == "local"


def run_specs(specs: Sequence[RunSpec], *,
              workers: Optional[int] = None,
              cache: Union[ResultCache, os.PathLike, str, None] = None,
              shared: Optional[Mapping[str, Any]] = None,
              timeout: Optional[float] = None,
              executor: Union[Executor, str, None] = None,
              hosts: Optional[Sequence[str]] = None,
              on_event: Optional[Callable[[ProgressEvent], None]] = None,
              max_attempts: int = 3) -> SweepReport:
    """Execute a sweep of :class:`RunSpec` tasks; results in spec order.

    Args:
        specs: The tasks.  Each must reference a registered entrypoint.
        workers: Process count; ``None`` consults ``$REPRO_EXEC_WORKERS``
            (default 1 = serial in-process).  Values > 1 use a process
            transport for crash isolation and true parallelism.
        cache: ``None`` (no caching), a :class:`ResultCache`, or a
            directory path to open one at.
        shared: ``None`` or an empty mapping, and nothing else: an
            entrypoint takes only its params, so a sweep-wide input is
            rebuilt from them in the worker (as the chaos baseline is).
        timeout: Per-task wall-clock budget [s].  Enforced on preemptive
            (process) transports — a stuck worker is terminated; serial
            execution cannot preempt a running task and ignores it.
        executor: Transport: an :class:`~repro.exec.executors.Executor`
            instance, a name from
            :data:`~repro.exec.executors.EXECUTOR_NAMES`, or ``None``
            to consult ``$REPRO_EXEC_EXECUTOR`` and fall back to
            ``serial``/``local`` by worker count.
        hosts: ``host:port`` worker daemons for the ``http`` transport
            (``$REPRO_EXEC_HOSTS`` when omitted).
        on_event: Optional progress callback receiving
            :class:`~repro.exec.coordinator.ProgressEvent` updates.
        max_attempts: Dispatch budget per spec across worker losses
            before quarantine.

    Returns:
        A :class:`SweepReport`; ``.results[i]`` corresponds to
        ``specs[i]`` regardless of executor, worker count, or
        completion order.

    Raises:
        DCudaUsageError: Unknown entrypoint, executor, or bad knobs,
            or a non-empty *shared*.
        DCudaTimeoutError: A task exceeded *timeout* (process modes).
        DCudaWorkerError: A task raised an untyped exception in a
            worker, or a spec was quarantined after exhausting its
            dispatch attempts on distinct workers (serial execution
            propagates task exceptions raw).
    """
    if shared is not None and (not isinstance(shared, Mapping) or shared):
        raise DCudaUsageError(
            f"run_specs(shared=) takes only None or an empty mapping, got "
            f"{shared!r}: an entrypoint reads nothing but its spec's params")
    if workers is None:
        workers = default_workers()
    workers = max(1, int(workers))
    ex, fallback = _resolve_executor(executor, workers, hosts)
    coordinator = Coordinator(ex, cache=cache, max_attempts=max_attempts,
                              on_event=on_event, workers_hint=workers,
                              serial_fallback=fallback)
    return coordinator.run(specs, timeout=timeout)
