"""The sweep service: pluggable executors, sharded cache, coordinator.

The paper's evaluation is a fleet of *independent* simulations — figure
points, ablation cells, chaos seeds, throughput probes.  This package
turns each of them into a picklable :class:`~repro.exec.spec.RunSpec`
and executes whole sweeps through three cooperating layers:

* **Executors** (:mod:`repro.exec.executors`) — *where* tasks run:
  in-process serial, a same-host fleet of long-lived worker processes
  over pipes (``local``), or HTTP worker daemons on other machines —
  one protocol and one worker program, so every transport is
  interchangeable.
* **Store** (:mod:`repro.exec.cache`) — results memoized on disk keyed
  by content hash + source-tree fingerprint, sharded by key prefix over
  a constant fan-out so the directory scales to large campaigns.
* **Coordinator** (:mod:`repro.exec.coordinator`) — *what* runs when:
  the spec queue, cache probes, in-flight dedup, retry on worker loss,
  poisoned-spec quarantine, and streamed progress.

A task is its spec — an entrypoint is ``fn(params)`` — and results are
merged by submission index, so every sweep is **bit-identical to serial
execution** for any executor, worker count, and any sequence of worker
deaths (:func:`~repro.exec.engine.run_specs` is the one-call surface).

Command line::

    python -m repro.exec run chaos --seeds 50 --workers 4
    python -m repro.exec run fig6 --executor http --hosts 127.0.0.1:8791
    python -m repro.exec worker --port 8791
    python -m repro.exec status
    python -m repro.exec cache stats --shard
    python -m repro.exec cache gc

See ``docs/sweep_service.md`` for the architecture and
``docs/performance.md`` for the determinism argument.
"""

from .cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from .coordinator import Coordinator, ProgressEvent
from .engine import SweepReport, default_workers, run_specs
from .executors import (
    EXECUTOR_NAMES,
    Executor,
    HTTPWorkerExecutor,
    LocalPoolExecutor,
    SerialExecutor,
    build_executor,
)
from .fingerprint import source_fingerprint
from .spec import (
    RunSpec,
    canonical_digest,
    entrypoint,
    registered_entrypoints,
    resolve_entrypoint,
)

__all__ = [
    "RunSpec",
    "canonical_digest",
    "entrypoint",
    "resolve_entrypoint",
    "registered_entrypoints",
    "run_specs",
    "SweepReport",
    "default_workers",
    "Coordinator",
    "ProgressEvent",
    "Executor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "HTTPWorkerExecutor",
    "build_executor",
    "EXECUTOR_NAMES",
    "ResultCache",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "source_fingerprint",
]
