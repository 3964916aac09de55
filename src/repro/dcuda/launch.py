"""Kernel launching: the dCUDA program entry point.

``launch`` packs the entire application in a single kernel invocation, as
dCUDA programs do: it builds the runtime system, spawns one process per
rank running the user kernel, and drives the simulation to completion.

A *kernel* is a callable ``kernel(rank: DRank, **kernel_args)`` returning a
generator.  Its return value is collected per rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..hw.cluster import Cluster
from ..hw.config import MachineConfig
from ..runtime.system import DCudaRuntime
from ..sim import Tracer
from .device_api import DRank

__all__ = ["launch", "LaunchResult"]


@dataclass
class LaunchResult:
    """Outcome of a dCUDA kernel launch."""

    #: Simulated wall-clock duration of the launch [s].
    elapsed: float
    #: Per-rank kernel return values, indexed by world rank.
    results: List[Any]
    #: The runtime system (for statistics inspection).
    runtime: DCudaRuntime
    #: Activity trace (enabled via ``MachineConfig.tracing``).
    tracer: Tracer
    #: ``rank.log`` records: (time, rank, message).
    log_records: List[Tuple[float, int, str]] = field(default_factory=list)


def launch(cluster: Union[Cluster, MachineConfig], kernel: Callable[..., Any],
           ranks_per_device: int,
           kernel_args: Optional[Dict[str, Any]] = None) -> LaunchResult:
    """Run *kernel* on every rank of the cluster; returns timing + results.

    *cluster* may be a built :class:`Cluster` or a bare
    :class:`MachineConfig`, which is wrapped in a fresh cluster (and hence
    a fresh simulation clock) automatically.

    The rank count per device is capped at the device's in-flight block
    limit — dCUDA's over-subscription rule (§II-B).

    The run and its hang diagnosis are :meth:`Cluster.run_processes
    <repro.hw.cluster.Cluster.run_processes>`: with a fault plane
    attached (``MachineConfig.faults``) a simulated-time watchdog stops a
    launch that outlives ``FaultsConfig.watchdog``, and a schedule that
    drains with a rank unfinished is a deadlock, plane or not.  A runtime
    left non-quiescent is diagnosed here.  Every error class names the
    cause: a fault only if the plane injected one.

    Raises:
        DCudaTimeoutError: the watchdog expired after the plane injected
            a fault.
        DCudaFaultError: the run drained but rank processes or the runtime
            never completed, after the plane injected a fault.
        DCudaUsageError: either diagnosis when nothing was injected (no
            plane, or an inert one): the kernel itself spins, waits
            forever, or needs a longer watchdog.
    """
    if isinstance(cluster, MachineConfig):
        cluster = Cluster(cluster)
    runtime = DCudaRuntime(cluster, ranks_per_device)
    runtime.start()
    args = kernel_args or {}
    t0 = cluster.env._now
    procs = []
    for world_rank in range(runtime.total_ranks):
        drank = DRank(runtime, world_rank)
        procs.append(cluster.env.process(kernel(drank, **args),
                                         name=f"kernel:r{world_rank}"))
    error = cluster.run_processes(procs)
    problems = runtime.check_quiescent()
    if problems:
        raise error("runtime not quiescent after launch: "
                    + "; ".join(problems), sim_time=cluster.env._now)
    return LaunchResult(elapsed=cluster.env._now - t0,
                        results=[p.value for p in procs],
                        runtime=runtime, tracer=cluster.tracer,
                        log_records=runtime.log_records)
