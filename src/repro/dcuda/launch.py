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

from ..errors import DCudaFaultError, DCudaTimeoutError, DCudaUsageError
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

    With a fault plane attached (``MachineConfig.faults``) the run is
    guarded by a simulated-time watchdog: instead of hanging, a launch
    that outlives ``FaultsConfig.watchdog`` raises
    :class:`~repro.errors.DCudaTimeoutError` naming the unfinished ranks.
    A run whose schedule drains with a rank unfinished (a deadlock) or
    the runtime non-quiescent is diagnosed with or without a plane, and
    the error class names the cause: a fault only if the plane injected
    one.

    Raises:
        DCudaTimeoutError: the simulated-time watchdog expired (faults
            attached only).
        DCudaFaultError: the run drained but rank processes or the runtime
            never completed, after the plane injected a fault.
        DCudaUsageError: same diagnosis when nothing was injected (no
            plane, or an inert one): the kernel itself is at fault.
    """
    if isinstance(cluster, MachineConfig):
        cluster = Cluster(cluster)
    faults = getattr(cluster, "faults", None)
    runtime = DCudaRuntime(cluster, ranks_per_device)
    runtime.start()
    args = kernel_args or {}
    t0 = cluster.env._now
    procs = []
    for world_rank in range(runtime.total_ranks):
        drank = DRank(runtime, world_rank)
        procs.append(cluster.env.process(kernel(drank, **args),
                                         name=f"kernel:r{world_rank}"))
    if faults is not None and faults.cfg.watchdog > 0:
        drained = cluster.env.run_watchdog(t0 + faults.cfg.watchdog)
        if not drained:
            unfinished = [p.name for p in procs if not p.triggered]
            raise DCudaTimeoutError(
                f"watchdog: simulated time exceeded "
                f"{faults.cfg.watchdog:.3e}s with "
                f"{len(unfinished)} rank(s) unfinished "
                f"({', '.join(unfinished) or 'runtime only'})",
                sim_time=cluster.env._now)
    else:
        cluster.run()
    injected = faults is not None and faults.total_injections() > 0
    error = DCudaFaultError if injected else DCudaUsageError
    for p in procs:
        if not p.triggered:
            raise error(f"deadlock: rank process {p.name} never completed",
                        sim_time=cluster.env._now)
    problems = runtime.check_quiescent()
    if problems:
        raise error("runtime not quiescent after launch: "
                    + "; ".join(problems), sim_time=cluster.env._now)
    return LaunchResult(elapsed=cluster.env._now - t0,
                        results=[p.value for p in procs],
                        runtime=runtime, tracer=cluster.tracer,
                        log_records=runtime.log_records)
