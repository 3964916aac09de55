"""The simulated GPU cluster: nodes + interconnect + shared clock."""

from __future__ import annotations

from typing import List, Optional, Sequence, Type

from ..errors import (
    DCudaError,
    DCudaFaultError,
    DCudaTimeoutError,
    DCudaUsageError,
)
from ..faults.plane import FaultPlane
from ..obs.core import Observability
from ..platform.resolve import Platform
from ..sim import Environment, Process, Tracer
from ..net.fabric import Fabric
from .config import MachineConfig, greina
from .node import Node

__all__ = ["Cluster"]


class Cluster:
    """A cluster of nodes described by the resolved :class:`Platform`.

    Owns the simulation :class:`Environment`, the per-node hardware, the
    interconnect :class:`Fabric`, the activity :class:`Tracer`, and the
    :class:`~repro.obs.Observability` handle (metrics registry).  All
    higher layers (MPI substrate, dCUDA runtime, applications) are built
    against a ``Cluster`` instance.

    The hardware shape — node count, GPUs per node, per-class configs,
    interconnect routes — comes from :attr:`platform`, which resolves
    the config's declarative :class:`~repro.platform.topology.Topology`
    (or the legacy "N identical single-GPU nodes on a flat fabric" shape
    when no topology is set).
    """

    def __init__(self, cfg: Optional[MachineConfig] = None,
                 env: Optional[Environment] = None):
        # `x if x is not None else default`, never `x or default`: a
        # caller-supplied object must not be silently replaced just
        # because it is falsy (e.g. an Environment subclass defining
        # __bool__/__len__).
        self.cfg = cfg if cfg is not None else greina()
        self.env = env if env is not None else Environment()
        #: The resolved hardware abstraction (topology, routes, specs).
        self.platform = Platform(self.cfg)
        self.obs = Observability(self.cfg.obs)
        # The event loop's totals, read off the schedule at snapshot time.
        stats = self.env.stats
        self.obs.view("sim.scheduled", lambda: stats.scheduled)
        self.obs.view("sim.pending", lambda: stats.pending)
        self.obs.view("sim.entries", lambda: stats.entries)
        # Observability implies interval tracing (the overlap report and
        # the Perfetto export are computed from the intervals).
        self.tracer = Tracer(enabled=self.cfg.tracing or self.obs.enabled)
        #: Fault plane (or None when ``cfg.faults`` is unset/disabled);
        #: threaded through nodes, devices, links, and queues exactly like
        #: the observability handle.
        self.faults = FaultPlane.build(self.env, self.cfg.faults,
                                       self.platform.num_nodes, obs=self.obs)
        self.nodes: List[Node] = [
            Node(self.env, i, self.platform.node_spec(i),
                 tracer=self.tracer, obs=self.obs, faults=self.faults)
            for i in range(self.platform.num_nodes)
        ]
        self.fabric = Fabric(self.env, self.cfg.fabric,
                             self.platform.num_nodes, obs=self.obs,
                             faults=self.faults, platform=self.platform)

    @property
    def num_nodes(self) -> int:
        return self.platform.num_nodes

    @property
    def total_gpus(self) -> int:
        return self.platform.total_gpus

    def node(self, index: int) -> Node:
        return self.nodes[index]

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns the final simulated time."""
        self.env.run(until=until)
        return self.env.now

    def run_processes(self, procs: Sequence[Process]) -> Type[DCudaError]:
        """Run a program's *procs* to the end; a hang ends typed.

        The one run-and-diagnose rule of both programming models
        (:func:`~repro.dcuda.launch.launch` and
        :func:`~repro.mpicuda.runtime.run_mpicuda`).  With a fault plane
        attached, a simulated-time watchdog of ``FaultsConfig.watchdog``
        seconds (``0`` disables it) stops a run that keeps scheduling
        work; a run whose schedule drains with a process of *procs*
        unfinished is a deadlock, plane or not.  The class names the
        cause: a fault only if the plane injected something, otherwise
        the program itself is at fault.

        Returns:
            The class a later diagnosis of the same run raises:
            ``DCudaFaultError`` after an injection, else
            ``DCudaUsageError``.

        Raises:
            DCudaTimeoutError: the watchdog expired after an injection.
            DCudaFaultError: a deadlock after an injection.
            DCudaUsageError: either hang with nothing injected (no
                plane, or an inert one).
        """
        env = self.env
        faults = self.faults
        watchdog = faults.cfg.watchdog if faults is not None else 0.0
        if watchdog > 0:
            drained = env.run_watchdog(env._now + watchdog)
        else:
            env.run()
            drained = True
        injected = faults is not None and faults.total_injections() > 0
        unfinished = [p.name for p in procs if not p.triggered]
        if not drained:
            message = (f"watchdog: simulated time exceeded {watchdog:.3e}s "
                       f"with {len(unfinished)} process(es) unfinished "
                       f"({', '.join(unfinished) or 'runtime only'})")
            if injected:
                raise DCudaTimeoutError(message, sim_time=env._now)
            raise DCudaUsageError(
                message + "; the plane injected nothing, so a process "
                "spins on a wait nothing will satisfy, or the run needs "
                "more than FaultsConfig.watchdog", sim_time=env._now)
        error = DCudaFaultError if injected else DCudaUsageError
        if unfinished:
            raise error(f"deadlock: process {unfinished[0]} never "
                        "completed", sim_time=env._now)
        return error

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Cluster {self.num_nodes} nodes @ t={self.env.now:.6e}s>"
