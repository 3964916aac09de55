"""The simulated GPU cluster: nodes + interconnect + shared clock."""

from __future__ import annotations

from typing import List, Optional

from ..faults.plane import FaultPlane
from ..obs.core import Observability
from ..platform.resolve import Platform
from ..sim import Environment, Tracer
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
            Node(self.env, self.cfg, i, tracer=self.tracer, obs=self.obs,
                 faults=self.faults, spec=self.platform.node_spec(i))
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

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Cluster {self.num_nodes} nodes @ t={self.env.now:.6e}s>"
