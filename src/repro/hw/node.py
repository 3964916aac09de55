"""A cluster node: host CPU + one or more GPUs with their PCIe links."""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, List, Optional

from ..platform.resolve import NodeSpec
from ..sim import Environment, Event, Semaphore, Tracer
from .gpu import Device
from .pcie import PCIeLink

__all__ = ["Node"]


class Node:
    """One node: a host, ``gpus_per_node`` GPUs, and a PCIe port each.

    The host *runtime worker* is a one-token FCFS semaphore — the paper's
    runtime system "guarantees progress using a single worker thread"
    (§III-A), so all block-manager and event-handler actions on a node
    serialize on it, regardless of how many GPUs the node carries.

    The node's shape comes from its resolved platform
    :class:`~repro.platform.resolve.NodeSpec`: GPU count, per-class
    GPU/PCIe configs, and the intra-node GPU↔GPU link.  Single-GPU nodes
    keep the legacy component names (``node3.gpu``, ``node3.pcie``) so
    fault targets and metric labels stay stable; dense nodes number
    their devices (``node3.gpu0`` … ``node3.gpu3``).  :attr:`device` and
    :attr:`pcie` alias the first GPU/port for the one-GPU call sites.
    """

    def __init__(self, env: Environment, index: int, spec: NodeSpec,
                 tracer: Optional[Tracer] = None, obs: Any = None,
                 faults: Any = None):
        self.env = env
        self.index = index
        self.name = f"node{index}"
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Observability handle (or None); the runtime layer picks it up
        #: from here to instrument this node's queues and managers.
        self.obs = obs
        #: Fault plane (or None); the runtime layer picks it up from here
        #: to harden this node's queues.
        self.faults = faults
        #: Resolved platform description of this node.
        self.spec = spec
        single = spec.gpus_per_node == 1
        #: The node's GPUs, indexed by local GPU ordinal.
        self.gpus: List[Device] = []
        #: One host↔device PCIe port per GPU.
        self.pcie_ports: List[PCIeLink] = []
        for g in range(spec.gpus_per_node):
            suffix = "" if single else str(g)
            self.gpus.append(Device(env, spec.gpu,
                                    name=f"{self.name}.gpu{suffix}",
                                    tracer=self.tracer, obs=obs,
                                    faults=faults))
            self.pcie_ports.append(PCIeLink(env, spec.pcie,
                                            name=f"{self.name}.pcie{suffix}"))
        #: First GPU / PCIe port (the whole machine on single-GPU nodes).
        self.device = self.gpus[0]
        self.pcie = self.pcie_ports[0]
        self.worker = Semaphore(env, 1, name=f"{self.name}.worker")
        #: Host time charged to the worker, counted when each hold starts.
        self.worker_busy_time = 0.0
        if obs:
            # The PCIe transaction counts (§III-C: one mapped write per
            # enqueue, one read per credit reload) and the host worker's
            # busy time, read from their owners when the registry dumps.
            for port in self.pcie_ports:
                for stat in ("mapped_writes", "mapped_reads", "dma_copies",
                             "dma_bytes"):
                    obs.view(f"{port.name}.{stat}",
                             partial(getattr, port, stat))
            obs.view(f"{self.worker.name}.busy_time",
                     partial(getattr, self, "worker_busy_time"))

    @property
    def gpus_per_node(self) -> int:
        return len(self.gpus)

    def gpu(self, index: int) -> Device:
        """The node's GPU *index* (0-based local ordinal)."""
        return self.gpus[index]

    def pcie_port(self, index: int) -> PCIeLink:
        """The PCIe port attached to GPU *index*."""
        return self.pcie_ports[index]

    def host_work(self, duration: float) -> Generator[Event, Any, None]:
        """Charge *duration* of host runtime-worker time (FCFS)."""
        worker = self.worker
        yield worker.request()
        try:
            self.worker_busy_time += duration
            yield duration
        finally:
            worker.release()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<Node {self.name} ({len(self.gpus)} GPU(s))>"
