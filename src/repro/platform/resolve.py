"""Platform resolution: one MachineConfig → one concrete machine.

:class:`Platform` is the single hardware abstraction the rest of the
stack consumes.  It collapses the declarative pieces — the machine's
:class:`~repro.hw.config.MachineConfig` defaults, an optional
:class:`~repro.platform.topology.Topology`, and a
:class:`~repro.platform.placement.PlacementSpec` — into concrete
answers to the only questions the other layers ask:

* ``hw``: how many nodes, and what does node *i* look like
  (:meth:`Platform.node_spec` → GPU count, per-class GPU/PCIe configs,
  intra-node link)?
* ``net``: which links does a ``src → dst`` message cross
  (:attr:`Platform.routing`), and what does the same-node loopback cost
  (:meth:`Platform.intra_link_of`)?
* ``runtime``/``dcuda``: which ``(node, gpu)`` hosts world rank *r*
  (:meth:`Platform.place`)?
* ``mpi``: what does host staging cost at node *i*
  (:meth:`Platform.pcie_of`)?

A config without a topology resolves to the legacy machine —
``num_nodes`` identical single-GPU nodes on a flat fabric — with the
same defaults everywhere, which is what keeps the golden-timestamp
fixtures bit-identical through this refactor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from ..errors import DCudaUsageError
from .placement import Placement, PlacementSpec, resolve_placement
from .routing import RoutingTable, build_routing
from .topology import (
    DEFAULT_INTRA_LINK,
    Interconnect,
    LinkSpec,
    NodeClass,
    Topology,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.config import MachineConfig

__all__ = ["NodeSpec", "Platform"]


@dataclass(frozen=True)
class NodeSpec:
    """Everything :class:`~repro.hw.node.Node` needs to build itself."""

    index: int
    class_name: str
    gpus_per_node: int
    gpu: Any        # GPUConfig
    pcie: Any       # PCIeConfig
    intra_link: LinkSpec


class Platform:
    """The resolved hardware abstraction behind one cluster."""

    def __init__(self, cfg: "MachineConfig"):
        from ..hw.config import GPUConfig, PCIeConfig

        self.cfg = cfg
        topology = cfg.topology
        if topology is None:
            topology = Topology(
                node_classes=(NodeClass(count=cfg.num_nodes),),
                interconnect=Interconnect("flat"))
        elif cfg.num_nodes not in (1, topology.num_nodes):
            # num_nodes=1 is the untouched default; anything else must
            # agree with the topology instead of silently losing.
            raise DCudaUsageError(
                f"MachineConfig.num_nodes={cfg.num_nodes} contradicts its "
                f"topology ({topology.num_nodes} nodes); drop num_nodes "
                "or make them agree")
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.devices: Tuple[Tuple[int, int], ...] = topology.devices()
        #: Per-node resolved specs, indexed by node.
        self.node_specs: List[NodeSpec] = []
        node = 0
        for nc in topology.node_classes:
            gpu = nc.gpu if nc.gpu is not None else cfg.gpu
            pcie = nc.pcie if nc.pcie is not None else cfg.pcie
            if not isinstance(gpu, GPUConfig):
                raise DCudaUsageError(
                    f"NodeClass {nc.name!r}: gpu must be a GPUConfig, "
                    f"got {type(gpu).__name__}")
            if not isinstance(pcie, PCIeConfig):
                raise DCudaUsageError(
                    f"NodeClass {nc.name!r}: pcie must be a PCIeConfig, "
                    f"got {type(pcie).__name__}")
            intra = (nc.intra_link if nc.intra_link is not None
                     else DEFAULT_INTRA_LINK)
            for _ in range(nc.count):
                self.node_specs.append(NodeSpec(
                    index=node, class_name=nc.name,
                    gpus_per_node=nc.gpus_per_node, gpu=gpu, pcie=pcie,
                    intra_link=intra))
                node += 1
        #: Shortest-path routes, or ``None`` on the flat fast path.
        self.routing: Optional[RoutingTable] = build_routing(
            topology, LinkSpec(bandwidth=cfg.fabric.bandwidth,
                               latency=cfg.fabric.latency))

    # -- hw ----------------------------------------------------------------
    def node_spec(self, node: int) -> NodeSpec:
        """Resolved description of node *node*."""
        if not 0 <= node < self.num_nodes:
            raise DCudaUsageError(
                f"node {node} out of range (platform has "
                f"{self.num_nodes} nodes)")
        return self.node_specs[node]

    @property
    def total_gpus(self) -> int:
        return len(self.devices)

    # -- net ---------------------------------------------------------------
    def intra_link_of(self, node: int) -> LinkSpec:
        """The intra-node (loopback / NVLink-class) link of node *node*."""
        return self.node_spec(node).intra_link

    # -- mpi ---------------------------------------------------------------
    def pcie_of(self, node: int) -> Any:
        """The PCIe config of node *node* (host-staging DMA costs)."""
        return self.node_spec(node).pcie

    # -- runtime -----------------------------------------------------------
    def place(self, ranks_per_device: int,
              spec: Optional[PlacementSpec] = None) -> Placement:
        """Resolve the machine's placement for *ranks_per_device*.

        Uses the config's :class:`PlacementSpec` unless *spec* overrides
        it, and enforces each GPU's resident-block capacity.
        """
        if spec is None:
            spec = self.cfg.placement
        placement = resolve_placement(self.devices, ranks_per_device, spec)
        for node, gpu in self.devices:
            count = len(placement.ranks_on_device(node, gpu))
            cap = self.node_spec(node).gpu.max_blocks
            if count > cap:
                raise DCudaUsageError(
                    f"placement puts {count} ranks on node{node}.gpu{gpu}, "
                    f"exceeding the device in-flight limit of {cap}; "
                    "dCUDA requires all ranks resident at once")
        return placement

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"<Platform {self.num_nodes} nodes / {self.total_gpus} GPUs "
                f"on {self.topology.interconnect.kind}>")
