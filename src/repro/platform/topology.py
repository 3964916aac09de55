"""Declarative hardware topology schema.

The paper's Greina testbed — N identical single-GPU nodes on a flat
full-bisection fabric — is one *instance* of a machine, not the only one
worth simulating.  This module turns the hardware shape into **data**:

* :class:`LinkSpec` — one physical link (bandwidth + latency);
* :class:`NodeClass` — a group of identical nodes: GPU count per node,
  optional per-class :class:`~repro.hw.config.GPUConfig` /
  :class:`~repro.hw.config.PCIeConfig` overrides, and the intra-node
  GPU↔GPU link (NVLink-class on dense nodes);
* :class:`Interconnect` — the inter-node network: ``flat`` (today's
  full-bisection model), ``fat_tree`` with an oversubscription factor,
  or ``ring``;
* :class:`Topology` — node classes + interconnect, with convenience
  builders :func:`flat`, :func:`fat_tree`, and :func:`ring`.

The schema deliberately imports nothing from :mod:`repro.hw` — the
hardware layer consumes topologies, not the other way round.  Per-class
GPU/PCIe configs are therefore duck-typed here and validated where they
are instantiated (:mod:`repro.platform.resolve`).

Everything is a frozen dataclass, so topologies hash into the sweep
engine's content-addressed cache like any other config and can be swept
by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..errors import DCudaUsageError

__all__ = [
    "LinkSpec",
    "NodeClass",
    "Interconnect",
    "Topology",
    "INTERCONNECT_KINDS",
    "DEFAULT_INTRA_LINK",
    "flat",
    "fat_tree",
    "ring",
]

INTERCONNECT_KINDS = ("flat", "fat_tree", "ring")


@dataclass(frozen=True)
class LinkSpec:
    """One physical link: streaming bandwidth [B/s] and one-way latency [s]."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise DCudaUsageError(
                f"LinkSpec.bandwidth must be positive, got "
                f"{self.bandwidth!r}")
        if self.latency < 0:
            raise DCudaUsageError(
                f"LinkSpec.latency must be non-negative, got "
                f"{self.latency!r}")


#: The default intra-node loopback path: what one GPU pays to reach a
#: window on the *same* node when no NVLink-class link is configured,
#: and what a :class:`~repro.net.fabric.Fabric` built without a platform
#: uses.  Kept bit-identical so the default machine replays the
#: golden-timestamp fixtures exactly.
DEFAULT_INTRA_LINK = LinkSpec(bandwidth=12.0e9, latency=0.3e-6)


@dataclass(frozen=True)
class NodeClass:
    """A group of identical nodes.

    Attributes:
        name: Class label (must be unique within a topology); appears in
            component names and observability metrics.
        count: Number of nodes of this class.
        gpus_per_node: GPUs (and PCIe ports) per node.
        gpu: Per-class GPU config override
            (:class:`~repro.hw.config.GPUConfig`); ``None`` inherits
            ``MachineConfig.gpu``.
        pcie: Per-class host↔device link override
            (:class:`~repro.hw.config.PCIeConfig`); ``None`` inherits
            ``MachineConfig.pcie``.
        intra_link: The intra-node GPU↔GPU path (NVLink-class on dense
            nodes); ``None`` means :data:`DEFAULT_INTRA_LINK` — the
            legacy loopback model.
    """

    name: str = "node"
    count: int = 1
    gpus_per_node: int = 1
    gpu: Optional[Any] = None
    pcie: Optional[Any] = None
    intra_link: Optional[LinkSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DCudaUsageError(
                f"NodeClass.name must be a non-empty string, got "
                f"{self.name!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise DCudaUsageError(
                f"NodeClass.count must be a positive int, got "
                f"{self.count!r}")
        if not isinstance(self.gpus_per_node, int) or self.gpus_per_node < 1:
            raise DCudaUsageError(
                f"NodeClass.gpus_per_node must be a positive int, got "
                f"{self.gpus_per_node!r}")


@dataclass(frozen=True)
class Interconnect:
    """The inter-node network shape.

    Attributes:
        kind: ``"flat"`` (full bisection, today's model), ``"fat_tree"``
            (two-level: leaf switches + one spine), or ``"ring"``.
        link: Per-hop link spec; ``None`` inherits the machine's
            :class:`~repro.hw.config.FabricConfig` bandwidth/latency —
            which keeps the default ``flat`` interconnect bit-identical
            to the legacy fabric.
        oversubscription: Fat tree only — the factor by which leaf→spine
            uplink capacity is undersized relative to the leaf's
            aggregate downlink capacity (1.0 = full bisection).
        radix: Fat tree only — nodes per leaf switch.
    """

    kind: str = "flat"
    link: Optional[LinkSpec] = None
    oversubscription: float = 1.0
    radix: int = 4

    def __post_init__(self) -> None:
        if self.kind not in INTERCONNECT_KINDS:
            raise DCudaUsageError(
                f"Interconnect.kind must be one of {INTERCONNECT_KINDS}, "
                f"got {self.kind!r}")
        if not self.oversubscription > 0:
            raise DCudaUsageError(
                f"Interconnect.oversubscription must be positive, got "
                f"{self.oversubscription!r}")
        if not isinstance(self.radix, int) or self.radix < 1:
            raise DCudaUsageError(
                f"Interconnect.radix must be a positive int, got "
                f"{self.radix!r}")


@dataclass(frozen=True)
class Topology:
    """A complete machine shape: node classes on an interconnect.

    Node indices are assigned by concatenating the classes in order:
    class 0 owns nodes ``0 .. count0-1``, class 1 the next ``count1``,
    and so on.  Device (GPU) ordinals follow node order, GPUs within a
    node in index order — the canonical order placement policies work in.
    """

    node_classes: Tuple[NodeClass, ...] = field(
        default_factory=lambda: (NodeClass(),))
    interconnect: Interconnect = field(default_factory=Interconnect)

    def __post_init__(self) -> None:
        if isinstance(self.node_classes, list):
            object.__setattr__(self, "node_classes",
                               tuple(self.node_classes))
        if not self.node_classes:
            raise DCudaUsageError("Topology needs at least one NodeClass")
        for nc in self.node_classes:
            if not isinstance(nc, NodeClass):
                raise DCudaUsageError(
                    f"Topology.node_classes entries must be NodeClass, "
                    f"got {nc!r}")
        names = [nc.name for nc in self.node_classes]
        if len(set(names)) != len(names):
            raise DCudaUsageError(
                f"duplicate NodeClass names in topology: {names}")
        if not isinstance(self.interconnect, Interconnect):
            raise DCudaUsageError(
                f"Topology.interconnect must be an Interconnect, got "
                f"{self.interconnect!r}")

    # -- derived shape -----------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return sum(nc.count for nc in self.node_classes)

    @property
    def total_gpus(self) -> int:
        return sum(nc.count * nc.gpus_per_node for nc in self.node_classes)

    def devices(self) -> Tuple[Tuple[int, int], ...]:
        """All ``(node, gpu)`` pairs in canonical placement order."""
        out = []
        node = 0
        for nc in self.node_classes:
            for _ in range(nc.count):
                out.extend((node, g) for g in range(nc.gpus_per_node))
                node += 1
        return tuple(out)


# -- convenience builders --------------------------------------------------
def flat(num_nodes: int = 1, gpus_per_node: int = 1,
         link: Optional[LinkSpec] = None,
         intra_link: Optional[LinkSpec] = None) -> Topology:
    """A full-bisection machine of identical nodes (the paper's shape)."""
    return Topology(
        node_classes=(NodeClass(count=num_nodes,
                                gpus_per_node=gpus_per_node,
                                intra_link=intra_link),),
        interconnect=Interconnect("flat", link=link))


def fat_tree(num_nodes: int, gpus_per_node: int = 1,
             oversubscription: float = 1.0, radix: int = 4,
             link: Optional[LinkSpec] = None,
             intra_link: Optional[LinkSpec] = None) -> Topology:
    """A two-level fat tree: ``radix`` nodes per leaf, one spine."""
    return Topology(
        node_classes=(NodeClass(count=num_nodes,
                                gpus_per_node=gpus_per_node,
                                intra_link=intra_link),),
        interconnect=Interconnect("fat_tree", link=link,
                                  oversubscription=oversubscription,
                                  radix=radix))


def ring(num_nodes: int, gpus_per_node: int = 1,
         link: Optional[LinkSpec] = None,
         intra_link: Optional[LinkSpec] = None) -> Topology:
    """A unidirectionally-indexed ring; routes take the shorter arc."""
    return Topology(
        node_classes=(NodeClass(count=num_nodes,
                                gpus_per_node=gpus_per_node,
                                intra_link=intra_link),),
        interconnect=Interconnect("ring", link=link))
