"""Rank placement: world rank → (node, GPU) mapping policies.

dCUDA numbers ranks over the whole machine; *where* each rank's block
lives decides whether its puts ride the same-device copy path, the
intra-node NVLink-class link, or the inter-node interconnect.  The
legacy numbering — rank ``r`` on node ``r // ranks_per_device`` — is the
``block`` policy over single-GPU nodes and stays the default, so
existing workloads keep their exact rank → hardware mapping.

Policies:

* ``block`` — fill each GPU before moving to the next (canonical device
  order): neighbors in rank space share hardware, the right default for
  halo exchanges;
* ``round_robin`` — deal ranks across GPUs like cards: neighbors in
  rank space land on *different* hardware, maximizing the traffic the
  interconnect sees;
* ``explicit`` — an explicit ``rank -> (node, gpu)`` table for
  irregular experiments (e.g. a ping-pong pinned to the two ends of a
  ring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DCudaUsageError

__all__ = ["PlacementSpec", "Placement", "PLACEMENT_POLICIES",
           "resolve_placement"]

PLACEMENT_POLICIES = ("block", "round_robin", "explicit")


@dataclass(frozen=True)
class PlacementSpec:
    """Declarative placement policy (lives on ``MachineConfig``).

    Attributes:
        policy: One of :data:`PLACEMENT_POLICIES`.
        explicit: For ``policy="explicit"``: ``explicit[r]`` is the
            ``(node, gpu)`` hosting world rank *r*; its length is the
            world size (``ranks_per_device`` is ignored).
    """

    policy: str = "block"
    explicit: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.policy not in PLACEMENT_POLICIES:
            raise DCudaUsageError(
                f"PlacementSpec.policy must be one of "
                f"{PLACEMENT_POLICIES}, got {self.policy!r}")
        if (self.explicit is not None) != (self.policy == "explicit"):
            raise DCudaUsageError(
                "PlacementSpec.explicit must be given exactly when "
                f"policy='explicit' (got policy={self.policy!r}, "
                f"explicit={'set' if self.explicit is not None else 'unset'})")
        if self.explicit is not None:
            if isinstance(self.explicit, list):
                object.__setattr__(self, "explicit",
                                   tuple(tuple(e) for e in self.explicit))
            if not self.explicit:
                raise DCudaUsageError(
                    "explicit placement needs at least one rank")


class Placement:
    """A resolved placement: every world rank's hardware location.

    Attributes:
        total_ranks: World size.
        devices: Canonical ``(node, gpu)`` device order (all devices of
            the topology, including unpopulated ones).
    """

    def __init__(self, devices: Sequence[Tuple[int, int]],
                 rank_device: Sequence[int]):
        self.devices: Tuple[Tuple[int, int], ...] = tuple(devices)
        self._rank_device: Tuple[int, ...] = tuple(rank_device)
        self.total_ranks = len(self._rank_device)
        # Derived lookups, all precomputed once.
        self._node_of: List[int] = []
        self._gpu_of: List[int] = []
        self._device_rank: List[int] = []
        self._device_ranks: Dict[Tuple[int, int], List[int]] = {}
        for rank, dev in enumerate(self._rank_device):
            node, gpu = self.devices[dev]
            self._node_of.append(node)
            self._gpu_of.append(gpu)
            on_device = self._device_ranks.setdefault((node, gpu), [])
            self._device_rank.append(len(on_device))
            on_device.append(rank)
        #: Nodes hosting at least one rank, ascending (collectives
        #: coordinate over these; unpopulated nodes stay passive).
        self.participating_nodes: Tuple[int, ...] = tuple(
            sorted(set(self._node_of)))

    # -- per-rank lookups --------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting world rank *rank*."""
        return self._node_of[rank]

    def gpu_of(self, rank: int) -> int:
        """GPU index (within its node) hosting world rank *rank*."""
        return self._gpu_of[rank]

    def device_of(self, rank: int) -> Tuple[int, int]:
        """``(node, gpu)`` hosting world rank *rank*."""
        return self._node_of[rank], self._gpu_of[rank]

    def device_rank(self, rank: int) -> int:
        """Rank's index within its device communicator."""
        return self._device_rank[rank]

    # -- per-location lookups ----------------------------------------------
    def ranks_on_device(self, node: int, gpu: int) -> Tuple[int, ...]:
        """World ranks hosted by GPU *gpu* of *node*, ascending."""
        return tuple(self._device_ranks.get((node, gpu), ()))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (f"<Placement {self.total_ranks} ranks over "
                f"{len(self._device_ranks)} populated device(s)>")


def resolve_placement(devices: Sequence[Tuple[int, int]],
                      ranks_per_device: int,
                      spec: PlacementSpec) -> Placement:
    """Expand a :class:`PlacementSpec` into a concrete :class:`Placement`.

    Args:
        devices: Canonical ``(node, gpu)`` order from the topology.
        ranks_per_device: Ranks per GPU for the ``block`` and
            ``round_robin`` policies (world size = this × #devices);
            ignored by ``explicit``.
        spec: The declarative policy.

    Raises:
        DCudaUsageError: empty device list, non-positive
            ``ranks_per_device``, or an explicit entry naming a device
            outside the topology.
    """
    devices = tuple(devices)
    if not devices:
        raise DCudaUsageError("placement needs at least one device")
    if spec.policy == "explicit":
        index = {dev: i for i, dev in enumerate(devices)}
        rank_device = []
        for rank, loc in enumerate(spec.explicit):
            loc = tuple(loc)
            if loc not in index:
                raise DCudaUsageError(
                    f"explicit placement of rank {rank} names device "
                    f"(node={loc[0]}, gpu={loc[1]}), which is not in the "
                    f"topology ({len(devices)} devices)")
            rank_device.append(index[loc])
        return Placement(devices, rank_device)
    if ranks_per_device < 1:
        raise DCudaUsageError(
            f"ranks_per_device must be >= 1, got {ranks_per_device}")
    total = ranks_per_device * len(devices)
    if spec.policy == "block":
        rank_device = [r // ranks_per_device for r in range(total)]
    else:  # round_robin
        rank_device = [r % len(devices) for r in range(total)]
    return Placement(devices, rank_device)
