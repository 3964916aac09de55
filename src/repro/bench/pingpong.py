"""Ping-pong microbenchmark: put latency and bandwidth (Fig. 6, §IV-B).

Two ranks bounce a data packet using notified puts; latency is half of one
iteration, bandwidth is packet size over latency.  Ranks are placed either
on the same device (shared memory) or on two nodes (distributed memory).

The simulator loads inside the functions that simulate, so a sweep
coordinator unpickles a :class:`PingPongResult` without it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw import Cluster
    from ..hw.config import MachineConfig

__all__ = ["PingPongResult", "run_pingpong", "run_pingpong_pair"]


@dataclass(frozen=True)
class PingPongResult:
    shared: bool
    packet_bytes: int
    iterations: int
    latency: float            # seconds, half round trip

    @property
    def bandwidth(self) -> float:
        """Payload rate [B/s]."""
        return self.packet_bytes / self.latency if self.latency > 0 else 0.0


def run_pingpong(shared: bool, packet_bytes: int = 0, iterations: int = 100,
                 cfg: MachineConfig | None = None) -> PingPongResult:
    """One ping-pong measurement.

    Setup time (window creation, barrier) is excluded by timing only the
    iteration loop — the paper's subtract-zero-iterations methodology.
    """
    from ..hw import Cluster, greina

    if packet_bytes < 0:
        raise ValueError(f"negative packet size {packet_bytes}")
    nodes = 1 if shared else 2
    rpd = 2 if shared else 1
    base = cfg if cfg is not None else greina()
    cluster = Cluster(base.with_nodes(nodes))
    latency = _timed_pingpong(cluster, rpd, packet_bytes, iterations)
    return PingPongResult(shared=shared, packet_bytes=packet_bytes,
                          iterations=iterations, latency=latency)


def run_pingpong_pair(cfg: MachineConfig, a: Tuple[int, int] = (0, 0),
                      b: Tuple[int, int] = (1, 0), packet_bytes: int = 0,
                      iterations: int = 100) -> PingPongResult:
    """Ping-pong between two explicitly placed ranks on any platform.

    Pins rank 0 to device *a* and rank 1 to device *b* — ``(node, gpu)``
    pairs of *cfg*'s topology — so the measured latency reflects exactly
    the path between them: the shared-memory fast path when ``a == b``,
    the node's intra-node link when the devices share a node, and the
    (possibly multi-hop routed) interconnect otherwise.
    """
    from ..hw import Cluster
    from ..platform import PlacementSpec

    if packet_bytes < 0:
        raise ValueError(f"negative packet size {packet_bytes}")
    a, b = tuple(a), tuple(b)
    spec = PlacementSpec("explicit", explicit=(a, b))
    cluster = Cluster(replace(cfg, placement=spec))
    latency = _timed_pingpong(cluster, 1, packet_bytes, iterations)
    return PingPongResult(shared=a == b, packet_bytes=packet_bytes,
                          iterations=iterations, latency=latency)


def _timed_pingpong(cluster: Cluster, ranks_per_device: int,
                    packet_bytes: int, iterations: int) -> float:
    """Launch the two-rank bounce kernel; returns the half-round-trip."""
    from ..dcuda import launch

    buffers = {r: np.zeros(max(packet_bytes, 1), dtype=np.uint8)
               for r in range(2)}
    loop_time: Dict[int, float] = {}

    def kernel(rank):
        r = rank.world_rank
        win = yield from rank.win_create(buffers[r])
        yield from rank.barrier()
        t0 = rank.now
        data = buffers[r][:packet_bytes]
        for _ in range(iterations):
            if r == 0:
                yield from rank.put_notify(win, 1, 0, data, tag=1)
                yield from rank.wait_notifications(win, source=1, tag=1,
                                                   count=1)
            else:
                yield from rank.wait_notifications(win, source=0, tag=1,
                                                   count=1)
                yield from rank.put_notify(win, 0, 0, data, tag=1)
        loop_time[r] = rank.now - t0
        yield from rank.finish()

    launch(cluster, kernel, ranks_per_device=ranks_per_device)
    return loop_time[0] / iterations / 2.0
