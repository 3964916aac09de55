"""Overlap microbenchmark (Figs. 7 and 8, §IV-B).

Iteratively runs a compute phase followed by a halo-exchange phase on eight
nodes; runtime switches disable either phase independently (avoiding code
generation effects, as in the paper).  Two workloads probe the two regimes:

* ``newton`` — square-root iterations (Newton-Raphson), compute bound,
* ``copy``   — memory-to-memory copies, device-bandwidth bound.

Expected shape: full execution time between ``max(compute, exchange)``
(perfect overlap) and ``compute + exchange`` (no overlap); the paper
measures perfect overlap for copy and good-but-imperfect overlap for
Newton (notification matching is itself compute heavy).

numpy and the simulator load inside the functions that simulate, so a
sweep coordinator unpickles an :class:`OverlapPoint` without either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from .stats import median

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw import Cluster
    from ..hw.config import MachineConfig

__all__ = ["OverlapPoint", "run_overlap",
           "NEWTON_FLOPS_PER_ITER", "COPY_BYTES_PER_ITER"]

#: One Newton-Raphson square-root iteration: 128 divisions per rank
#: (a division is ~20 FLOP-equivalents on Kepler).
NEWTON_FLOPS_PER_ITER = 128 * 20.0
#: One copy iteration moves 1 kB per rank (read + write = 2 kB traffic).
COPY_BYTES_PER_ITER = 1024.0

HALO_TAG = 61


@dataclass(frozen=True)
class OverlapPoint:
    """One measured configuration of the overlap benchmark."""

    mode: str                 # "newton" | "copy"
    compute_iters: int
    do_compute: bool
    do_exchange: bool
    steps: int
    elapsed: float            # seconds, setup excluded


def _overlap_kernel(rank, mode: str, compute_iters: int, steps: int,
                    do_compute: bool, do_exchange: bool,
                    halo_bytes: int, loop_time: Dict[int, float]):
    import numpy as np

    size = rank.comm_size()
    r = rank.world_rank
    buf = np.zeros(2 * halo_bytes, dtype=np.uint8)
    win = yield from rank.win_create(buf)
    yield from rank.barrier()
    lsend = r - 1 >= 0
    rsend = r + 1 < size
    data = buf[:halo_bytes]
    t0 = rank.now
    for _ in range(steps):
        if do_compute:
            if mode == "newton":
                yield from rank.compute(
                    flops=NEWTON_FLOPS_PER_ITER * compute_iters,
                    detail="newton")
            elif mode == "copy":
                yield from rank.compute(
                    mem_bytes=2.0 * COPY_BYTES_PER_ITER * compute_iters,
                    detail="copy")
            else:
                raise ValueError(f"unknown overlap mode {mode!r}")
        if do_exchange:
            if lsend:
                yield from rank.put_notify(win, r - 1, halo_bytes, data,
                                           tag=HALO_TAG)
            if rsend:
                yield from rank.put_notify(win, r + 1, halo_bytes, data,
                                           tag=HALO_TAG)
            yield from rank.wait_notifications(win, tag=HALO_TAG,
                                               count=lsend + rsend)
    loop_time[r] = rank.now - t0
    yield from rank.finish()


def run_overlap(mode: str, compute_iters: int, do_compute: bool = True,
                do_exchange: bool = True, steps: int = 20,
                num_nodes: int = 8, ranks_per_device: int = 52,
                halo_bytes: int = 1024,
                cfg: Optional[MachineConfig] = None,
                cluster: Optional[Cluster] = None) -> OverlapPoint:
    """One configuration; elapsed is the median of the per-rank loop times
    (setup such as window creation is excluded, §IV-A).

    Pass a pre-built *cluster* to keep access to its tracer/metrics after
    the run (the observability CLI does); it overrides cfg/num_nodes.
    """
    from ..dcuda import launch
    from ..hw import Cluster, greina

    if cluster is None:
        cluster = Cluster((cfg or greina()).with_nodes(num_nodes))
    loop_time: Dict[int, float] = {}
    launch(cluster, _overlap_kernel, ranks_per_device,
           kernel_args={"mode": mode, "compute_iters": compute_iters,
                        "steps": steps, "do_compute": do_compute,
                        "do_exchange": do_exchange,
                        "halo_bytes": halo_bytes, "loop_time": loop_time})
    return OverlapPoint(mode=mode, compute_iters=compute_iters,
                        do_compute=do_compute, do_exchange=do_exchange,
                        steps=steps, elapsed=median(list(loop_time.values())))
