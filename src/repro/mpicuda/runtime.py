"""The MPI-CUDA baseline programming model (the paper's comparison point).

Traditional GPU-cluster programs alternate sequentially between on-node
kernel invocations and inter-node communication: the host main loop launches
a fork-join kernel, waits for it, then exchanges data with two-sided
CUDA-aware MPI while the device idles (Fig. 1, left).  No overlap of
computation and communication happens unless the programmer restructures the
code manually — which these baselines, like the paper's, deliberately do not.

An MPI-CUDA *program* is a generator ``program(ctx: MPICudaContext)``; one
runs per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..hw.cluster import Cluster
from ..mpi import MPIWorld, Request
from ..mpi import allgather as _allgather
from ..mpi import allreduce as _allreduce
from ..mpi import barrier as _barrier
from ..mpi import bcast as _bcast
from ..mpi import reduce as _reduce
from ..sim import Event, Tracer

__all__ = ["MPICudaContext", "run_mpicuda", "MPICudaResult"]


class MPICudaContext:
    """Per-node host API: kernel launches, memcpys, and MPI."""

    def __init__(self, cluster: Cluster, world: MPIWorld, node_index: int):
        self.cluster = cluster
        self.world = world
        self.env = cluster.env
        self.node = cluster.node(node_index)
        self.device = self.node.device
        self.cfg = cluster.cfg

    # -- identity ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.node.index

    @property
    def size(self) -> int:
        return self.cluster.num_nodes

    @property
    def now(self) -> float:
        return self.env.now

    # -- device control ----------------------------------------------------
    def launch(self, nblocks: int = 0, flops_per_block: float = 0.0,
               mem_bytes_per_block: float = 0.0,
               fn: Optional[Callable[[], Any]] = None,
               per_block: Optional[list] = None,
               detail: str = "kernel") -> Generator[Event, Any, Any]:
        """Launch a fork-join kernel and wait for it (the implicit
        synchronization at every MPI-CUDA kernel boundary).

        *fn* is the kernel's actual numpy work, executed once up front;
        the cost model charges the device for the per-block work —
        uniform (*nblocks* x per-block parameters) or explicit via
        *per_block* ``(flops, mem_bytes)`` tuples for imbalanced kernels.
        """
        result = fn() if fn is not None else None
        yield self.cfg.gpu.launch_latency
        yield from self.device.bulk_compute(nblocks, flops_per_block,
                                            mem_bytes_per_block,
                                            per_block=per_block,
                                            detail=detail)
        yield self.cfg.mpicuda.sync_latency
        return result

    def memcpy(self, nbytes: float,
               fn: Optional[Callable[[], Any]] = None
               ) -> Generator[Event, Any, Any]:
        """cudaMemcpy between host and device (DMA engine + call cost).

        The baseline uses this to fetch bookkeeping data (e.g. the particle
        counters) the device-side dCUDA variant reads directly.
        """
        result = fn() if fn is not None else None
        yield self.cfg.mpicuda.memcpy_call
        yield from self.node.pcie.dma_copy(nbytes)
        return result

    def loop_overhead(self) -> Generator[Event, Any, None]:
        """Host main-loop per-iteration overhead."""
        yield self.cfg.mpicuda.loop_overhead

    # -- two-sided MPI on device buffers --------------------------------------
    def isend(self, dst: int, payload: Any, tag: int = 0,
              nbytes: Optional[float] = None) -> Request:
        return self.world.isend(self.rank, dst, payload, tag=tag,
                                nbytes=nbytes, device=True)

    def irecv(self, source: int = -1, tag: int = -1) -> Request:
        return self.world.irecv(self.rank, source=source, tag=tag)

    def send(self, dst: int, payload: Any, tag: int = 0,
             nbytes: Optional[float] = None) -> Generator[Event, Any, None]:
        yield from self.world.send(self.rank, dst, payload, tag=tag,
                                   nbytes=nbytes, device=True)

    def recv(self, source: int = -1,
             tag: int = -1) -> Generator[Event, Any, Any]:
        msg = yield from self.world.recv(self.rank, source=source, tag=tag)
        return msg

    # -- collectives -----------------------------------------------------------
    def barrier(self) -> Generator[Event, Any, None]:
        yield from _barrier(self.world, self.rank)

    def bcast(self, value: Any, root: int = 0,
              nbytes: Optional[float] = None,
              group: Optional[List[int]] = None
              ) -> Generator[Event, Any, Any]:
        out = yield from _bcast(self.world, self.rank, value, root=root,
                                nbytes=nbytes, device=True, group=group)
        return out

    def reduce(self, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0, nbytes: Optional[float] = None,
               group: Optional[List[int]] = None
               ) -> Generator[Event, Any, Any]:
        out = yield from _reduce(self.world, self.rank, value, op, root=root,
                                 nbytes=nbytes, device=True, group=group)
        return out

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any],
                  nbytes: Optional[float] = None
                  ) -> Generator[Event, Any, Any]:
        out = yield from _allreduce(self.world, self.rank, value, op,
                                    nbytes=nbytes, device=True)
        return out

    def allgather(self, value: Any, nbytes: Optional[float] = None
                  ) -> Generator[Event, Any, List[Any]]:
        out = yield from _allgather(self.world, self.rank, value,
                                    nbytes=nbytes)
        return out


@dataclass
class MPICudaResult:
    """Outcome of an MPI-CUDA program run."""

    elapsed: float
    results: List[Any]
    world: MPIWorld
    tracer: Tracer


def run_mpicuda(cluster: Cluster, program: Callable[..., Any],
                program_args: Optional[Dict[str, Any]] = None
                ) -> MPICudaResult:
    """Run *program* (one instance per node); returns timing + results.

    Runs and diagnoses like a dCUDA launch
    (:meth:`~repro.hw.cluster.Cluster.run_processes`): under a fault
    plane the simulated-time watchdog bounds the run, and a program that
    never completes is a typed error.

    Raises:
        DCudaTimeoutError: the watchdog expired after the plane injected
            a fault.
        DCudaFaultError: a program process never completed after an
            injection.
        DCudaUsageError: either hang with nothing injected: the program
            itself is at fault.
    """
    world = MPIWorld(cluster)
    args = program_args or {}
    t0 = cluster.env.now
    procs = []
    for node_index in range(cluster.num_nodes):
        ctx = MPICudaContext(cluster, world, node_index)
        procs.append(cluster.env.process(program(ctx, **args),
                                         name=f"mpicuda:n{node_index}"))
    cluster.run_processes(procs)
    return MPICudaResult(elapsed=cluster.env.now - t0,
                         results=[p.value for p in procs],
                         world=world, tracer=cluster.tracer)
