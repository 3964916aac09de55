"""Two-sided MPI substrate running on the simulated hosts.

One MPI rank maps to one cluster node (the paper runs one runtime-system
instance — and, in the MPI-CUDA baseline, one application rank — per node).
The implementation provides the subset the dCUDA runtime and the baseline
mini-applications need:

* eager nonblocking ``isend``/``irecv`` with :class:`Request` handles and
  blocking wrappers,
* wildcard matching (``ANY_SOURCE`` / ``ANY_TAG``) with MPI non-overtaking
  order per (source, destination) pair,
* CUDA-awareness: device buffers below the staging threshold travel direct
  device-to-device (GPUDirect bandwidth); above it they are staged through
  host memory at the full link bandwidth — OpenMPI's documented behaviour
  on the paper's test system.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from ..hw.cluster import Cluster
from ..sim import Environment, Event, Store
from .message import Envelope, copy_payload, payload_nbytes
from .request import Request

__all__ = ["MPIWorld", "ANY_SOURCE", "ANY_TAG"]

ANY_SOURCE = -1
ANY_TAG = -1


class MPIWorld:
    """The (simulated) MPI library: one rank per cluster node."""

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.size = cluster.num_nodes
        self._inbox = [Store(self.env, name=f"mpi.inbox{r}")
                       for r in range(self.size)]
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._recv_next: Dict[Tuple[int, int], int] = {}
        self._ooo: Dict[Tuple[int, int], Dict[int, Envelope]] = {}
        # Per-rank collective epoch (collective calls are globally ordered
        # per communicator, so these stay in sync across ranks).
        self._coll_epoch = [0] * self.size
        # -- statistics
        self.messages_sent = 0
        self.bytes_sent = 0.0

    # -- rank/topology -------------------------------------------------------
    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range (size {self.size})")

    def node_of(self, rank: int) -> int:
        self.check_rank(rank)
        return rank

    # -- point-to-point --------------------------------------------------------
    def isend(self, src: int, dst: int, payload: Any, tag: int = 0,
              nbytes: Optional[float] = None, device: bool = False,
              mode: Optional[str] = None) -> Request:
        """Nonblocking send; the request completes when the send buffer is
        reusable (injection finished).

        *mode* overrides the library's transfer-path choice: the dCUDA
        runtime pins its payload transfers to ``"d2d"`` (its own protocol
        always moves data directly between devices, §III-B), while regular
        CUDA-aware sends pick staged-vs-direct by the 30 kB threshold.
        """
        self.check_rank(src)
        self.check_rank(dst)
        size = payload_nbytes(payload, nbytes)
        key = (src, dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        env_msg = Envelope(src=src, dst=dst, tag=tag,
                           payload=copy_payload(payload), nbytes=size,
                           seq=seq, device=device)
        injected = self.env.event(name=f"sent:{src}->{dst}")
        self.env.process(self._send_proc(env_msg, injected, mode),
                         name=f"isend:{src}->{dst}")
        self.messages_sent += 1
        self.bytes_sent += size
        return Request(self.env, injected, kind=f"isend->{dst}")

    def send(self, src: int, dst: int, payload: Any, tag: int = 0,
             nbytes: Optional[float] = None,
             device: bool = False) -> Generator[Event, Any, None]:
        """Blocking send (completes at local completion, eager protocol)."""
        req = self.isend(src, dst, payload, tag, nbytes, device)
        yield from req.wait()

    def irecv(self, rank: int, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; the request's value is the :class:`Envelope`."""
        self.check_rank(rank)
        if source != ANY_SOURCE:
            self.check_rank(source)
        ev = self._inbox[rank].get(
            lambda m: m.matches(source, tag, ANY_SOURCE, ANY_TAG))
        return Request(self.env, ev, kind=f"irecv@{rank}")

    def recv(self, rank: int, source: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Generator[Event, Any, Envelope]:
        """Blocking receive; returns the matched :class:`Envelope`."""
        req = self.irecv(rank, source, tag)
        msg = yield from req.wait()
        return msg

    # -- transfer internals ------------------------------------------------------
    def _transfer_plan(self, msg: Envelope) -> Tuple[str, float]:
        """Pick (fabric mode, extra latency) for a message."""
        fab = self.cluster.cfg.fabric
        if msg.device and msg.src != msg.dst:
            if msg.nbytes > fab.staging_threshold:
                # Host staging: full link bandwidth, pipeline fill/drain of
                # the two DMA engines added as latency.  Each end pays its
                # own node's DMA setup (node classes may differ).
                platform = self.cluster.platform
                return "host", (platform.pcie_of(msg.src).dma_startup
                                + platform.pcie_of(msg.dst).dma_startup)
            return "d2d", 0.0
        return "host", 0.0

    def _send_proc(self, msg: Envelope, injected: Event,
                   mode_override: Optional[str] = None):
        # Sender-side software overhead (protocol, matching bookkeeping).
        yield self.cluster.cfg.host.mpi_overhead
        if mode_override is not None:
            mode, extra = mode_override, 0.0
        else:
            mode, extra = self._transfer_plan(msg)
        arrival = self.cluster.fabric.transmit(
            msg.src, msg.dst, msg.nbytes, mode=mode, injected=injected,
            extra_latency=extra)
        yield arrival
        self._deliver(msg)

    def _deliver(self, msg: Envelope) -> None:
        """Deliver respecting per-(src, dst) FIFO order (non-overtaking)."""
        key = (msg.src, msg.dst)
        expected = self._recv_next.get(key, 0)
        if msg.seq != expected:
            self._ooo.setdefault(key, {})[msg.seq] = msg
            return
        self._inbox[msg.dst].try_put(msg)
        self._recv_next[key] = expected + 1
        pending = self._ooo.get(key)
        while pending and self._recv_next[key] in pending:
            nxt = pending.pop(self._recv_next[key])
            self._inbox[msg.dst].try_put(nxt)
            self._recv_next[key] += 1

    # -- collective support (see collectives.py) -----------------------------
    def next_collective_epoch(self, rank: int) -> int:
        epoch = self._coll_epoch[rank]
        self._coll_epoch[rank] += 1
        return epoch
