"""The dCUDA runtime system: per-node instances connected via MPI (§III-A).

Each node runs one :class:`RuntimeSystem` — an event handler plus one block
manager per local rank — and the :class:`DCudaRuntime` ties the per-node
instances together (rank↔node mapping, transfer-id allocation, logging).

Where each rank lives is the platform's decision: the runtime consumes the
resolved :class:`~repro.platform.placement.Placement` (world rank →
``(node, GPU)``), allocates blocks per GPU, and numbers device
communicators per GPU.  The default ``block`` policy over single-GPU
nodes reproduces the legacy ``rank // ranks_per_device`` numbering — and
the legacy event schedule — exactly.

Global synchronization (barrier, window creation, finish) uses a flat tree
over the runtime instances: when all of a node's local participants arrived,
the node reports to the coordinator (the first rank-hosting node); the
coordinator releases everyone once every participating node reported.  At
the paper's scale (≤ 10 nodes) this matches the cost shape of the real
implementation's MPI coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from ..hw.cluster import Cluster
from ..hw.config import MachineConfig
from ..mpi import MPIWorld
from ..sim import Environment, Event, Signal
from .block_manager import BlockManager
from .commands import LogCommand, WinCreateCommand, WinFreeCommand
from .meta import (
    CTRL_BYTES,
    CtrlArrive,
    CtrlRelease,
    GetMeta,
    PutMeta,
    RT_TAG_META,
)
from .state import RankState

__all__ = ["DCudaRuntime", "RuntimeSystem", "WindowId"]

WindowId = Tuple[str, int]


@dataclass
class _CollectiveState:
    arrivals: int = 0
    epoch: int = 0
    signal: Signal = None  # type: ignore[assignment]


class RuntimeSystem:
    """One node's runtime instance: event handler + block managers."""

    def __init__(self, runtime: "DCudaRuntime", node_index: int):
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.node = runtime.cluster.node(node_index)
        self.cfg = runtime.cfg
        placement = runtime.placement
        self.states: List[RankState] = []
        self.block_managers: List[BlockManager] = []
        # Local communicator sizes: "world" counts every rank this node
        # hosts; each populated GPU contributes its device communicator.
        self._local_counts: Dict[str, int] = {}
        for g in range(self.node.gpus_per_node):
            ranks = placement.ranks_on_device(node_index, g)
            if not ranks:
                continue
            self._local_counts[runtime.device_comm_name(node_index, g)] = \
                len(ranks)
            blocks = self.node.gpu(g).allocate_blocks(len(ranks))
            for local, world_rank in enumerate(ranks):
                state = RankState(self.env, self.node, world_rank, local,
                                  blocks[local],
                                  queue_size=self.cfg.devicelib.queue_size,
                                  gpu_index=g)
                self.states.append(state)
                self.block_managers.append(BlockManager(self, state))
        self._local_counts["world"] = len(self.states)
        self._index_of = {state.world_rank: i
                          for i, state in enumerate(self.states)}
        # Host-side window registry: global id -> {world rank: buffer}.
        self.windows: Dict[WindowId, Dict[int, np.ndarray]] = {}
        # Lazy cache of (base pointer, element stride, itemsize) per
        # registration — the registry holds a reference to each buffer, so
        # its base address is stable for the registration's lifetime.
        self._win_layout: Dict[Tuple[WindowId, int],
                               Tuple[int, int, int]] = {}
        self._coll: Dict[Tuple[str, str], _CollectiveState] = {}
        # Flat-tree synchronization state (coordinator side only).
        self._sync_counts: Dict[Any, int] = {}
        self._sync_events: Dict[Any, Event] = {}
        self._started = False

    # -- local rank lookup ----------------------------------------------
    def state_of(self, world_rank: int) -> RankState:
        return self.states[self._index_of[world_rank]]

    def bm_of(self, world_rank: int) -> BlockManager:
        return self.block_managers[self._index_of[world_rank]]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError(f"runtime on node {self.node.index} already "
                               "started")
        self._started = True
        for bm in self.block_managers:
            self.env.process(bm.run(), name=f"bm:r{bm.state.world_rank}")
            self.env.process(self._log_collector(bm.state),
                             name=f"log:r{bm.state.world_rank}")
        self.env.process(self._event_handler(),
                         name=f"eh:n{self.node.index}")

    # -- event handler ------------------------------------------------------
    def _event_handler(self) -> Generator[Event, Any, None]:
        """Pre-posted receives dispatching incoming runtime messages."""
        world = self.runtime.world
        while True:
            msg = yield from world.recv(self.node.index, tag=RT_TAG_META)
            yield from self.node.host_work(self.cfg.host.dispatch_cost)
            payload = msg.payload
            if isinstance(payload, PutMeta):
                bm = self.runtime.bm_of(payload.target_rank)
                self.env.process(bm.incoming_put(payload),
                                 name=f"input:r{payload.target_rank}")
            elif isinstance(payload, GetMeta):
                bm = self.runtime.bm_of(payload.target_rank)
                self.env.process(bm.incoming_get(payload),
                                 name=f"inget:r{payload.target_rank}")
            elif isinstance(payload, CtrlArrive):
                self._note_arrival(payload.key)
            elif isinstance(payload, CtrlRelease):
                self._sync_events.pop(payload.key).succeed()
            else:
                raise TypeError(f"unexpected runtime message {payload!r}")

    def _log_collector(self, state: RankState) -> Generator[Event, Any, None]:
        while True:
            cmd = yield from state.log_queue.dequeue()
            assert isinstance(cmd, LogCommand)
            self.runtime.log_records.append(
                (self.env.now, cmd.origin_rank, cmd.message))

    # -- flat-tree global synchronization ------------------------------------
    def _note_arrival(self, key: Any) -> None:
        """Coordinator: count node arrivals, release when full.

        The coordinator is the first *participating* node — a node the
        placement left empty never coordinates (nor arrives).
        """
        participating = self.runtime.participating_nodes
        assert self.node.index == participating[0]
        count = self._sync_counts.get(key, 0) + 1
        if count < len(participating):
            self._sync_counts[key] = count
            return
        self._sync_counts.pop(key, None)
        world = self.runtime.world
        for node in participating:
            if node == self.node.index:
                continue
            world.isend(self.node.index, node, CtrlRelease(key),
                        tag=RT_TAG_META, nbytes=CTRL_BYTES)
        self._sync_events.pop(key).succeed()

    def _global_sync(self, key: Any) -> Generator[Event, Any, None]:
        """Block until every participating node reached sync point *key*."""
        participating = self.runtime.participating_nodes
        if len(participating) == 1:
            return
        ev = self.env.event(name=f"sync:{key}")
        self._sync_events[key] = ev
        if self.node.index == participating[0]:
            self._note_arrival(key)
        else:
            self.runtime.world.isend(self.node.index, participating[0],
                                     CtrlArrive(key, self.node.index),
                                     tag=RT_TAG_META, nbytes=CTRL_BYTES)
        yield ev

    # -- node-local collective gating ------------------------------------------
    def _participants(self, comm_name: str) -> int:
        """Local participants of a communicator (world or a local device)."""
        count = self._local_counts.get(comm_name)
        if count is None:
            raise ValueError(f"unknown communicator {comm_name!r} on node "
                             f"{self.node.index}")
        return count

    def collective_arrive(self, family: str,
                          comm_name: str) -> Generator[Event, Any, int]:
        """One rank's arrival at a collective; returns the epoch index.

        The last local arrival performs the cross-node synchronization (for
        world-spanning communicators) and then releases the other local
        participants.
        """
        participants = self._participants(comm_name)
        st = self._coll.setdefault(
            (family, comm_name),
            _CollectiveState(signal=Signal(self.env,
                                           name=f"{family}:{comm_name}")))
        my_epoch = st.epoch
        st.arrivals += 1
        if st.arrivals == participants:
            st.arrivals = 0
            st.epoch += 1
            if comm_name == "world":
                yield from self._global_sync((family, comm_name, my_epoch))
            st.signal.fire()
        else:
            yield st.signal.wait()
        return my_epoch

    # -- window registry ---------------------------------------------------------
    def register_window(self, cmd: WinCreateCommand
                        ) -> Generator[Event, Any, WindowId]:
        """Collective window creation; returns the globally valid id.

        Global ids are ``(comm name, per-communicator creation index)`` —
        consistent across nodes because window creation is collective and
        therefore globally ordered per communicator.  The registration is
        recorded under the current ``"win"`` epoch before the rank arrives
        at that collective.
        """
        st = self._coll.get(("win", cmd.comm_name))
        gid: WindowId = (cmd.comm_name, st.epoch if st is not None else 0)
        self.windows.setdefault(gid, {})[cmd.origin_rank] = cmd.buffer
        state = self.runtime.state_of(cmd.origin_rank)
        state.win_reverse[gid] = cmd.local_win_id
        yield from self.collective_arrive("win", cmd.comm_name)
        return gid

    def unregister_window(self, cmd: WinFreeCommand
                          ) -> Generator[Event, Any, None]:
        """Collective window free."""
        yield from self.collective_arrive("winfree", cmd.global_win_id[0])
        if self.windows.pop(cmd.global_win_id, None) is not None:
            for key in [k for k in self._win_layout
                        if k[0] == cmd.global_win_id]:
                del self._win_layout[key]

    def window_buffer(self, gid: WindowId, world_rank: int) -> np.ndarray:
        try:
            return self.windows[gid][world_rank]
        except KeyError:
            raise KeyError(
                f"window {gid} has no registration for rank {world_rank} on "
                f"node {self.node.index}") from None

    def window_access(self, gid: WindowId, world_rank: int, op: str,
                      offset: int, count: int,
                      dtype: Any = None) -> np.ndarray:
        """The buffer of *world_rank*'s registration, checked for *op*
        (``"put"`` or ``"get"``) of *count* elements at *offset*: the one
        bounds and dtype rule every put and get path applies, proxy,
        device-initiated, stream and shared memory alike.

        Raises:
            IndexError: the access runs past the end of the buffer.
            TypeError: a non-empty put's *dtype* is not the buffer's.
        """
        buf = self.window_buffer(gid, world_rank)
        if offset + count > buf.size:
            raise IndexError(
                f"{op} [{offset}:{offset + count}] out of bounds for window "
                f"{gid} of rank {world_rank} ({buf.size} elements)")
        if dtype is not None and count and dtype != buf.dtype:
            raise TypeError(
                f"{op} dtype {dtype} does not match window {gid} dtype "
                f"{buf.dtype}")
        return buf

    def window_layout(self, gid: WindowId,
                      world_rank: int) -> Tuple[int, int, int]:
        """``(base pointer, element stride in bytes, itemsize)`` of a
        registration — cached, so the RMA hot path's aliasing test costs
        one pointer construction instead of two plus a slice.

        A stride of 0 means the buffer is not a 1-D strided array and the
        caller must fall back to the generic :func:`same_memory` test.
        """
        key = (gid, world_rank)
        layout = self._win_layout.get(key)
        if layout is None:
            buf = self.window_buffer(gid, world_rank)
            stride = buf.strides[0] if buf.ndim == 1 else 0
            layout = (buf.ctypes.data, stride, buf.itemsize)
            self._win_layout[key] = layout
        return layout


class DCudaRuntime:
    """All runtime-system instances of the cluster, plus shared services."""

    def __init__(self, cluster: Union[Cluster, MachineConfig],
                 ranks_per_device: int,
                 world: Optional[MPIWorld] = None):
        if isinstance(cluster, MachineConfig):
            # Convenience: a bare machine description is wrapped in a fresh
            # cluster (own environment/clock) so callers can go straight
            # from config to runtime.
            cluster = Cluster(cluster)
        if ranks_per_device < 1:
            raise ValueError(
                f"ranks_per_device must be >= 1, got {ranks_per_device}")
        max_blocks = cluster.cfg.gpu.max_blocks
        if ranks_per_device > max_blocks:
            raise ValueError(
                f"ranks_per_device={ranks_per_device} exceeds the device "
                f"in-flight limit of {max_blocks}")
        self.cluster = cluster
        self.env = cluster.env
        self.cfg = cluster.cfg
        self.world = world if world is not None else MPIWorld(cluster)
        self.ranks_per_device = ranks_per_device
        #: World rank → (node, GPU), resolved by the platform from the
        #: config's placement policy (block/round_robin/explicit).
        self.placement = cluster.platform.place(ranks_per_device)
        self.total_ranks = self.placement.total_ranks
        #: Nodes hosting at least one rank; collectives coordinate over
        #: these, with the first as the flat-tree coordinator.
        self.participating_nodes = self.placement.participating_nodes
        self.log_records: List[Tuple[float, int, str]] = []
        self._xfer_counter = 0
        self.systems = [RuntimeSystem(self, i)
                        for i in range(cluster.num_nodes)]
        # The communication backend owns put/get initiation, notification
        # delivery, and flush retirement (see repro.comm).  Imported
        # lazily: repro.comm pulls in the dcuda device layer, which in
        # turn imports this module.
        from ..comm import build_backend

        #: The configured :class:`~repro.comm.base.CommBackend` instance.
        self.comm = build_backend(self.cfg.comm_backend, self)

    # -- topology ------------------------------------------------------------
    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.total_ranks:
            raise ValueError(f"rank {rank} out of range "
                             f"(total {self.total_ranks})")

    def node_of_rank(self, rank: int) -> int:
        self.check_rank(rank)
        return self.placement.node_of(rank)

    def gpu_of_rank(self, rank: int) -> int:
        """Local GPU ordinal hosting *rank* (0 on single-GPU nodes)."""
        self.check_rank(rank)
        return self.placement.gpu_of(rank)

    def device_comm_name(self, node: int, gpu: int) -> str:
        """Name of GPU *gpu*-of-*node*'s device communicator.

        Single-GPU nodes keep the legacy ``device<n>`` name (stable
        communicator keys across the platform refactor); dense nodes
        qualify it per GPU: ``device<n>.g<g>``.
        """
        if self.cluster.platform.node_spec(node).gpus_per_node == 1:
            return f"device{node}"
        return f"device{node}.g{gpu}"

    def system_of(self, rank: int) -> RuntimeSystem:
        return self.systems[self.node_of_rank(rank)]

    def state_of(self, rank: int) -> RankState:
        return self.system_of(rank).state_of(rank)

    def bm_of(self, rank: int) -> BlockManager:
        return self.system_of(rank).bm_of(rank)

    def next_xfer_id(self) -> int:
        self._xfer_counter += 1
        return self._xfer_counter

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        """Launch event handlers, block managers, and backend agents."""
        for system in self.systems:
            system.start()
        self.comm.start()

    # -- invariants ------------------------------------------------------------
    def check_quiescent(self) -> List[str]:
        """Protocol invariants that must hold once all ranks finished.

        Returns a list of violations (empty = clean): every rank finished,
        all queues drained, every issued RMA operation completed (flush
        counter caught up), no window registrations leaked, and no pending
        cross-node synchronizations.  ``launch`` calls this after every
        run, so protocol bugs fail loudly instead of silently dropping
        work.
        """
        problems: List[str] = []
        for system in self.systems:
            for state in system.states:
                r = state.world_rank
                if not state.finished:
                    problems.append(f"rank {r} never finished")
                # Notification queues may legitimately hold entries a
                # program chose not to consume; command/ack/log leftovers
                # are always protocol bugs.
                for name, queue in (("cmd", state.cmd_queue),
                                    ("ack", state.ack_queue),
                                    ("log", state.log_queue)):
                    if queue.occupancy:
                        problems.append(
                            f"rank {r} {name} queue holds "
                            f"{queue.occupancy} undelivered entries")
                issued = state.next_flush_id - 1
                if state.flush_tracker.counter != issued:
                    problems.append(
                        f"rank {r} completed {state.flush_tracker.counter} "
                        f"of {issued} RMA operations")
            if system._sync_counts:
                problems.append(
                    f"node {system.node.index} has pending global syncs: "
                    f"{list(system._sync_counts)}")
            if system._sync_events:
                problems.append(
                    f"node {system.node.index} has unreleased sync events: "
                    f"{list(system._sync_events)}")
        return problems
