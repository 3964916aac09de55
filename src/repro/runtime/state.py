"""Per-rank device↔host shared state.

Each dCUDA rank owns four circular queues (§III-A, Fig. 4) plus the flush
counter the block manager advances as remote-memory-access operations
complete:

* command queue  (device → host, in host memory),
* ack queue      (host → device, in device memory),
* notification queue (host → device, in device memory),
* logging queue  (device → host, in host memory).
"""

from __future__ import annotations

from typing import Dict, Set

from ..hw.gpu import Block
from ..hw.node import Node
from ..sim import Environment, Signal
from .queues import CircularQueue

__all__ = ["RankState", "FlushTracker"]


class FlushTracker:
    """In-order completion tracking for RMA operations (§III-B).

    The block manager keeps a history of processed operations and exposes a
    single counter: the highest flush id whose predecessors have *all*
    completed.  The device-side ``flush`` waits on that counter.
    """

    def __init__(self) -> None:
        self._done: Set[int] = set()
        self.counter = 0

    def complete(self, flush_id: int) -> bool:
        """Mark *flush_id* done; returns True if the counter advanced."""
        if flush_id <= self.counter or flush_id in self._done:
            raise ValueError(f"flush id {flush_id} completed twice")
        self._done.add(flush_id)
        advanced = False
        while self.counter + 1 in self._done:
            self._done.remove(self.counter + 1)
            self.counter += 1
            advanced = True
        return advanced


class RankState:
    """Queues, counters, and identity of one rank."""

    def __init__(self, env: Environment, node: Node, world_rank: int,
                 device_rank: int, block: Block, queue_size: int,
                 gpu_index: int = 0):
        self.env = env
        self.node = node
        self.world_rank = world_rank
        self.device_rank = device_rank
        self.block = block
        #: Local GPU ordinal hosting this rank (0 on single-GPU nodes).
        self.gpu_index = gpu_index
        #: The PCIe port of this rank's GPU — all of the rank's queue
        #: traffic and flush-counter writes cross this port.
        self.pcie = node.pcie_port(gpu_index)
        pcie = self.pcie
        obs = node.obs
        faults = getattr(node, "faults", None)
        self.cmd_queue = CircularQueue(env, queue_size, pcie,
                                       name=f"cmd:r{world_rank}", obs=obs,
                                       faults=faults, rank=world_rank)
        self.ack_queue = CircularQueue(env, queue_size, pcie,
                                       name=f"ack:r{world_rank}", obs=obs,
                                       faults=faults, rank=world_rank)
        self.notif_queue = CircularQueue(env, queue_size, pcie,
                                         name=f"ntf:r{world_rank}", obs=obs,
                                         faults=faults, rank=world_rank)
        self.log_queue = CircularQueue(env, queue_size, pcie,
                                       name=f"log:r{world_rank}", obs=obs,
                                       faults=faults, rank=world_rank)
        # Device-visible flush counter, mirrored by the block manager.
        self.flush_counter = 0
        self.flush_signal = Signal(env, name=f"flush:r{world_rank}")
        # Host-side completion history.
        self.flush_tracker = FlushTracker()
        # Device-side id allocation.
        self.next_flush_id = 1
        self.next_local_win = 0
        # The block manager's hash map translating device-side window ids
        # to globally valid ids (§III-B), and its inverse for incoming
        # notifications.
        self.win_translation: Dict[int, object] = {}
        self.win_reverse: Dict[object, int] = {}
        self.finished = False

    def allocate_flush_id(self) -> int:
        fid = self.next_flush_id
        self.next_flush_id += 1
        return fid

    def allocate_local_win(self) -> int:
        wid = self.next_local_win
        self.next_local_win += 1
        return wid
