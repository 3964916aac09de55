"""The device-initiated backend: symmetric-heap RMA from the GPU.

NVSHMEM/IBGDA-style initiation: the issuing rank translates the target
address (IOMMU/ATS) and rings the NIC doorbell itself, both charged on
its SM issue unit, and the NIC moves the payload device-to-device with
no host round trip — no PCIe command queue, no block-manager dequeue,
no ``poll_latency``.  Completion is device-side too: retiring a flush id
costs one CQE poll (``completion_cost``) instead of the proxy's mapped
PCIe write.

The host block managers keep running (window creation, barriers, and
finish are still host collectives); they simply never see a put or get.
Because each operation rides its own NIC transaction, two puts from the
same origin may overtake each other on the wire — notification *matching*
semantics are unaffected (the matcher orders by arrival), which is
exactly the order-insensitivity the differential harness checks.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..sim import Event
from .base import CommBackend

__all__ = ["DeviceBackend"]


class DeviceBackend(CommBackend):
    """GPU-initiated RMA over a symmetric heap."""

    name = "device"

    # -- puts --------------------------------------------------------------
    def put(self, drank, win, target_rank: int, target_offset: int,
            src: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        dc = self.cfg.device_comm
        if drank._is_shared(target_rank):
            # Same-GPU ranks: plain device copy; only the (device-side)
            # completion path runs — no doorbell, the "NIC" is never
            # involved.
            yield from drank._shared_copy_put(win, target_rank,
                                              target_offset, src)
            yield from drank.device.initiate_rma(
                drank.block, dc.translation_cost, detail="rma-shared-put")
            self.env.process(
                self._retire_shared(drank.state,
                                    self.runtime.state_of(target_rank),
                                    win.global_id, drank.world_rank,
                                    target_rank, tag, flush_id, notify),
                name=f"dput:r{drank.world_rank}")
            return
        snapshot = np.array(src, copy=True)
        yield from drank.device.initiate_rma(
            drank.block, dc.translation_cost + dc.doorbell_cost,
            detail="rma-put")
        self.fabric.ring_doorbell(drank.node.index)
        injected = self.env.event(name=f"dinj:r{drank.world_rank}")
        arrival = self.fabric.transmit(
            drank.node.index, self.runtime.node_of_rank(target_rank),
            float(snapshot.nbytes), mode="d2d", injected=injected)
        self.env.process(
            self._retire_put(drank.state, flush_id, injected),
            name=f"dputdone:r{drank.world_rank}")
        self.env.process(
            self._deliver_put(arrival, win.global_id, drank.world_rank,
                              target_rank, target_offset, snapshot, tag,
                              notify),
            name=f"dputin:r{target_rank}")

    def _retire_put(self, state, flush_id: int, injected: Event):
        """Origin side: the flush retires once the NIC accepted the
        payload (local completion), after one CQE-poll charge."""
        yield injected
        yield from self._advance_flush(state, flush_id,
                                       self.cfg.device_comm.completion_cost)

    def _deliver_put(self, arrival: Event, gid, origin_rank: int,
                     target_rank: int, target_offset: int,
                     snapshot: np.ndarray, tag: int, notify: bool):
        """Target side: on wire arrival the NIC stores straight into the
        window and appends the notification — no host handler."""
        yield arrival
        self._write_window(gid, target_rank, target_offset, snapshot)
        if notify:
            yield from self._notify(self.runtime.state_of(target_rank),
                                    gid, origin_rank, tag)

    def _retire_shared(self, state, target_state, gid, origin_rank: int,
                       target_rank: int, tag: int, flush_id: int,
                       notify: bool):
        if notify:
            yield from self._notify(target_state, gid, origin_rank, tag)
        yield from self._advance_flush(state, flush_id,
                                       self.cfg.device_comm.completion_cost)

    # -- gets --------------------------------------------------------------
    def get(self, drank, win, target_rank: int, target_offset: int,
            dst: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        dc = self.cfg.device_comm
        if drank._is_shared(target_rank):
            yield from drank._shared_copy_get(win, target_rank,
                                              target_offset, dst)
            yield from drank.device.initiate_rma(
                drank.block, dc.translation_cost, detail="rma-shared-get")
            self.env.process(
                self._retire_shared(drank.state, drank.state, win.global_id,
                                    target_rank, drank.world_rank, tag,
                                    flush_id, notify),
                name=f"dget:r{drank.world_rank}")
            return
        yield from drank.device.initiate_rma(
            drank.block, dc.translation_cost + dc.doorbell_cost,
            detail="rma-get")
        self.fabric.ring_doorbell(drank.node.index)
        self.env.process(
            self._remote_get(drank.state, win.global_id, drank.node.index,
                             target_rank, target_offset, dst, tag, flush_id,
                             notify),
            name=f"dgetdone:r{drank.world_rank}")

    def _remote_get(self, state, gid, src_node: int, target_rank: int,
                    target_offset: int, dst: np.ndarray, tag: int,
                    flush_id: int, notify: bool):
        """One NIC-driven RDMA read: request descriptor out, data back."""
        dc = self.cfg.device_comm
        target_node = self.runtime.node_of_rank(target_rank)
        yield self.fabric.transmit(src_node, target_node, dc.request_bytes,
                                   mode="d2d")
        snapshot = self._read_window(gid, target_rank, target_offset,
                                     int(dst.size))
        yield self.fabric.transmit(target_node, src_node,
                                   float(snapshot.nbytes), mode="d2d")
        dst[: snapshot.size] = snapshot
        if notify:
            yield from self._notify(state, gid, target_rank, tag)
        yield from self._advance_flush(state, flush_id, dc.completion_cost)
