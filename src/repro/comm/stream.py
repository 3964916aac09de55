"""The stream-triggered backend: deferred ops fired by the fabric.

HPE stream-triggered / MPI partitioned-communication style: the issuing
rank assembles a triggered-op descriptor (one cheap SM charge), posts
the trigger over PCIe (a single mapped write — the descriptor itself
was pre-staged), and moves on.  A per-rank triggered-op engine — the
fabric-side agent guarding the stream — fires each descriptor
``trigger_latency`` after its trigger commits, strictly in stream FIFO
order: an op does not fire until its predecessor finished NIC injection
(for gets: until the request left).  Completion retires on the engine
(``completion_cost``), not on the host.

Relative to the proxy this removes the host from the data path (no
``poll_latency``, no worker occupancy) while keeping initiation cheap on
the device; relative to device-initiated it buys back per-op SM cost at
the price of the trigger-firing latency and strict FIFO ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

import numpy as np

from ..sim import Event, Store
from .base import CommBackend

__all__ = ["StreamBackend"]


@dataclass
class _StreamOp:
    """One deferred descriptor on a rank's triggered-op stream."""

    kind: str                    # "put" | "get" | "notify"
    gid: Any                     # global window id
    origin_rank: int
    target_rank: int
    target_offset: int = 0
    data: Optional[np.ndarray] = None   # put payload snapshot
    dst: Optional[np.ndarray] = None    # get destination
    count: int = 0
    tag: int = 0
    notify: bool = True
    flush_id: int = 0
    #: Rank whose queue receives the notification (the target for puts,
    #: the origin itself for gets and shared-get self-notifications).
    notify_rank: int = field(default=-1)


class StreamBackend(CommBackend):
    """Deferred triggered ops on per-rank streams."""

    name = "stream"

    def __init__(self, runtime):
        super().__init__(runtime)
        self._streams: Dict[int, Store] = {}

    def start(self) -> None:
        """One stream + one triggered-op engine per rank."""
        for system in self.runtime.systems:
            for state in system.states:
                stream = Store(self.env,
                               name=f"stream:r{state.world_rank}")
                self._streams[state.world_rank] = stream
                self.env.process(self._engine(state, stream),
                                 name=f"steng:r{state.world_rank}")

    # -- device side: enqueue + trigger ------------------------------------
    def _enqueue(self, drank, op: _StreamOp) -> Generator[Event, Any, None]:
        """Descriptor assembly on the SM, trigger post over PCIe."""
        sc = self.cfg.stream_comm
        yield from drank.device.issue_use(drank.block, sc.enqueue_cost,
                                          kind="comm",
                                          detail="stream-enqueue")
        yield from drank.state.pcie.mapped_post()
        yield self._streams[drank.world_rank].put(op)

    def put(self, drank, win, target_rank: int, target_offset: int,
            src: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        if drank._is_shared(target_rank):
            # Local data movement happens eagerly on the device; only the
            # notification + flush retirement defer to the stream, so they
            # order behind earlier remote ops of this rank.
            yield from drank._shared_copy_put(win, target_rank,
                                              target_offset, src)
            op = _StreamOp(kind="notify", gid=win.global_id,
                           origin_rank=drank.world_rank,
                           target_rank=target_rank, tag=tag, notify=notify,
                           flush_id=flush_id, notify_rank=target_rank)
        else:
            op = _StreamOp(kind="put", gid=win.global_id,
                           origin_rank=drank.world_rank,
                           target_rank=target_rank,
                           target_offset=target_offset,
                           data=np.array(src, copy=True),
                           count=int(src.size), tag=tag, notify=notify,
                           flush_id=flush_id, notify_rank=target_rank)
        yield from self._enqueue(drank, op)

    def get(self, drank, win, target_rank: int, target_offset: int,
            dst: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        if drank._is_shared(target_rank):
            yield from drank._shared_copy_get(win, target_rank,
                                              target_offset, dst)
            op = _StreamOp(kind="notify", gid=win.global_id,
                           origin_rank=target_rank,
                           target_rank=drank.world_rank, tag=tag,
                           notify=notify, flush_id=flush_id,
                           notify_rank=drank.world_rank)
        else:
            op = _StreamOp(kind="get", gid=win.global_id,
                           origin_rank=drank.world_rank,
                           target_rank=target_rank,
                           target_offset=target_offset, dst=dst,
                           count=int(dst.size), tag=tag, notify=notify,
                           flush_id=flush_id, notify_rank=drank.world_rank)
        yield from self._enqueue(drank, op)

    # -- fabric side: the triggered-op engine ------------------------------
    def _engine(self, state, stream: Store):
        """Fire descriptors in FIFO order as their triggers commit."""
        sc = self.cfg.stream_comm
        src_node = state.node.index
        while True:
            op = yield stream.get()
            yield sc.trigger_latency
            if op.kind == "put":
                target_node = self.runtime.node_of_rank(op.target_rank)
                injected = self.env.event(name=f"sinj:r{op.origin_rank}")
                arrival = self.fabric.transmit(
                    src_node, target_node, float(op.data.nbytes),
                    mode="d2d", injected=injected)
                self.env.process(self._deliver_put(arrival, op),
                                 name=f"sputin:r{op.target_rank}")
                # FIFO: the next descriptor fires only once this payload
                # finished NIC injection; the flush retires then too
                # (local completion), off the engine's critical path.
                yield injected
                self.env.process(
                    self._retire(state, op.flush_id),
                    name=f"sputdone:r{op.origin_rank}")
            elif op.kind == "get":
                target_node = self.runtime.node_of_rank(op.target_rank)
                injected = self.env.event(name=f"sinj:r{op.origin_rank}")
                request = self.fabric.transmit(
                    src_node, target_node, sc.request_bytes, mode="d2d",
                    injected=injected)
                self.env.process(
                    self._serve_get(state, request, src_node, target_node,
                                    op),
                    name=f"sgetdone:r{op.origin_rank}")
                yield injected
            else:  # "notify": shared-memory op, data already moved
                if op.notify:
                    yield from self._notify(
                        self.runtime.state_of(op.notify_rank), op.gid,
                        op.origin_rank, op.tag)
                yield from self._advance_flush(state, op.flush_id,
                                               sc.completion_cost)

    def _deliver_put(self, arrival: Event, op: _StreamOp):
        """Target side of a fired put: store + notify on wire arrival."""
        yield arrival
        self._write_window(op.gid, op.target_rank, op.target_offset,
                           op.data)
        if op.notify:
            yield from self._notify(self.runtime.state_of(op.notify_rank),
                                    op.gid, op.origin_rank, op.tag)

    def _serve_get(self, state, request: Event, src_node: int,
                   target_node: int, op: _StreamOp):
        """Remote side of a fired get: read the window, send data back,
        deliver the self-notification, retire the flush."""
        yield request
        snapshot = self._read_window(op.gid, op.target_rank,
                                     op.target_offset, op.count)
        yield self.fabric.transmit(target_node, src_node,
                                   float(snapshot.nbytes), mode="d2d")
        op.dst[: snapshot.size] = snapshot
        if op.notify:
            yield from self._notify(state, op.gid, op.target_rank, op.tag)
        yield from self._advance_flush(state, op.flush_id,
                                       self.cfg.stream_comm.completion_cost)

    def _retire(self, state, flush_id: int):
        yield from self._advance_flush(state, flush_id,
                                       self.cfg.stream_comm.completion_cost)
