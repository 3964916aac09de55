"""The block manager: one host-side agent per dCUDA rank (§III-A).

The block manager consumes its rank's command queue and implements every
command with nonblocking MPI operations, mirroring the paper's single
worker-thread design: all host occupancy is charged against the node's
FCFS ``worker`` resource.

Distributed notified put — the Fig. 5 sequence:

1. the device library enqueued the command (meta tuple) — one PCIe write;
2. the origin block manager forwards the meta information to the target
   event handler and sends the payload directly from device memory
   (device-to-device, never staged);
3. once both sends signal local completion, the origin block manager
   updates the flush counter on the device;
4. the target event handler dispatches the meta to the target block
   manager, which posts a receive for the payload;
5. on payload arrival the target block manager stores it into the target
   window and enqueues a notification on the target device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from ..sim import AllOf, Event
from .commands import (
    COLLECTIVE_WIN,
    Ack,
    BarrierCommand,
    FinishCommand,
    GetCommand,
    NonblockingBarrierCommand,
    NotifyCommand,
    Notification,
    PutCommand,
    WinCreateCommand,
    WinFreeCommand,
)
from .meta import META_BYTES, GetMeta, PutMeta, RT_TAG_META, data_tag
from .state import RankState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import RuntimeSystem

__all__ = ["BlockManager"]


class BlockManager:
    """Processes one rank's commands and its incoming remote accesses."""

    #: Cached :func:`repro.dcuda.notifications.deliver` (class-level, filled
    #: on first use — the per-call lazy import is measurable on the hot
    #: notify path).
    _deliver_fn = None

    def __init__(self, system: "RuntimeSystem", state: RankState):
        self.system = system
        self.runtime = system.runtime
        self.state = state
        self.env = system.env
        self.node = system.node
        self.world = self.runtime.world
        self.cfg = self.runtime.cfg
        # Observability: per-command-type handling-latency histograms
        # (dequeue to end of the loop iteration), shared across ranks.
        obs = self.node.obs
        self._obs = obs
        self._cmd_hists: Optional[dict] = {} if obs else None

    def _note_command(self, cmd: Any, t0: float) -> None:
        """Bin the handling latency of *cmd* (obs enabled only)."""
        name = type(cmd).__name__
        hist = self._cmd_hists.get(name)
        if hist is None:
            hist = self._cmd_hists[name] = self._obs.histogram(
                f"bm.cmd.{name}.latency")
        hist.observe(self.env._now - t0)

    # ------------------------------------------------------------------ loop --
    def run(self) -> Generator[Event, Any, None]:
        """Main dispatch loop; ends after the rank's finish command."""
        queue = self.state.cmd_queue
        host = self.cfg.host
        poll_latency = host.poll_latency
        command_cost = host.command_cost
        node = self.node
        worker = node.worker
        buffered = queue.entries   # occupancy fast path
        while True:
            if buffered:
                # A busy manager drains its queue without re-polling, so
                # batches only pay the poll latency once.
                cmd = queue.try_dequeue()
                t0 = self.env._now
            else:
                # Poll elision: park until the next commit, waking exactly
                # poll_latency after it — the tick at which the polling
                # worker thread would have noticed the new entry.  The
                # wake carries the commit time so the handling-latency
                # histograms keep their old dequeue-time anchor.
                cmd, t0 = yield queue.park_consume(poll_latency)
            # Inlined node.host_work(command_cost) — the per-command host
            # charge resumes this frame twice, so the delegated generator
            # is pure overhead; the hold and the busy-time accounting are
            # identical.
            yield worker.request()
            try:
                node.worker_busy_time += command_cost
                yield command_cost
            finally:
                worker.release()
            # Exact-class dispatch ordered by frequency (notifications of
            # same-node puts dominate); no command class is subclassed.
            cls = cmd.__class__
            if cls is NotifyCommand:
                yield from self._handle_notify(cmd)
            elif cls is PutCommand:
                self._start_put(cmd)
            elif cls is GetCommand:
                self._start_get(cmd)
            elif cls is BarrierCommand:
                yield from self._handle_barrier(cmd)
            elif cls is NonblockingBarrierCommand:
                # §V extension: runs in the background; the command loop
                # keeps draining so the rank can overlap past the barrier.
                self.env.process(self._handle_ibarrier(cmd),
                                 name=f"ibar:r{cmd.origin_rank}")
            elif cls is WinCreateCommand:
                yield from self._handle_win_create(cmd)
            elif cls is WinFreeCommand:
                yield from self._handle_win_free(cmd)
            elif cls is FinishCommand:
                yield from self._handle_finish(cmd)
                if self._cmd_hists is not None:
                    self._note_command(cmd, t0)
                return
            else:
                raise TypeError(f"unknown command {cmd!r}")
            if self._cmd_hists is not None:
                self._note_command(cmd, t0)

    # ------------------------------------------------------- RMA origin side --
    def _start_put(self, cmd: PutCommand) -> None:
        """Fig. 5 steps 2-3 (origin side) — non-blocking, loop continues."""
        xfer = self.runtime.next_xfer_id()
        target_node = self.runtime.node_of_rank(cmd.target_rank)
        snapshot = np.ascontiguousarray(cmd.src[: cmd.count])
        meta = PutMeta(xfer_id=xfer, origin_rank=cmd.origin_rank,
                       target_rank=cmd.target_rank,
                       global_win_id=cmd.global_win_id,
                       target_offset=cmd.target_offset, count=cmd.count,
                       nbytes=float(snapshot.nbytes), tag=cmd.tag,
                       notify=cmd.notify)
        meta_req = self.world.isend(self.node.index, target_node, meta,
                                    tag=RT_TAG_META, nbytes=META_BYTES)
        data_req = self.world.isend(self.node.index, target_node, snapshot,
                                    tag=data_tag(xfer), device=True,
                                    mode="d2d")
        self.env.process(self._put_local_completion(cmd, meta_req, data_req),
                         name=f"putdone:r{cmd.origin_rank}")

    def _put_local_completion(self, cmd: PutCommand, meta_req, data_req):
        yield AllOf(self.env, [meta_req.event, data_req.event])
        yield from self.node.host_work(self.cfg.host.request_cost)
        yield from self._complete_flush(cmd.flush_id)

    def _start_get(self, cmd: GetCommand) -> None:
        """Origin side of a notified get: request, await reply, deliver."""
        xfer = self.runtime.next_xfer_id()
        target_node = self.runtime.node_of_rank(cmd.target_rank)
        meta = GetMeta(xfer_id=xfer, origin_rank=cmd.origin_rank,
                       target_rank=cmd.target_rank,
                       global_win_id=cmd.global_win_id,
                       target_offset=cmd.target_offset, count=cmd.count,
                       tag=cmd.tag)
        reply_req = self.world.irecv(self.node.index, source=target_node,
                                     tag=data_tag(xfer))
        self.world.isend(self.node.index, target_node, meta,
                         tag=RT_TAG_META, nbytes=META_BYTES)
        self.env.process(self._get_completion(cmd, reply_req),
                         name=f"getdone:r{cmd.origin_rank}")

    def _deliver(self, state: RankState, global_win_id, source: int,
                 tag: int):
        """Shared notification delivery point (see
        :func:`repro.dcuda.notifications.deliver`); imported lazily —
        the dcuda package imports the runtime, not vice versa."""
        deliver = self._deliver_fn
        if deliver is None:
            from ..dcuda.notifications import deliver

            type(self)._deliver_fn = staticmethod(deliver)
        return deliver(state, global_win_id, source, tag)

    def _get_completion(self, cmd: GetCommand, reply_req):
        msg = yield from reply_req.wait()
        yield from self.node.host_work(self.cfg.host.request_cost)
        data = msg.payload
        cmd.dst[: cmd.count] = data
        if cmd.notify:
            # Get notifications are delivered at the *origin* so the caller
            # can wait for its own gets (notified-access semantics).
            yield from self._deliver(self.state, cmd.global_win_id,
                                     cmd.target_rank, cmd.tag)
        yield from self._complete_flush(cmd.flush_id)

    def _handle_notify(self, cmd: NotifyCommand):
        """Shared-memory RMA: data already moved on-device; deliver the
        notification to the (same-node) target and update the flush."""
        if cmd.notify:
            yield from self._deliver(self.runtime.state_of(cmd.target_rank),
                                     cmd.global_win_id, cmd.origin_rank,
                                     cmd.tag)
        yield from self._complete_flush(cmd.flush_id)

    # ------------------------------------------------------- RMA target side --
    def incoming_put(self, meta: PutMeta) -> Generator[Event, Any, None]:
        """Fig. 5 steps 5-7 (target side), spawned by the event handler."""
        req = self.world.irecv(self.node.index,
                               source=self.runtime.node_of_rank(
                                   meta.origin_rank),
                               tag=data_tag(meta.xfer_id))
        msg = yield from req.wait()
        yield from self.node.host_work(self.cfg.host.request_cost)
        buf = self.system.window_access(
            meta.global_win_id, meta.target_rank, "put", meta.target_offset,
            meta.count, msg.payload.dtype)
        buf[meta.target_offset:meta.target_offset + meta.count] = msg.payload
        if meta.notify:
            yield from self._deliver(self.state, meta.global_win_id,
                                     meta.origin_rank, meta.tag)

    def incoming_get(self, meta: GetMeta) -> Generator[Event, Any, None]:
        """Target side of a get: read the window, send the data back."""
        yield from self.node.host_work(self.cfg.host.request_cost)
        buf = self.system.window_access(
            meta.global_win_id, meta.target_rank, "get", meta.target_offset,
            meta.count)
        snapshot = buf[meta.target_offset:meta.target_offset + meta.count]
        self.world.isend(self.node.index,
                         self.runtime.node_of_rank(meta.origin_rank),
                         np.ascontiguousarray(snapshot),
                         tag=data_tag(meta.xfer_id), device=True, mode="d2d")

    # ----------------------------------------------------------- collectives --
    def _handle_win_create(self, cmd: WinCreateCommand):
        gid = yield from self.system.register_window(cmd)
        self.state.win_translation[cmd.local_win_id] = gid
        yield from self.state.ack_queue.enqueue(Ack("win_create", gid))

    def _handle_win_free(self, cmd: WinFreeCommand):
        yield from self.system.unregister_window(cmd)
        yield from self.state.ack_queue.enqueue(Ack("win_free"))

    def _handle_barrier(self, cmd: BarrierCommand):
        yield from self.system.collective_arrive("barrier", cmd.comm_name)
        yield from self.state.ack_queue.enqueue(Ack("barrier"))

    def _handle_ibarrier(self, cmd: NonblockingBarrierCommand):
        yield from self.system.collective_arrive("ibarrier", cmd.comm_name)
        yield from self.state.notif_queue.enqueue(
            Notification(win_id=COLLECTIVE_WIN, source=cmd.origin_rank,
                         tag=cmd.tag))

    def _handle_finish(self, cmd: FinishCommand):
        yield from self.system.collective_arrive("finish", "world")
        self.state.finished = True
        yield from self.state.ack_queue.enqueue(Ack("finish"))

    # ------------------------------------------------------------------ flush --
    def _complete_flush(self, flush_id: int):
        """Advance the in-order flush counter; write it to the device."""
        state = self.state
        advanced = state.flush_tracker.complete(flush_id)
        if not advanced:
            return
        # Inlined pcie.mapped_post() (the _transact generator two frames
        # down): flush completions run once per RMA command, and each of
        # their three yields otherwise resumes through the full delegation
        # chain.  Semantics identical: one posted mapped write, engine
        # occupancy under the FCFS lock, then the visibility delay.
        pcie = state.pcie
        pcie.mapped_writes += 1
        lock = pcie._mapped_lock
        yield lock.request()
        try:
            yield pcie.cfg.mapped_post_occupancy
        finally:
            lock.release()
        yield pcie.cfg.mapped_write_latency
        # The tracker only grows, so later writes never regress the value.
        state.flush_counter = max(state.flush_counter,
                                  state.flush_tracker.counter)
        state.flush_signal.fire()
