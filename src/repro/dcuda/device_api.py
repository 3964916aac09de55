"""The dCUDA device-side programming interface.

A dCUDA kernel is a Python generator taking one :class:`DRank` — the
equivalent of the per-block view of the paper's single persistent CUDA
kernel.  All communication methods are generators and must be invoked with
``yield from``; everything else is plain Python.  The surface mirrors the
paper's API:

====================================  =====================================
paper (§II-C)                         here
====================================  =====================================
``dcuda_comm_size/rank``              :meth:`DRank.comm_size` / ``comm_rank``
``dcuda_win_create/free``             :meth:`DRank.win_create` / ``win_free``
``dcuda_put_notify``/``get_notify``   :meth:`DRank.put_notify` / ``get_notify``
``dcuda_put``/``get`` (unnotified)    ``notify=False``
``dcuda_wait/test_notifications``     :meth:`DRank.wait_notifications` /
                                      ``test_notifications``
window ``flush``                      :meth:`DRank.flush`
``barrier`` collective                :meth:`DRank.barrier`
``DCUDA_ANY_SOURCE`` etc.             module constants
====================================  =====================================

Compute phases are expressed through :meth:`DRank.compute`, which executes
real numpy work immediately and charges the calibrated device time for it —
the simulation equivalent of the kernel's arithmetic between communication
calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from ..hw.gpu import Block, Device
from ..runtime.commands import (
    BarrierCommand,
    FinishCommand,
    LogCommand,
    WinCreateCommand,
    WinFreeCommand,
)
from ..runtime.system import DCudaRuntime
from ..sim import Event
from .errors import DCudaProtocolError, DCudaUsageError
from .notifications import (
    DCUDA_ANY_SOURCE,
    DCUDA_ANY_TAG,
    DCUDA_ANY_WINDOW,
    NotificationMatcher,
)
from .window import Window, same_memory

__all__ = ["DRank", "DCUDA_COMM_WORLD", "DCUDA_COMM_DEVICE",
           "DCUDA_ANY_SOURCE", "DCUDA_ANY_TAG", "DCUDA_ANY_WINDOW"]

DCUDA_COMM_WORLD = "world"
DCUDA_COMM_DEVICE = "device"


class DRank:
    """One rank's device-side library instance (the context object).

    Args:
        runtime: The started :class:`~repro.runtime.system.DCudaRuntime`
            this rank belongs to.
        world_rank: The rank's id in the world communicator.

    Raises:
        ValueError: ``world_rank`` is out of range for the runtime
            (via ``runtime.check_rank``).
    """

    def __init__(self, runtime: DCudaRuntime, world_rank: int):
        runtime.check_rank(world_rank)
        self.runtime = runtime
        self.world_rank = world_rank
        self.env = runtime.env
        self.system = runtime.system_of(world_rank)
        self.node = self.system.node
        #: Local GPU ordinal hosting this rank (placement-resolved).
        self.gpu_index = runtime.gpu_of_rank(world_rank)
        self.device: Device = self.node.gpu(self.gpu_index)
        self.state = runtime.state_of(world_rank)
        self.block: Block = self.state.block
        self.cfg = runtime.cfg
        self.matcher = NotificationMatcher(self.state, self.device,
                                           self.block, self.cfg.devicelib)
        # Communicator membership is fixed for the life of the rank.
        self._participants_cache: Dict[str, Tuple[int, ...]] = {}
        self._finished = False

    # ------------------------------------------------------------- identity --
    def _comm_name(self, comm: str) -> str:
        if comm == DCUDA_COMM_WORLD:
            return "world"
        if comm == DCUDA_COMM_DEVICE:
            return self.runtime.device_comm_name(self.node.index,
                                                 self.gpu_index)
        raise ValueError(f"unknown communicator {comm!r}")

    def comm_size(self, comm: str = DCUDA_COMM_WORLD) -> int:
        """Number of ranks in *comm* (dcuda_comm_size, paper §II-C).

        Args:
            comm: ``DCUDA_COMM_WORLD`` or ``DCUDA_COMM_DEVICE``.

        Returns:
            The communicator's rank count.

        Raises:
            ValueError: *comm* is not a known communicator.
        """
        self._comm_name(comm)
        if comm == DCUDA_COMM_WORLD:
            return self.runtime.total_ranks
        return len(self.runtime.placement.ranks_on_device(
            self.node.index, self.gpu_index))

    def comm_rank(self, comm: str = DCUDA_COMM_WORLD) -> int:
        """This rank's id within *comm* (dcuda_comm_rank, paper §II-C).

        Args:
            comm: ``DCUDA_COMM_WORLD`` or ``DCUDA_COMM_DEVICE``.

        Returns:
            The calling rank's id in that communicator.

        Raises:
            ValueError: *comm* is not a known communicator.
        """
        self._comm_name(comm)
        if comm == DCUDA_COMM_WORLD:
            return self.world_rank
        return self.state.device_rank

    def comm_participants(self, comm: str) -> Tuple[int, ...]:
        """World ranks belonging to *comm*.

        Args:
            comm: ``DCUDA_COMM_WORLD`` or ``DCUDA_COMM_DEVICE``.

        Returns:
            The member world ranks, ascending.

        Raises:
            ValueError: *comm* is not a known communicator.
        """
        cached = self._participants_cache.get(comm)
        if cached is not None:
            return cached
        self._comm_name(comm)
        if comm == DCUDA_COMM_WORLD:
            result = tuple(range(self.runtime.total_ranks))
        else:
            result = self.runtime.placement.ranks_on_device(
                self.node.index, self.gpu_index)
        self._participants_cache[comm] = result
        return result

    @property
    def now(self) -> float:
        """Current simulated time (device-side clock)."""
        return self.env._now

    # ------------------------------------------------------------- windows --
    def win_create(self, buffer: np.ndarray,
                   comm: str = DCUDA_COMM_WORLD
                   ) -> Generator[Event, Any, Window]:
        """Collectively create a window over *buffer* (dcuda_win_create,
        paper §II-C).

        Every rank of *comm* must call with its own (possibly overlapping)
        local memory range; sizes may differ per rank.

        Args:
            buffer: 1-D numpy view the window exposes for remote access.
            comm: Communicator the window spans.

        Returns:
            The created :class:`~repro.dcuda.window.Window`.

        Raises:
            ValueError: *buffer* is not 1-D, or *comm* is unknown.
            DCudaUsageError: called after :meth:`finish`.
            DCudaProtocolError: the runtime acknowledged with the wrong
                ack kind (runtime bug).
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        buffer = np.asarray(buffer)
        if buffer.ndim != 1:
            raise ValueError(f"window buffers must be 1-D views, got "
                             f"{buffer.ndim}-D")
        if self._finished:
            raise DCudaUsageError(f"rank {self.world_rank} already finished")
        comm_name = self._comm_name(comm)
        local_id = self.state.allocate_local_win()
        yield from self._assemble()
        yield from self.state.cmd_queue.enqueue(WinCreateCommand(
            origin_rank=self.world_rank, local_win_id=local_id,
            comm_name=comm_name, buffer=buffer,
            participants=self.comm_participants(comm)))
        ack = yield from self._await_ack("win_create")
        return Window(local_id=local_id, global_id=ack.value,
                      comm_name=comm_name, owner_rank=self.world_rank,
                      buffer=buffer,
                      participants=self.comm_participants(comm))

    def win_free(self, win: Window) -> Generator[Event, Any, None]:
        """Collectively free *win* (dcuda_win_free, paper §II-C).

        Args:
            win: The window to free; every participant must call.

        Raises:
            DCudaProtocolError: the runtime acknowledged with the wrong
                ack kind (runtime bug).
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        yield from self._assemble()
        yield from self.state.cmd_queue.enqueue(WinFreeCommand(
            origin_rank=self.world_rank, global_win_id=win.global_id))
        yield from self._await_ack("win_free")

    # ------------------------------------------------------------------ RMA --
    def put_notify(self, win: Window, target_rank: int, target_offset: int,
                   src: np.ndarray, tag: int = 0,
                   notify: bool = True) -> Generator[Event, Any, None]:
        """Notified put: write *src* into the target's window region and,
        once complete, enqueue a notification at the target
        (dcuda_put_notify, paper §II-C).  Returns immediately after command
        submission — completion is tracked by ``flush`` and the target's
        notification.

        Args:
            win: Target window.
            target_rank: World rank whose window region is written.
            target_offset: Element offset into the target's region.
            src: Source array; snapshotted at issue time for remote puts.
            tag: Notification tag matched by the target's waits.
            notify: Deliver a notification at the target on completion.

        Raises:
            ValueError: the access falls outside the target's region
                (via ``win.check_target``).
            IndexError: a shared-memory put overruns the target buffer.
            TypeError: a shared-memory put with mismatched dtype.
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        src = np.asarray(src)
        win.check_target(target_rank, target_offset, src.size)
        flush_id = self._issue_flush_id(win)
        # Returns the backend generator directly (callers ``yield from``
        # it): the validation above is synchronous, so skipping this
        # wrapper frame removes one delegation hop from every resume of
        # the hottest RMA path without moving a single yield.
        return self.runtime.comm.put(self, win, target_rank, target_offset,
                                     src, tag, flush_id, notify)

    def put(self, win: Window, target_rank: int, target_offset: int,
            src: np.ndarray, tag: int = 0) -> Generator[Event, Any, None]:
        """Unnotified put (dcuda_put, paper §II-C); complete with ``flush``.

        Args:
            win: Target window.
            target_rank: World rank whose window region is written.
            target_offset: Element offset into the target's region.
            src: Source array.
            tag: Kept for symmetry with :meth:`put_notify`; unused.

        Raises:
            ValueError: the access falls outside the target's region.
            IndexError: a shared-memory put overruns the target buffer.
            TypeError: a shared-memory put with mismatched dtype.
        """
        return self.put_notify(win, target_rank, target_offset, src,
                               tag, notify=False)

    def get_notify(self, win: Window, target_rank: int, target_offset: int,
                   dst: np.ndarray, tag: int = 0,
                   notify: bool = True) -> Generator[Event, Any, None]:
        """Notified get: fetch the target's window region into *dst*
        (dcuda_get_notify, paper §II-C).  The notification is delivered to
        *this* rank's queue with the target as its source, so the caller
        can wait for its own gets.

        Args:
            win: Source window.
            target_rank: World rank whose window region is read.
            target_offset: Element offset into the target's region.
            dst: Writeable destination array.
            tag: Notification tag for the self-notification.
            notify: Deliver the self-notification on completion.

        Raises:
            ValueError: *dst* is read-only, or the access falls outside
                the target's region.
            IndexError: a shared-memory get overruns the source buffer.
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        dst = np.asarray(dst)
        if not dst.flags.writeable:
            raise ValueError("get destination must be writeable")
        win.check_target(target_rank, target_offset, dst.size)
        flush_id = self._issue_flush_id(win)
        return self.runtime.comm.get(self, win, target_rank, target_offset,
                                     dst, tag, flush_id, notify)

    def get(self, win: Window, target_rank: int, target_offset: int,
            dst: np.ndarray, tag: int = 0) -> Generator[Event, Any, None]:
        """Unnotified get (dcuda_get, paper §II-C); complete with ``flush``.

        Args:
            win: Source window.
            target_rank: World rank whose window region is read.
            target_offset: Element offset into the target's region.
            dst: Writeable destination array.
            tag: Kept for symmetry with :meth:`get_notify`; unused.

        Raises:
            ValueError: *dst* is read-only or the access is out of range.
            IndexError: a shared-memory get overruns the source buffer.
        """
        return self.get_notify(win, target_rank, target_offset, dst,
                               tag, notify=False)

    # -------------------------------------------------------- notifications --
    def wait_notifications(self, win: Optional[Window] = None,
                           source: int = DCUDA_ANY_SOURCE,
                           tag: int = DCUDA_ANY_TAG,
                           count: int = 1) -> Generator[Event, Any, None]:
        """Block until *count* matching notifications arrived and were
        consumed (dcuda_wait_notifications, paper §II-C/§III-C).

        Args:
            win: Window filter, or ``None`` for ``DCUDA_ANY_WINDOW``.
            source: Source-rank filter, or ``DCUDA_ANY_SOURCE``.
            tag: Tag filter, or ``DCUDA_ANY_TAG``.
            count: Notifications to consume before returning.

        Raises:
            ValueError: *count* is negative.
        """
        win_id = DCUDA_ANY_WINDOW if win is None else win.local_id
        return self.matcher.wait(win_id, source, tag, count,
                                 detail=f"tag={tag}")

    def test_notifications(self, win: Optional[Window] = None,
                           source: int = DCUDA_ANY_SOURCE,
                           tag: int = DCUDA_ANY_TAG,
                           count: int = 1) -> Generator[Event, Any, int]:
        """Consume up to *count* matching notifications without blocking
        (dcuda_test_notifications, paper §II-C).

        Args:
            win: Window filter, or ``None`` for ``DCUDA_ANY_WINDOW``.
            source: Source-rank filter, or ``DCUDA_ANY_SOURCE``.
            tag: Tag filter, or ``DCUDA_ANY_TAG``.
            count: Maximum notifications to consume.

        Returns:
            How many notifications matched and were consumed.

        Raises:
            ValueError: *count* is negative.
        """
        win_id = DCUDA_ANY_WINDOW if win is None else win.local_id
        return self.matcher.test(win_id, source, tag, count)

    # ------------------------------------------------------------- ordering --
    def flush(self, win: Optional[Window] = None
              ) -> Generator[Event, Any, None]:
        """Wait until pending RMA operations completed at the origin —
        all of this rank's operations, or only *win*'s when given
        (window ``flush``, paper §II-C).

        The wait lasts until the operations land, however long that
        takes; a fault plane changes only the operations it delays.

        Args:
            win: Restrict the wait to this window's last operation; all of
                the rank's operations when ``None``.
        """
        target = (self.state.next_flush_id - 1 if win is None
                  else win._last_flush_id)
        while self.state.flush_counter < target:
            yield self.state.flush_signal.wait()

    def barrier(self, comm: str = DCUDA_COMM_WORLD
                ) -> Generator[Event, Any, None]:
        """Barrier over all ranks of *comm*, looped through the host
        (paper §II-C; the flat-tree host barrier of §III-B).

        Args:
            comm: Communicator to synchronize.

        Raises:
            ValueError: *comm* is not a known communicator.
            DCudaProtocolError: the runtime acknowledged with the wrong
                ack kind (runtime bug).
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        comm_name = self._comm_name(comm)
        t0 = self.env._now
        yield from self._assemble()
        yield from self.state.cmd_queue.enqueue(BarrierCommand(
            origin_rank=self.world_rank, comm_name=comm_name))
        yield from self._await_ack("barrier")
        self.device.tracer.record(self.block.name, "wait", t0, self.env._now,
                                  f"barrier:{comm_name}")

    # -------------------------------------------------------------- compute --
    def compute(self, flops: float = 0.0, mem_bytes: float = 0.0,
                fn: Optional[Callable[[], Any]] = None,
                detail: str = "") -> Generator[Event, Any, Any]:
        """One compute phase: run *fn* (real numpy work) immediately and
        charge the device cost model for it.

        Args:
            flops: Floating-point operations to charge.
            mem_bytes: Device-memory traffic to charge.
            fn: Optional callable doing the real numerics; executed before
                the simulated time is charged.
            detail: Trace annotation.

        Returns:
            Whatever *fn* returned (``None`` without one).

        Raises:
            ValueError: *flops* or *mem_bytes* is negative.
        """
        result = fn() if fn is not None else None
        gen = self.device.compute(self.block, flops=flops,
                                  mem_bytes=mem_bytes, detail=detail)
        if result is None:
            # The charged phase returns None anyway, so hand the device
            # generator straight to the caller's ``yield from`` — one
            # frame less on every resume of a compute phase.
            return gen
        return self._compute_wrap(gen, result)

    @staticmethod
    def _compute_wrap(gen, result):
        """Delegate the device charge, then return *fn*'s result."""
        yield from gen
        return result

    def log(self, message: str) -> Generator[Event, Any, None]:
        """Print through the logging queue (§III-C: device-side logging
        loops through the host, which collects the records).

        Args:
            message: Text to record; coerced to ``str``.

        Returns:
            Nothing; the record lands in ``LaunchResult.log_records``.
        """
        yield from self.state.log_queue.enqueue(LogCommand(
            origin_rank=self.world_rank, message=str(message)))

    def finish(self) -> Generator[Event, Any, None]:
        """Collective teardown (dcuda_finish, paper §II-C): global barrier
        plus shutdown of this rank's block manager.

        Raises:
            DCudaUsageError: the rank already finished.
            DCudaProtocolError: the runtime acknowledged with the wrong
                ack kind (runtime bug).
            DCudaTimeoutError: injected credit starvation outlasted the
                command queue's retry budget (fault plane only).
        """
        if self._finished:
            raise DCudaUsageError(f"rank {self.world_rank} already finished")
        yield from self._assemble()
        yield from self.state.cmd_queue.enqueue(FinishCommand(
            origin_rank=self.world_rank))
        yield from self._await_ack("finish")
        self._finished = True

    # ------------------------------------------------------------ internals --
    def _await_ack(self, kind: str) -> Generator[Event, Any, Any]:
        """Dequeue the next ack and validate its kind.

        Blocks until the host posts the ack, as the paper's runtime
        does: an ack follows the slowest participant of its collective.

        Raises:
            DCudaProtocolError: the ack kind does not match *kind*.
        """
        queue = self.state.ack_queue
        if queue.entries:   # occupancy fast path
            ack = queue.try_dequeue()
        else:
            # Poll elision: the device reads the ack slot the moment the
            # host's posted write lands (delay 0 — acks were observed at
            # commit time by the blocking dequeue too).
            ack, _ = yield queue.park_consume(0.0)
        if ack.kind != kind:  # pragma: no cover - protocol guard
            raise DCudaProtocolError(
                f"expected {kind} ack, got {ack.kind}",
                rank=self.world_rank, sim_time=self.env._now)
        return ack

    def _assemble(self) -> Generator[Event, Any, None]:
        """Charge the device-side command assembly on the issue unit."""
        return self.device.issue_use(
            self.block, self.cfg.devicelib.command_assembly, kind="comm",
            detail="assemble")

    def _issue_flush_id(self, win: Window) -> int:
        fid = self.state.allocate_flush_id()
        win._last_flush_id = fid
        return fid

    def _is_shared(self, target_rank: int) -> bool:
        """Shared-memory rank = resident on the same *GPU* (§II-B).

        A rank on a different GPU of the same node is distributed memory:
        its puts ride the runtime's isend path, which the fabric resolves
        to the node's intra-node (NVLink-class) link.
        """
        return (self.runtime.placement.device_of(target_rank)
                == (self.node.index, self.gpu_index))

    def _shared_copy_put(self, win: Window, target_rank: int,
                         target_offset: int, src: np.ndarray):
        """Shared-memory put data movement: the device moves the data
        itself (§III-B); how the notification travels afterwards is the
        communication backend's business."""
        dst_buf = self.system.window_access(
            win.global_id, target_rank, "put", target_offset, src.size,
            src.dtype)
        # Zero-copy aliasing test against the cached buffer layout: the
        # slice ``dst_buf[target_offset:...]`` has base ``base + off*stride``
        # and strides ``(stride,)``, so this is ``same_memory(src, view)``
        # without constructing the view (or its ctypes pointer).
        base, stride, itemsize = self.system.window_layout(
            win.global_id, target_rank)
        if stride:
            aliased = (src.itemsize == itemsize
                       and src.strides == (stride,)
                       and src.ctypes.data == base + target_offset * stride)
        else:
            aliased = same_memory(
                src, dst_buf[target_offset:target_offset + src.size])
        if not aliased:
            # Data transfer by this block's threads; no-copy when source
            # and target addresses are identical (overlapping windows).
            yield from self.device.copy(self.block, float(src.nbytes),
                                        detail="shared-put")
            dst_buf[target_offset:target_offset + src.size] = src

    def _shared_copy_get(self, win: Window, target_rank: int,
                         target_offset: int, dst: np.ndarray):
        """Shared-memory get data movement: device-side copy."""
        src_buf = self.system.window_access(
            win.global_id, target_rank, "get", target_offset, dst.size)
        base, stride, itemsize = self.system.window_layout(
            win.global_id, target_rank)
        if stride:
            aliased = (dst.itemsize == itemsize
                       and dst.strides == (stride,)
                       and dst.ctypes.data == base + target_offset * stride)
        else:
            aliased = same_memory(
                dst, src_buf[target_offset:target_offset + dst.size])
        if not aliased:
            yield from self.device.copy(self.block, float(dst.nbytes),
                                        detail="shared-get")
            dst[:] = src_buf[target_offset:target_offset + dst.size]
