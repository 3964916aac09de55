"""The communication-backend protocol: where RMA operations initiate.

The paper's runtime initiates every remote memory access on the *host*:
a device rank enqueues a command over PCIe and the block manager issues
the MPI operations (the proxy design of §III).  Later GPU-centric
runtimes move that initiation point, and :class:`CommBackend` is the
seam that makes the choice pluggable behind the unchanged device API
(``put_notify`` / ``get_notify`` / ``wait_notifications`` / ``flush`` /
``barrier``):

* ``proxy``  — the paper's block-manager + PCIe-queue path (default,
  schedule-preserving: the golden timestamps are bit-identical),
* ``device`` — symmetric-heap RMA issued directly from the GPU (NVSHMEM
  style): the rank pays IOMMU/ATS translation plus the NIC MMIO
  doorbell on its own SM issue unit and skips the host round trip,
* ``stream`` — deferred triggered ops: the device enqueues a descriptor
  on a per-rank stream and the fabric's triggered-op engine fires it
  once the trigger commits, in stream FIFO order.

A backend owns exactly the *initiation and completion* of puts and
gets: how the payload reaches the target window, who delivers the
notification, and who retires the origin-side flush id.  Everything
else — windows, collectives, notification matching, flush waiting — is
backend-independent, which is what the differential harness in
``tests/comm`` verifies: all app-visible observables must be
semantically equivalent across backends, only the timestamps (each
backend's cost model, pinned by its golden fixture) may differ.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ..dcuda.notifications import deliver
from ..runtime.state import RankState
from ..sim import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dcuda.device_api import DRank
    from ..dcuda.window import Window
    from ..runtime.system import DCudaRuntime

__all__ = ["CommBackend"]


class CommBackend(ABC):
    """One communication scheme: put/get initiation, notify, flush retire."""

    #: Registry key; also ``MachineConfig.comm_backend``'s value.
    name = "?"

    def __init__(self, runtime: "DCudaRuntime"):
        self.runtime = runtime
        self.env = runtime.env
        self.cfg = runtime.cfg
        self.fabric = runtime.cluster.fabric

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Spawn backend-owned processes; called after the runtime systems
        started (default: nothing to spawn)."""

    # -- initiation (the per-backend core) ---------------------------------
    @abstractmethod
    def put(self, drank: "DRank", win: "Window", target_rank: int,
            target_offset: int, src: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        """Initiate one (optionally notified) put.

        Runs on the issuing rank's process; must return as soon as the
        operation is *issued* — completion is observed through the flush
        counter (retired via :meth:`_advance_flush`) and the target's
        notification.  Validation (``win.check_target``) and flush-id
        allocation already happened in the device API.
        """

    @abstractmethod
    def get(self, drank: "DRank", win: "Window", target_rank: int,
            target_offset: int, dst: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        """Initiate one (optionally notified) get; notification is
        delivered at the *origin* with the target as its source."""

    # -- shared mechanics --------------------------------------------------
    def _advance_flush(self, state: RankState, flush_id: int,
                       delay: float = 0.0) -> Generator[Event, Any, None]:
        """Retire *flush_id* on the in-order tracker; publish + wake after
        *delay* (the backend's completion-handling cost) when the counter
        actually advanced."""
        advanced = state.flush_tracker.complete(flush_id)
        if not advanced:
            return
        if delay > 0.0:
            yield delay
        state.flush_counter = max(state.flush_counter,
                                  state.flush_tracker.counter)
        state.flush_signal.fire()

    def _notify(self, target_state: RankState, global_win_id, source: int,
                tag: int) -> Generator[Event, Any, None]:
        """Deliver one notification (single shared delivery point)."""
        return deliver(target_state, global_win_id, source, tag)

    def _write_window(self, global_win_id, target_rank: int,
                      target_offset: int, data: np.ndarray) -> None:
        """Store an arrived put payload into the target's window.

        Checked by ``RuntimeSystem.window_access``, as the proxy's target
        side is, so fault outcomes are backend-independent: ``IndexError``
        out of bounds, ``TypeError`` on dtype mismatch.
        """
        count = int(data.size)
        buf = self.runtime.system_of(target_rank).window_access(
            global_win_id, target_rank, "put", target_offset, count,
            data.dtype)
        buf[target_offset:target_offset + count] = data

    def _read_window(self, global_win_id, target_rank: int,
                     target_offset: int, count: int) -> np.ndarray:
        """Snapshot a get's source region from the target's window
        (``IndexError`` out of bounds, mirroring ``incoming_get``)."""
        buf = self.runtime.system_of(target_rank).window_access(
            global_win_id, target_rank, "get", target_offset, count)
        return np.ascontiguousarray(buf[target_offset:target_offset + count])
