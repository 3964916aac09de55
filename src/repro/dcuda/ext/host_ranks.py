"""Host ranks (§V, "Host Ranks").

"To fully utilize the compute power of host and device, we suggest to
extend our programming model with host ranks that like the device ranks
communicate using notified remote memory access."

A :class:`HostRank` runs on a node's host processor.  It can put into (and
get from) device-rank windows with target notification, under the same
bounds and dtype rule as a device rank, and device ranks notify it with
:func:`notify_host`.  Host-side matching works on a private notification
store — no PCIe queue is involved for notifications *to* the host.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ...runtime.commands import Notification
from ...runtime.system import DCudaRuntime
from ...sim import Event, Store
from ..device_api import DRank
from ..notifications import DCUDA_ANY_SOURCE, DCUDA_ANY_TAG
from ..window import Window

__all__ = ["HostRank"]

#: Rank-id space for host ranks: ``HOST_RANK_BASE + node`` — outside the
#: device-rank space so notification sources are unambiguous.
HOST_RANK_BASE = 1 << 20


class HostRank:
    """A host-resident rank communicating via notified RMA.

    Create one per node *after* the runtime started.  A host rank owns no
    window: it puts into and gets from the device-rank windows of its own
    node, and device ranks signal it with :func:`notify_host` (full
    device→host symmetry would need its own window table entry — the
    published runtime never had host ranks, this is the suggested
    extension in its simplest useful form).
    """

    def __init__(self, runtime: DCudaRuntime, node_index: int):
        self.runtime = runtime
        self.env = runtime.env
        self.node = runtime.cluster.node(node_index)
        self.rank_id = HOST_RANK_BASE + node_index
        self._notifications = Store(self.env,
                                    name=f"hostrank{node_index}.notif")

    # -- RMA ----------------------------------------------------------------
    def put_notify(self, win: Window, target_rank: int, target_offset: int,
                   src: np.ndarray, tag: int = 0
                   ) -> Generator[Event, Any, None]:
        """Put host data into a device rank's window with notification.

        Data crosses the PCIe link by DMA; the notification takes the same
        notification-queue path a block manager uses.  The target region
        is checked like every device put (``window_access``).

        Raises:
            IndexError: the put runs past the end of the target window.
            TypeError: *src*'s dtype is not the window's.
        """
        src = np.asarray(src)
        win.check_target(target_rank, target_offset, src.size)
        snapshot = src.copy()
        system = self.runtime.system_of(target_rank)
        if system.node.index != self.node.index:
            raise ValueError(
                "host ranks address their own node's device; route through "
                "MPI for remote nodes")
        buf = system.window_access(win.global_id, target_rank, "put",
                                   target_offset, snapshot.size,
                                   snapshot.dtype)
        yield from self.node.pcie.dma_copy(float(snapshot.nbytes))
        buf[target_offset:target_offset + snapshot.size] = snapshot
        state = self.runtime.state_of(target_rank)
        local_win = state.win_reverse[win.global_id]
        yield from state.notif_queue.enqueue(
            Notification(win_id=local_win, source=self.rank_id, tag=tag))

    def get(self, win: Window, target_rank: int, target_offset: int,
            count: int) -> Generator[Event, Any, np.ndarray]:
        """Read a device rank's window region into host memory.

        Raises:
            IndexError: the region runs past the end of the window.
        """
        win.check_target(target_rank, target_offset, count)
        system = self.runtime.system_of(target_rank)
        buf = system.window_access(win.global_id, target_rank, "get",
                                   target_offset, count)
        data = buf[target_offset:target_offset + count].copy()
        yield from self.node.pcie.dma_copy(float(data.nbytes))
        return data

    # -- notifications --------------------------------------------------------
    def notify(self, source_rank: int, tag: int = 0) -> None:
        """Deliver a notification to this host rank (device ranks call
        this through :func:`notify_host` below)."""
        self._notifications.try_put(Notification(win_id=-1,
                                                 source=source_rank,
                                                 tag=tag))

    def wait_notifications(self, source: int = DCUDA_ANY_SOURCE,
                           tag: int = DCUDA_ANY_TAG,
                           count: int = 1) -> Generator[Event, Any, None]:
        """Block until *count* matching notifications arrived."""
        matched = 0
        while matched < count:
            yield self._notifications.get(
                lambda n: ((source == DCUDA_ANY_SOURCE or n.source == source)
                           and (tag == DCUDA_ANY_TAG or n.tag == tag)))
            matched += 1


def notify_host(rank: DRank, host: HostRank,
                tag: int = 0) -> Generator[Event, Any, None]:
    """Device-side: signal a host rank (one PCIe transaction)."""
    yield from rank.node.pcie.mapped_post()
    yield rank.node.pcie.write_visibility_delay
    host.notify(rank.world_rank, tag)
