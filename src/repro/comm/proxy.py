"""The proxy backend: the paper's host block-manager path (§III).

This is the seed implementation extracted verbatim behind the
:class:`~repro.comm.base.CommBackend` interface — every ``yield`` the
device API performed before the extraction happens here in the same
order with the same arguments, so the event schedule (and therefore the
22 golden timestamps) is bit-identical.  The actual data movement stays
where it always lived: shared-memory ranks copy on-device and loop only
the notification through the host; distributed ranks enqueue the full
command over PCIe for the block manager to turn into MPI operations.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..runtime.commands import GetCommand, NotifyCommand, PutCommand
from ..sim import Event
from .base import CommBackend

__all__ = ["ProxyBackend"]


class ProxyBackend(CommBackend):
    """Host-initiated RMA: device → PCIe command queue → block manager."""

    name = "proxy"

    def put(self, drank, win, target_rank: int, target_offset: int,
            src: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        if drank._is_shared(target_rank):
            # Shared-memory put: the device moves the data itself; only
            # the notification loops through the host (§III-B).
            yield from drank._shared_copy_put(win, target_rank,
                                              target_offset, src)
            yield from drank._assemble()
            yield from drank.state.cmd_queue.enqueue(NotifyCommand(
                drank.world_rank, win.global_id, target_rank, tag,
                flush_id, notify))
        else:
            yield from drank._assemble()
            # Snapshot at issue time: the block manager isends later, and
            # the application may legitimately start its next compute phase
            # (overwriting the source) as soon as its own waits complete.
            yield from drank.state.cmd_queue.enqueue(PutCommand(
                drank.world_rank, win.global_id, target_rank,
                target_offset, int(src.size), src.copy(), tag,
                flush_id, notify))

    def get(self, drank, win, target_rank: int, target_offset: int,
            dst: np.ndarray, tag: int, flush_id: int,
            notify: bool) -> Generator[Event, Any, None]:
        if drank._is_shared(target_rank):
            # Shared-memory get: device-side copy, self-notification via
            # the host (origin_rank is the *target* so the notification
            # arrives at this rank with the target as its source).
            yield from drank._shared_copy_get(win, target_rank,
                                              target_offset, dst)
            yield from drank._assemble()
            yield from drank.state.cmd_queue.enqueue(NotifyCommand(
                target_rank, win.global_id, drank.world_rank, tag,
                flush_id, notify))
        else:
            yield from drank._assemble()
            yield from drank.state.cmd_queue.enqueue(GetCommand(
                drank.world_rank, win.global_id, target_rank,
                target_offset, int(dst.size), dst, tag, flush_id,
                notify))
