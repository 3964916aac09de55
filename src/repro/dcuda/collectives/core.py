"""Device-side collectives over notified remote memory access.

The paper's mini-apps implement broadcast and reduction manually "using a
binary tree communication pattern" (§IV-C); this module provides those
trees as reusable building blocks, plus the shared-memory-aware
hierarchical broadcast the discussion section proposes ("implement
highly-efficient collectives that leverage shared memory", §V).

All collectives operate on window regions: every participating rank calls
with its own view of the same window (the region that holds/receives the
value) and a private scratch window for reductions.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from ...sim import Event
from ..device_api import DRank
from ..errors import DCudaError
from ..ext.notify_all import put_notify_all
from ..window import Window

__all__ = ["tree_broadcast", "tree_reduce", "hierarchical_broadcast",
           "tree_levels"]


def tree_levels(p: int) -> int:
    """Depth of a binomial tree over *p* participants.

    Args:
        p: Number of participants (>= 1).

    Returns:
        The smallest *l* with ``2**l >= p`` — the number of communication
        rounds a binomial broadcast/reduction needs.
    """
    levels = 0
    while (1 << levels) < p:
        levels += 1
    return levels


def _index_of(group: Sequence[int], rank: int) -> int:
    try:
        return list(group).index(rank)
    except ValueError:
        raise DCudaError(f"rank {rank} not in collective group "
                         f"{list(group)}") from None


def tree_broadcast(rank: DRank, win: Window, group: Sequence[int],
                   buf: np.ndarray, root: Optional[int] = None,
                   offset: int = 0,
                   tag: int = 0) -> Generator[Event, Any, None]:
    """Binomial-tree broadcast of the root's *buf* over *group*.

    *buf* must be each rank's view of the window region at *offset* (the
    same region on every participant); after return it holds the root's
    data everywhere.  Non-root ranks wait for one notification from their
    parent before forwarding.

    Args:
        rank: The calling rank (every member of *group* must call).
        win: Window covering the broadcast region on all participants.
        group: World ranks participating, in a common order.
        buf: This rank's view of the region at *offset*.
        root: Broadcast root; defaults to ``group[0]``.
        offset: Element offset of the region in the target windows.
        tag: Notification tag distinguishing concurrent collectives.

    Returns:
        Nothing; completion is per-rank (tree order, no global barrier).

    Raises:
        DCudaError: the calling rank is not a member of *group*.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    group = list(group)
    p = len(group)
    root = group[0] if root is None else root
    idx = _index_of(group, rank.world_rank)
    root_idx = _index_of(group, root)
    if p == 1:
        return
    vrank = (idx - root_idx) % p

    mask = 1
    while mask < p:
        if vrank & mask:
            yield from rank.wait_notifications(win, tag=tag, count=1)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < p:
            target = group[(vrank + mask + root_idx) % p]
            yield from rank.put_notify(win, target, offset, buf, tag=tag)
        mask >>= 1


def tree_reduce(rank: DRank, scratch_win: Window, group: Sequence[int],
                value: np.ndarray, root: Optional[int] = None,
                op: Callable[..., Any] = np.add,
                tag_base: int = 0) -> Generator[Event, Any, Optional[np.ndarray]]:
    """Binomial gather-up reduction of *value* over *group*.

    Every rank passes a private *scratch_win* whose buffer has room for
    ``tree_levels(len(group)) * value.size`` elements — one slot per tree
    level, so concurrent children never collide.  *op* must be commutative
    and support ``op(a, b, out=a)``.

    Args:
        rank: The calling rank (every member of *group* must call).
        scratch_win: Per-rank private scratch window (receive slots).
        group: World ranks participating, in a common order.
        value: This rank's contribution (any array shape; flattened size
            defines the slot width).
        root: Rank receiving the result; defaults to ``group[0]``.
        op: Reduction ufunc, e.g. ``np.add`` / ``np.maximum``.
        tag_base: Tags ``tag_base + level`` are used per tree level.

    Returns:
        The reduced array at *root*; ``None`` on every other rank.

    Raises:
        DCudaError: the calling rank is not in *group*, or *scratch_win*
            is too small for ``tree_levels(len(group))`` slots.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    group = list(group)
    p = len(group)
    root = group[0] if root is None else root
    idx = _index_of(group, rank.world_rank)
    root_idx = _index_of(group, root)
    acc = np.array(value, copy=True)
    if p == 1:
        return acc
    n = acc.size
    levels = tree_levels(p)
    if scratch_win.size < levels * n:
        raise DCudaError(
            f"scratch window of {scratch_win.size} elements cannot hold "
            f"{levels} levels x {n} elements")
    scratch = scratch_win.buffer
    vrank = (idx - root_idx) % p

    level = 0
    mask = 1
    while mask < p:
        if vrank & mask:
            target = group[(vrank - mask + root_idx) % p]
            yield from rank.put_notify(scratch_win, target, level * n, acc,
                                       tag=tag_base + level)
            return None
        if vrank + mask < p:
            source = group[(vrank + mask + root_idx) % p]
            yield from rank.wait_notifications(scratch_win, source=source,
                                               tag=tag_base + level,
                                               count=1)
            op(acc, scratch[level * n:(level + 1) * n], out=acc)
        mask <<= 1
        level += 1
    return acc


def hierarchical_broadcast(rank: DRank, win: Window, buf: np.ndarray,
                           root: Optional[int] = None, offset: int = 0,
                           tag: int = 0) -> Generator[Event, Any, None]:
    """Shared-memory-aware broadcast over the whole world (§V).

    Two stages: a binomial tree over the device *leaders* (one rank per
    device, moving the data across the network once per device), then a
    single transfer-once/notify-all within each device.  Compared to a
    flat tree over all ranks, the data crosses each device boundary once
    and the intra-device fan-out is one data movement total.

    Args:
        rank: The calling rank; *every* world rank must call.
        win: Window covering the broadcast region on all ranks.
        buf: This rank's view of the region at *offset*.
        root: Broadcast root; defaults to world rank 0.
        offset: Element offset of the region in the target windows.
        tag: Notification tag distinguishing concurrent collectives.

    Returns:
        Nothing; per-rank completion as in :func:`tree_broadcast`.

    Raises:
        DCudaError: propagated from :func:`tree_broadcast` /
            :func:`~repro.dcuda.ext.notify_all.put_notify_all` on
            malformed groups.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    rt = rank.runtime
    placement = rt.placement
    root = 0 if root is None else root
    root_device = placement.device_of(root)
    # Stage 1: leaders = the root plus the first rank of every other
    # (populated) device, in canonical device order.
    leaders = [root] + [
        placement.ranks_on_device(*dev)[0]
        for dev in placement.devices
        if dev != root_device and placement.ranks_on_device(*dev)]
    my_device = (rank.node.index, rank.gpu_index)
    my_leader = (root if my_device == root_device
                 else placement.ranks_on_device(*my_device)[0])
    if rank.world_rank == my_leader:
        yield from tree_broadcast(rank, win, leaders, buf, root=root,
                                  offset=offset, tag=tag)
        # Stage 2: one data movement, notifications to all local ranks.
        locals_ = [r for r in placement.ranks_on_device(*my_device)
                   if r != rank.world_rank]
        if locals_:
            yield from put_notify_all(rank, win, locals_, offset, buf,
                                      tag=tag)
    else:
        yield from rank.wait_notifications(win, tag=tag, count=1)
