"""Data-parallel collectives: allreduce / reduce_scatter / all_gather.

Three algorithm families over the notified-RMA primitives, selectable per
call (or per :class:`~repro.dcuda.collectives.autotune.CollectiveAutotuner`
decision, ``algorithm="auto"``):

* ``ring`` — the bandwidth-optimal pipelined ring: reduce-scatter then
  all-gather in ``2(p-1)`` steps moving ``~2n`` bytes per rank total.
  The ring order is placement-aware (:func:`placement_ring_order`): ranks
  are walked device by device so each node boundary is crossed once per
  step, not once per co-located pair.
* ``tree`` — the latency-optimal binomial tree, extending
  :func:`~repro.dcuda.collectives.core.tree_reduce` /
  :func:`~repro.dcuda.collectives.core.tree_broadcast`:
  ``O(log p)`` rounds, each moving the full vector.
* ``hierarchical`` — the two-level scheme the paper's discussion section
  proposes for shared memory (§V), generalized to the platform layer:
  a per-node reduction to *leader* ranks over the fast intra-node path,
  a ring over the leaders across the fabric, then a per-node binomial
  broadcast (the leader machinery of
  :func:`~repro.dcuda.collectives.core.hierarchical_broadcast`).

All collectives operate **in place** on each rank's view ``buf`` of a
shared window region (MPI's ``MPI_IN_PLACE`` convention): ``buf`` holds
the rank's contribution on entry and the collective's result on exit.
Every rank additionally passes a private ``scratch_win`` for receive
staging; :func:`scratch_elems` returns a size that satisfies every
algorithm.  Results are deterministic per (algorithm, group, placement):
the reduction order is a pure function of the schedule, never of message
arrival order, so any two backends produce bit-identical buffers.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ...sim import Event
from ..device_api import DRank
from ..errors import DCudaError
from ..window import Window
from .core import _index_of, tree_broadcast, tree_levels, tree_reduce

__all__ = [
    "ALGORITHMS",
    "allreduce",
    "reduce_scatter",
    "all_gather",
    "chunk_bounds",
    "scratch_elems",
    "placement_ring_order",
    "node_groups",
]

#: Registered collective algorithm families (plus ``"auto"`` at the
#: dispatcher level, which defers the choice to a
#: :class:`~repro.dcuda.collectives.autotune.CollectiveAutotuner`).
ALGORITHMS = ("ring", "tree", "hierarchical")


# ----------------------------------------------------------- partitioning --
def chunk_bounds(n: int, p: int, i: int) -> Tuple[int, int]:
    """Balanced ``[lo, hi)`` element bounds of chunk *i* of *n* over *p*.

    The first ``n % p`` chunks carry one extra element; chunks are empty
    when ``n < p`` and ``i >= n``.

    Args:
        n: Vector length in elements.
        p: Number of chunks (the group size).
        i: Chunk index in ``[0, p)``.

    Returns:
        The half-open element range ``(lo, hi)`` of chunk *i*.

    Raises:
        DCudaError: *i* is outside ``[0, p)`` or *p* is not positive.
    """
    if p < 1 or not 0 <= i < p:
        raise DCudaError(f"chunk {i} of {p} is not a valid partition")
    base, extra = divmod(n, p)
    lo = i * base + min(i, extra)
    return lo, lo + base + (1 if i < extra else 0)


def _max_chunk(n: int, p: int) -> int:
    return -(-n // p) if n else 0


def scratch_elems(p: int, n: int) -> int:
    """Scratch-window size (elements) sufficient for *every* algorithm.

    Covers the binomial tree's per-level slots
    (``tree_levels(p) * n``), the ring's per-step receive slots
    (``(p-1) * ceil(n/p)``), and the hierarchical composition of both.

    Args:
        p: Collective group size.
        n: Vector length in elements.

    Returns:
        An element count safe to pass as every rank's scratch buffer.

    Raises:
        DCudaError: *p* is not positive or *n* is negative.
    """
    if p < 1 or n < 0:
        raise DCudaError(f"invalid scratch request: p={p}, n={n}")
    levels = max(tree_levels(p), 1)
    return (levels + 2) * max(n, 1) + p


def placement_ring_order(placement, group: Sequence[int]) -> List[int]:
    """Placement-aware ring order of *group*: device by device.

    Walks the group's members grouped by their hosting ``(node, gpu)``
    device in canonical device order, so ring neighbours are co-located
    wherever possible and each populated node boundary is crossed once.

    Args:
        placement: The resolved :class:`~repro.platform.placement.Placement`.
        group: World ranks participating, in any order.

    Returns:
        The members of *group* reordered for ring traversal.
    """
    return sorted(group, key=lambda r: (placement.device_of(r), r))


def node_groups(placement, group: Sequence[int]
                ) -> List[Tuple[int, List[int]]]:
    """Partition *group* by hosting node, in ascending node order.

    Args:
        placement: The resolved :class:`~repro.platform.placement.Placement`.
        group: World ranks participating, in a common order.

    Returns:
        ``[(node, members), ...]`` with members in group order; the first
        member of each node is that node's *leader*.
    """
    by_node = {}
    for r in group:
        by_node.setdefault(placement.node_of(r), []).append(r)
    return sorted(by_node.items())


def _check_scratch(scratch_win: Window, needed: int, what: str) -> None:
    if scratch_win.size < needed:
        raise DCudaError(
            f"{what}: scratch window of {scratch_win.size} elements "
            f"cannot hold the required {needed}")


# ------------------------------------------------------------ ring family --
def _ring_reduce_scatter(rank: DRank, win: Window, scratch_win: Window,
                         ring: Sequence[int], chunk_of: Sequence[int],
                         buf: np.ndarray, op: Callable[..., Any],
                         tag_base: int, scratch_offset: int = 0
                         ) -> Generator[Event, Any, None]:
    """Ring reduce-scatter over *ring* order; ``chunk_of[q]`` names the
    chunk id (a group index) owned by ring position *q* at the end.

    After return, position ``q``'s ``buf`` holds the full reduction of
    chunk ``chunk_of[q]``; all other chunk regions are partial sums and
    must be treated as undefined.  Receive slots occupy scratch elements
    ``[scratch_offset, scratch_offset + (p-1) * ceil(n/p))``.
    """
    p = len(ring)
    if p == 1:
        return
    n = buf.size
    mc = _max_chunk(n, p)
    _check_scratch(scratch_win, scratch_offset + (p - 1) * mc,
                   "ring reduce_scatter")
    scratch = scratch_win.buffer
    q = _index_of(ring, rank.world_rank)
    right = ring[(q + 1) % p]
    left = ring[(q - 1) % p]
    for s in range(p - 1):
        send_id = chunk_of[(q - 1 - s) % p]
        recv_id = chunk_of[(q - 2 - s) % p]
        slo, shi = chunk_bounds(n, p, send_id)
        rlo, rhi = chunk_bounds(n, p, recv_id)
        slot = scratch_offset + s * mc
        yield from rank.put_notify(scratch_win, right, slot,
                                   buf[slo:shi], tag=tag_base + s)
        yield from rank.wait_notifications(scratch_win, source=left,
                                           tag=tag_base + s, count=1)
        if rhi > rlo:
            op(buf[rlo:rhi], scratch[slot:slot + (rhi - rlo)],
               out=buf[rlo:rhi])


def _ring_all_gather(rank: DRank, win: Window, ring: Sequence[int],
                     chunk_of: Sequence[int], buf: np.ndarray, offset: int,
                     tag_base: int) -> Generator[Event, Any, None]:
    """Ring all-gather over *ring* order: position *q* contributes chunk
    ``chunk_of[q]``; chunks land directly in their final window slots."""
    p = len(ring)
    if p == 1:
        return
    n = buf.size
    q = _index_of(ring, rank.world_rank)
    right = ring[(q + 1) % p]
    left = ring[(q - 1) % p]
    for s in range(p - 1):
        send_id = chunk_of[(q - s) % p]
        lo, hi = chunk_bounds(n, p, send_id)
        yield from rank.put_notify(win, right, offset + lo, buf[lo:hi],
                                   tag=tag_base + s)
        yield from rank.wait_notifications(win, source=left,
                                           tag=tag_base + s, count=1)


def _ring_chunks(rank: DRank, group: Sequence[int]
                 ) -> Tuple[List[int], List[int]]:
    """Placement-aware ring order plus the position → chunk-id map.

    Chunk ids are **group indices** — rank ``group[i]`` always ends up
    owning chunk ``i`` regardless of the ring traversal order, which is
    what keeps ring results interchangeable with the other families.
    """
    ring = placement_ring_order(rank.runtime.placement, group)
    index = {r: i for i, r in enumerate(group)}
    return ring, [index[r] for r in ring]


# ------------------------------------------------------------ tree family --
def _tree_allreduce(rank: DRank, win: Window, scratch_win: Window,
                    group: Sequence[int], buf: np.ndarray,
                    op: Callable[..., Any], offset: int,
                    tag_base: int) -> Generator[Event, Any, None]:
    root = group[0]
    acc = yield from tree_reduce(rank, scratch_win, group, buf, root=root,
                                 op=op, tag_base=tag_base)
    if rank.world_rank == root:
        buf[:] = acc
    yield from tree_broadcast(rank, win, group, buf, root=root,
                              offset=offset,
                              tag=tag_base + tree_levels(len(group)))


def _tree_reduce_scatter(rank: DRank, win: Window, scratch_win: Window,
                         group: Sequence[int], buf: np.ndarray,
                         op: Callable[..., Any], offset: int,
                         tag_base: int) -> Generator[Event, Any, None]:
    """Reduce to the root, then scatter each chunk to its owner."""
    p = len(group)
    n = buf.size
    root = group[0]
    acc = yield from tree_reduce(rank, scratch_win, group, buf, root=root,
                                 op=op, tag_base=tag_base)
    scatter_tag = tag_base + tree_levels(p)
    if rank.world_rank == root:
        lo, hi = chunk_bounds(n, p, 0)
        buf[lo:hi] = acc[lo:hi]
        for i in range(1, p):
            lo, hi = chunk_bounds(n, p, i)
            yield from rank.put_notify(win, group[i], offset + lo,
                                       acc[lo:hi], tag=scatter_tag)
    else:
        yield from rank.wait_notifications(win, source=root,
                                           tag=scatter_tag, count=1)


def _tree_all_gather(rank: DRank, win: Window, group: Sequence[int],
                     buf: np.ndarray, offset: int,
                     tag_base: int) -> Generator[Event, Any, None]:
    """Gather every chunk to the root, then binomial-broadcast the vector."""
    p = len(group)
    n = buf.size
    root = group[0]
    idx = _index_of(group, rank.world_rank)
    if rank.world_rank == root:
        yield from rank.wait_notifications(win, tag=tag_base, count=p - 1)
    else:
        lo, hi = chunk_bounds(n, p, idx)
        yield from rank.put_notify(win, root, offset + lo, buf[lo:hi],
                                   tag=tag_base)
    yield from tree_broadcast(rank, win, group, buf, root=root,
                              offset=offset, tag=tag_base + 1)


# ---------------------------------------------------- hierarchical family --
def _hier_stage_tags(m: int, leaders: int, tag_base: int
                     ) -> Tuple[int, int, int]:
    """Non-overlapping tag bases for the three hierarchical stages."""
    s2 = tag_base + max(tree_levels(max(m, 1)), 1)
    s3 = s2 + 2 * max(leaders - 1, 1) + 1
    return tag_base, s2, s3


def _hier_allreduce(rank: DRank, win: Window, scratch_win: Window,
                    group: Sequence[int], buf: np.ndarray,
                    op: Callable[..., Any], offset: int,
                    tag_base: int) -> Generator[Event, Any, None]:
    placement = rank.runtime.placement
    groups = node_groups(placement, group)
    leaders = [members[0] for _, members in groups]
    locals_ = dict(groups)[placement.node_of(rank.world_rank)]
    m = max(len(members) for _, members in groups)
    t1, t2, t3 = _hier_stage_tags(m, len(leaders), tag_base)
    n = buf.size
    # Stage 1: reduce to this node's leader over the intra-node path.
    acc = yield from tree_reduce(rank, scratch_win, locals_, buf,
                                 root=locals_[0], op=op, tag_base=t1)
    if rank.world_rank == locals_[0]:
        buf[:] = acc
        # Stage 2: bandwidth-optimal ring across the fabric, leaders only.
        # Scratch slots live above the stage-1 tree levels — sized by the
        # group-wide maximum m, not this node's own member count, so every
        # leader agrees on the slot addresses peers write into.
        ring = placement_ring_order(placement, leaders)
        index = {r: i for i, r in enumerate(leaders)}
        chunk_of = [index[r] for r in ring]
        shift = tree_levels(m) * n
        yield from _ring_reduce_scatter(rank, win, scratch_win, ring,
                                        chunk_of, buf, op, t2,
                                        scratch_offset=shift)
        yield from _ring_all_gather(rank, win, ring, chunk_of, buf,
                                    offset, t2 + max(len(leaders) - 1, 0))
    # Stage 3: per-node binomial broadcast from the leader.
    yield from tree_broadcast(rank, win, locals_, buf, root=locals_[0],
                              offset=offset, tag=t3)


def _hier_reduce_scatter(rank: DRank, win: Window, scratch_win: Window,
                         group: Sequence[int], buf: np.ndarray,
                         op: Callable[..., Any], offset: int,
                         tag_base: int) -> Generator[Event, Any, None]:
    """Hierarchical reduce-scatter: node reduction, leader ring
    allreduce, then each leader deals its locals their own chunks."""
    placement = rank.runtime.placement
    groups = node_groups(placement, group)
    leaders = [members[0] for _, members in groups]
    locals_ = dict(groups)[placement.node_of(rank.world_rank)]
    m = max(len(members) for _, members in groups)
    t1, t2, t3 = _hier_stage_tags(m, len(leaders), tag_base)
    n = buf.size
    p = len(group)
    index = {r: i for i, r in enumerate(group)}
    acc = yield from tree_reduce(rank, scratch_win, locals_, buf,
                                 root=locals_[0], op=op, tag_base=t1)
    if rank.world_rank == locals_[0]:
        buf[:] = acc
        ring = placement_ring_order(placement, leaders)
        lidx = {r: i for i, r in enumerate(leaders)}
        chunk_of = [lidx[r] for r in ring]
        # Group-wide m: slot addresses must agree across leaders even
        # when nodes contribute unequal member counts.
        shift = tree_levels(m) * n
        yield from _ring_reduce_scatter(rank, win, scratch_win, ring,
                                        chunk_of, buf, op, t2,
                                        scratch_offset=shift)
        yield from _ring_all_gather(rank, win, ring, chunk_of, buf,
                                    offset, t2 + max(len(leaders) - 1, 0))
        # Stage 3: deal every local member its own group chunk.
        for member in locals_[1:]:
            lo, hi = chunk_bounds(n, p, index[member])
            yield from rank.put_notify(win, member, offset + lo,
                                       buf[lo:hi], tag=t3)
    else:
        yield from rank.wait_notifications(win, source=locals_[0],
                                           tag=t3, count=1)


def _hier_all_gather(rank: DRank, win: Window, group: Sequence[int],
                     buf: np.ndarray, offset: int,
                     tag_base: int) -> Generator[Event, Any, None]:
    """Hierarchical all-gather: locals raise chunks to their leader, the
    leaders ring-exchange each node's chunk *set* (chunks land at their
    true offsets), then each node broadcasts the assembled vector."""
    placement = rank.runtime.placement
    groups = node_groups(placement, group)
    leaders = [members[0] for _, members in groups]
    locals_ = dict(groups)[placement.node_of(rank.world_rank)]
    m = max(len(members) for _, members in groups)
    t1, t2, t3 = _hier_stage_tags(m, len(leaders), tag_base)
    n = buf.size
    p = len(group)
    index = {r: i for i, r in enumerate(group)}
    leader = locals_[0]
    # Stage 1: every local member raises its chunk to the leader.
    if rank.world_rank == leader:
        if len(locals_) > 1:
            yield from rank.wait_notifications(win, tag=t1,
                                               count=len(locals_) - 1)
        # Stage 2: ring over leaders; step s forwards the chunk set of
        # the node at ring distance s upstream, each chunk to its final
        # offset, closed by one wait for the full set.
        ring = placement_ring_order(placement, leaders)
        L = len(ring)
        q = _index_of(ring, rank.world_rank)
        by_leader = {members[0]: [index[r] for r in members]
                     for _, members in groups}
        if L > 1:
            right = ring[(q + 1) % L]
            left = ring[(q - 1) % L]
            for s in range(L - 1):
                send_set = by_leader[ring[(q - s) % L]]
                recv_set = by_leader[ring[(q - 1 - s) % L]]
                for cid in send_set:
                    lo, hi = chunk_bounds(n, p, cid)
                    yield from rank.put_notify(win, right, offset + lo,
                                               buf[lo:hi], tag=t2 + s)
                yield from rank.wait_notifications(win, source=left,
                                                   tag=t2 + s,
                                                   count=len(recv_set))
    else:
        lo, hi = chunk_bounds(n, p, index[rank.world_rank])
        yield from rank.put_notify(win, leader, offset + lo, buf[lo:hi],
                                   tag=t1)
    # Stage 3: per-node binomial broadcast of the assembled vector.
    yield from tree_broadcast(rank, win, locals_, buf, root=leader,
                              offset=offset, tag=t3)


# -------------------------------------------------------------- dispatch --
def _resolve(rank: DRank, group: Sequence[int], buf: np.ndarray,
             algorithm: Optional[str], op_name: str, tuner) -> str:
    if algorithm in (None, "auto"):
        from .autotune import CollectiveAutotuner

        if tuner is None:
            tuner = CollectiveAutotuner.from_runtime(rank.runtime)
        return tuner.choose(op_name, rank.runtime.placement, group,
                            buf.nbytes).algorithm
    if algorithm not in ALGORITHMS:
        raise DCudaError(
            f"unknown collective algorithm {algorithm!r}; available: "
            f"{', '.join(ALGORITHMS)} (or 'auto')")
    return algorithm


def allreduce(rank: DRank, win: Window, scratch_win: Window,
              group: Sequence[int], buf: np.ndarray,
              op: Callable[..., Any] = np.add,
              algorithm: Optional[str] = "ring", offset: int = 0,
              tag_base: int = 0,
              tuner=None) -> Generator[Event, Any, str]:
    """In-place allreduce of *buf* over *group*.

    On entry *buf* is this rank's contribution (its view of the window
    region at *offset*); on exit it holds ``op`` applied across every
    rank's contribution, identically on all participants.

    Args:
        rank: The calling rank (every member of *group* must call).
        win: Window covering the result region on all participants.
        scratch_win: Per-rank private staging window; size it with
            :func:`scratch_elems`.
        group: World ranks participating, in a common order.
        buf: This rank's contribution and result region (in place).
        op: Reduction ufunc supporting ``op(a, b, out=a)``; must be
            commutative and associative up to the documented
            schedule-determined evaluation order.
        algorithm: ``"ring"`` | ``"tree"`` | ``"hierarchical"`` |
            ``"auto"`` (defer to *tuner*).
        offset: Element offset of the region in the target windows.
        tag_base: First notification tag of this collective's private
            tag range (budget ≤ ``4 * len(group) + 8``).
        tuner: Optional
            :class:`~repro.dcuda.collectives.autotune.CollectiveAutotuner`
            consulted when ``algorithm="auto"``.

    Returns:
        The algorithm name actually executed (after auto selection).

    Raises:
        DCudaError: the caller is not in *group*, the scratch window is
            too small, or *algorithm* is unknown.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    algorithm = _resolve(rank, group, buf, algorithm, "allreduce", tuner)
    _index_of(group, rank.world_rank)
    if len(group) == 1:
        return algorithm
    if algorithm == "tree":
        yield from _tree_allreduce(rank, win, scratch_win, group, buf, op,
                                   offset, tag_base)
    elif algorithm == "hierarchical":
        yield from _hier_allreduce(rank, win, scratch_win, group, buf, op,
                                   offset, tag_base)
    else:
        ring, chunk_of = _ring_chunks(rank, group)
        p = len(group)
        yield from _ring_reduce_scatter(rank, win, scratch_win, ring,
                                        chunk_of, buf, op, tag_base)
        yield from _ring_all_gather(rank, win, ring, chunk_of, buf,
                                    offset, tag_base + p - 1)
    return algorithm


def reduce_scatter(rank: DRank, win: Window, scratch_win: Window,
                   group: Sequence[int], buf: np.ndarray,
                   op: Callable[..., Any] = np.add,
                   algorithm: Optional[str] = "ring", offset: int = 0,
                   tag_base: int = 0,
                   tuner=None) -> Generator[Event, Any, Tuple[int, int]]:
    """Reduce *buf* over *group*, scattering one chunk per rank.

    Rank ``group[i]`` receives the full reduction of chunk *i* (bounds
    :func:`chunk_bounds`) in ``buf[lo:hi]``; all other chunk regions of
    *buf* are scratch for the algorithm and undefined on return.

    Args:
        rank: The calling rank (every member of *group* must call).
        win: Window covering the result region on all participants.
        scratch_win: Per-rank private staging window
            (:func:`scratch_elems`).
        group: World ranks participating, in a common order.
        buf: This rank's contribution on entry; chunk ``[lo, hi)`` holds
            the result on exit.
        op: Reduction ufunc supporting ``op(a, b, out=a)``.
        algorithm: ``"ring"`` | ``"tree"`` | ``"hierarchical"`` | ``"auto"``.
        offset: Element offset of the region in the target windows.
        tag_base: First tag of the collective's private range.
        tuner: Autotuner consulted when ``algorithm="auto"``.

    Returns:
        This rank's owned chunk bounds ``(lo, hi)``.

    Raises:
        DCudaError: membership, scratch-size, or algorithm-name errors,
            as for :func:`allreduce`.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    algorithm = _resolve(rank, group, buf, algorithm, "reduce_scatter",
                         tuner)
    i = _index_of(group, rank.world_rank)
    n = buf.size
    if len(group) == 1:
        return 0, n
    if algorithm == "tree":
        yield from _tree_reduce_scatter(rank, win, scratch_win, group, buf,
                                        op, offset, tag_base)
    elif algorithm == "hierarchical":
        yield from _hier_reduce_scatter(rank, win, scratch_win, group, buf,
                                        op, offset, tag_base)
    else:
        ring, chunk_of = _ring_chunks(rank, group)
        yield from _ring_reduce_scatter(rank, win, scratch_win, ring,
                                        chunk_of, buf, op, tag_base)
    return chunk_bounds(n, len(group), i)


def all_gather(rank: DRank, win: Window, scratch_win: Window,
               group: Sequence[int], buf: np.ndarray,
               algorithm: Optional[str] = "ring", offset: int = 0,
               tag_base: int = 0,
               tuner=None) -> Generator[Event, Any, str]:
    """Gather every rank's chunk into the full vector, everywhere.

    On entry ``buf[lo:hi]`` (this rank's :func:`chunk_bounds` region)
    holds its contribution; on exit *buf* holds all chunks on every
    rank.

    Args:
        rank: The calling rank (every member of *group* must call).
        win: Window covering the result region on all participants.
        scratch_win: Per-rank private staging window (unused by the tree
            family but kept for a uniform signature).
        group: World ranks participating, in a common order.
        buf: This rank's view of the result region.
        algorithm: ``"ring"`` | ``"tree"`` | ``"hierarchical"`` | ``"auto"``.
        offset: Element offset of the region in the target windows.
        tag_base: First tag of the collective's private range.
        tuner: Autotuner consulted when ``algorithm="auto"``.

    Returns:
        The algorithm name actually executed (after auto selection).

    Raises:
        DCudaError: membership or algorithm-name errors, as for
            :func:`allreduce`.
        DCudaTimeoutError: injected credit starvation outlasted a
            command queue's retry budget (fault plane only).
    """
    algorithm = _resolve(rank, group, buf, algorithm, "all_gather", tuner)
    _index_of(group, rank.world_rank)
    if len(group) == 1:
        return algorithm
    if algorithm == "tree":
        yield from _tree_all_gather(rank, win, group, buf, offset, tag_base)
    elif algorithm == "hierarchical":
        yield from _hier_all_gather(rank, win, group, buf, offset, tag_base)
    else:
        ring, chunk_of = _ring_chunks(rank, group)
        yield from _ring_all_gather(rank, win, ring, chunk_of, buf, offset,
                                    tag_base)
    return algorithm
