"""Device-side notification matching (§III-C, "Notification Matching").

The matcher consumes the rank's notification queue.  Matching runs in order
of arrival; matched notifications are removed and the queue is compacted, so
mismatched entries stay for later waits.  ``wait`` and ``test`` filter on
window id, source rank, and tag, each of which may be a wildcard.

Matching is **compute heavy** in the real system (eight threads doing
coalesced reads and shuffle reductions): every pass charges the block's SM
*issue unit* for a base cost plus a per-scanned-entry cost.  Because the
issue unit is shared with application compute, heavy matching steals compute
throughput — the paper's explanation for the slightly imperfect overlap of
compute-bound workloads (Fig. 7).

Wall-clock vs simulated cost: the *charged* cost of a pass is always
``match_base + match_per_entry × |pending|`` — the simulated device scans
its whole queue, exactly as before.  The host-side implementation, however,
keeps the pending set indexed (a dict keyed by the full ``(win_id, source,
tag)`` triple, one keyed by ``(win_id, tag)`` for the ubiquitous
any-source waits, plus an insertion-ordered fallback map for other
wildcard patterns), so finding the matches costs O(matches) wall-clock
instead of rebuilding the whole list per pass.  Simulated timestamps are
bit-identical either way; only the simulator got faster.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Tuple

from ..errors import DCudaTimeoutError
from ..hw.config import DeviceLibConfig
from ..hw.gpu import Block, Device
from ..runtime.commands import Notification
from ..runtime.state import RankState
from ..sim import PENDING, AnyOf, Event

__all__ = ["NotificationMatcher", "deliver", "deliver_bulk",
           "DCUDA_ANY_SOURCE", "DCUDA_ANY_TAG", "DCUDA_ANY_WINDOW"]

DCUDA_ANY_SOURCE = -1
DCUDA_ANY_TAG = -1
DCUDA_ANY_WINDOW = -1


def deliver(state: RankState, global_win_id, source: int,
            tag: int) -> Generator[Event, Any, None]:
    """Enqueue one notification on *state*'s queue.

    The single delivery point shared by every communication backend (and
    the block manager): translates the global window id to the owner's
    local id and enqueues the :class:`Notification` the matcher consumes.
    Who *calls* it differs per backend — the host block manager (proxy),
    the NIC completion path (device-initiated), or the triggered-op
    engine (stream) — but the queue entry, and therefore everything the
    matcher can observe, is identical.

    Returns the enqueue generator directly (``yield from deliver(...)``
    drives it with one less frame than a delegating generator would).
    """
    local_win = state.win_reverse[global_win_id]
    return state.notif_queue.enqueue(
        Notification(local_win, source, tag))


def deliver_bulk(state: RankState,
                 notifications: Any) -> Generator[Event, Any, None]:
    """Enqueue several ``(global_win_id, source, tag)`` notifications:
    exactly :func:`deliver` per triple, in order."""
    for gid, source, tag in notifications:
        yield from deliver(state, gid, source, tag)


class _Entry:
    """One pending notification plus its liveness flag.

    Entries sit in several index buckets at once; consuming one via any
    index flips ``alive`` and the other buckets skip it lazily.

    ``refs`` counts the index buckets still holding the entry (always two
    at creation: the exact-triple bucket and the any-source bucket).  A
    dead entry is recycled through the matcher's freelist only once every
    bucket has lazily popped it — an entry still reachable from a bucket
    must never be reused, or a stale bucket would consume a notification
    that was never delivered to it.
    """

    __slots__ = ("notification", "alive", "refs")

    def __init__(self, notification: Notification):
        self.notification = notification
        self.alive = True
        self.refs = 2


class NotificationMatcher:
    """Per-rank notification queue consumer."""

    #: Test hook: force every pass through the wildcard scan fallback.
    #: Charged cost and matching order must not depend on this flag — the
    #: parity test asserts exactly that.
    _force_scan = False

    def __init__(self, state: RankState, device: Device, block: Block,
                 cfg: DeviceLibConfig):
        self.state = state
        self.device = device
        self.block = block
        self.cfg = cfg
        self.env = state.env
        # Observability: matching-pass cost and wait-latency histograms,
        # shared across ranks (or None when disabled).
        obs = state.node.obs
        self._match_hist = obs.histogram("ntf.match_pass") if obs else None
        self._wait_hist = obs.histogram("ntf.wait") if obs else None
        #: Arrival counter; keys the insertion-ordered fallback map.
        self._arrival_seq = 0
        #: Arrived-but-unmatched entries in arrival order (dicts preserve
        #: insertion order; deletion keeps it) — the wildcard fallback.
        self._ordered: Dict[int, _Entry] = {}
        #: Exact-triple index: (win_id, source, tag) -> arrival-ordered run.
        self._by_full: Dict[Tuple[int, int, int], Deque[_Entry]] = {}
        #: Any-source index: (win_id, tag) -> arrival-ordered run.
        self._by_win_tag: Dict[Tuple[int, int], Deque[_Entry]] = {}
        #: Total notifications ever matched (statistics).
        self.matched_total = 0
        #: Enqueue count at the last drain — detects arrivals that land
        #: while a charged matching pass is occupying the issue unit, which
        #: would otherwise be lost wakeups.
        self._drained_at = 0
        #: Freelist of retired _Entry carriers (see _Entry.refs).
        self._efree: list = []

    # -- internals ------------------------------------------------------
    def _drain(self) -> None:
        """Move arrived queue entries into the local pending indexes.

        Batched: the queue hands over everything it buffered in one pass
        (same entries, order, and bookkeeping as the old per-entry
        ``try_dequeue`` loop).
        """
        queue = self.state.notif_queue
        items = queue.drain_all()
        self._drained_at = queue.stats.enqueues
        if not items:
            return
        seq = self._arrival_seq
        ordered = self._ordered
        by_full = self._by_full
        by_win_tag = self._by_win_tag
        free = self._efree
        for n in items:
            if free:
                entry = free.pop()
                entry.notification = n
                entry.alive = True
                entry.refs = 2
            else:
                entry = _Entry(n)
            seq += 1
            ordered[seq] = entry
            full = by_full.get((n.win_id, n.source, n.tag))
            if full is None:
                full = by_full[(n.win_id, n.source, n.tag)] = deque()
            full.append(entry)
            wt = by_win_tag.get((n.win_id, n.tag))
            if wt is None:
                wt = by_win_tag[(n.win_id, n.tag)] = deque()
            wt.append(entry)
        self._arrival_seq = seq

    @staticmethod
    def _matches(n: Notification, win_id: int, source: int, tag: int) -> bool:
        return ((win_id == DCUDA_ANY_WINDOW or n.win_id == win_id)
                and (source == DCUDA_ANY_SOURCE or n.source == source)
                and (tag == DCUDA_ANY_TAG or n.tag == tag))

    def _consume_indexed(self, bucket: Deque[_Entry], needed: int) -> int:
        """Consume up to *needed* live entries from an index bucket."""
        consumed = 0
        free = self._efree
        while bucket and consumed < needed:
            entry = bucket[0]
            bucket.popleft()
            if not entry.alive:
                # Lazy cleanup of an entry consumed via another index;
                # once no bucket holds it anymore it can be recycled.
                entry.refs -= 1
                if entry.refs == 0:
                    entry.notification = None
                    free.append(entry)
                continue
            entry.alive = False
            entry.refs -= 1
            consumed += 1
        return consumed

    def _consume_scan(self, win_id: int, source: int, tag: int,
                      needed: int) -> int:
        """Wildcard fallback: scan the insertion-ordered pending map."""
        consumed = 0
        matches = self._matches
        for entry in self._ordered.values():
            if consumed >= needed:
                break
            if entry.alive and matches(entry.notification,
                                       win_id, source, tag):
                entry.alive = False
                consumed += 1
        return consumed

    def _compact(self) -> None:
        """Drop consumed entries from the ordered map (keeps it a faithful
        image of the simulated queue after the pass compacts it)."""
        dead = [seq for seq, e in self._ordered.items() if not e.alive]
        for seq in dead:
            del self._ordered[seq]

    def _match_sync(self, win_id: int, source: int, tag: int,
                    needed: int) -> Tuple[int, float]:
        """The synchronous half of a matching pass: drain, consume, and
        compute the charged cost; returns ``(consumed, cost)``.

        The simulated device always scans every pending entry, so the
        charged cost uses ``len(self._ordered)`` — the same scanned-entry
        count the compacting-list implementation charged.  The caller owns
        the issue-unit charge (and bumps ``matched_total`` after it), so
        the hot wait loop can inline the resource hold.
        """
        self._drain()
        scanned = len(self._ordered)
        if (not self._force_scan and win_id != DCUDA_ANY_WINDOW
                and tag != DCUDA_ANY_TAG):
            if source != DCUDA_ANY_SOURCE:
                bucket = self._by_full.get((win_id, source, tag))
            else:
                bucket = self._by_win_tag.get((win_id, tag))
            consumed = (self._consume_indexed(bucket, needed)
                        if bucket is not None else 0)
        else:
            consumed = self._consume_scan(win_id, source, tag, needed)
        if consumed:
            self._compact()
        cost = self.cfg.match_base + self.cfg.match_per_entry * scanned
        if self._match_hist is not None:
            self._match_hist.observe(cost)
        return consumed, cost

    def _match_pass(self, win_id: int, source: int, tag: int,
                    needed: int) -> Generator[Event, Any, int]:
        """One charged scan over the pending set; returns matches consumed."""
        consumed, cost = self._match_sync(win_id, source, tag, needed)
        yield from self.device.issue_use(self.block, cost, kind="match")
        self.matched_total += consumed
        return consumed

    @property
    def _pending(self) -> list:
        """Live pending notifications in arrival order (the simulated
        queue image; kept for tests that assert on matching order)."""
        return [e.notification for e in self._ordered.values() if e.alive]

    @_pending.setter
    def _pending(self, notifications) -> None:
        """Replace the pending set (test injection point); rebuilds the
        indexes exactly as arrivals via :meth:`_drain` would."""
        self._ordered.clear()
        self._by_full.clear()
        self._by_win_tag.clear()
        for n in notifications:
            entry = _Entry(n)
            self._arrival_seq += 1
            self._ordered[self._arrival_seq] = entry
            self._by_full.setdefault((n.win_id, n.source, n.tag),
                                     deque()).append(entry)
            self._by_win_tag.setdefault((n.win_id, n.tag),
                                        deque()).append(entry)

    # -- public API ------------------------------------------------------
    def pending_count(self) -> int:
        """Arrived-but-unmatched notifications (drains the queue first)."""
        self._drain()
        return len(self._ordered)

    def test(self, win_id: int = DCUDA_ANY_WINDOW,
             source: int = DCUDA_ANY_SOURCE, tag: int = DCUDA_ANY_TAG,
             count: int = 1) -> Generator[Event, Any, int]:
        """Single matching pass; consumes and returns up to *count* matches
        without blocking (dcuda_test_notifications)."""
        if count < 0:
            raise ValueError(f"negative notification count {count!r}")
        if count == 0:
            return 0
        consumed = yield from self._match_pass(win_id, source, tag, count)
        return consumed

    def wait(self, win_id: int = DCUDA_ANY_WINDOW,
             source: int = DCUDA_ANY_SOURCE, tag: int = DCUDA_ANY_TAG,
             count: int = 1,
             detail: str = "") -> Generator[Event, Any, None]:
        """Block until *count* matching notifications were consumed
        (dcuda_wait_notifications).

        Raises:
            ValueError: *count* is negative.
            DCudaTimeoutError: a fault plane is attached and no matching
                notification arrived within its ``handshake_timeout``.
        """
        if count < 0:
            raise ValueError(f"negative notification count {count!r}")
        t0 = self.env._now
        faults = getattr(self.state.node, "faults", None)
        deadline = (t0 + faults.cfg.handshake_timeout
                    if faults is not None else None)
        tracer = self.device.tracer
        issue = self.block.sm.issue
        sem = issue._sem
        matched = 0
        while matched < count:
            consumed, cost = self._match_sync(win_id, source, tag,
                                              count - matched)
            if tracer.enabled:
                yield from self.device.issue_use(self.block, cost,
                                                 kind="match")
            else:
                # Inlined issue.use(cost) — the per-pass match charge is
                # the hot wait path's only resource hold, and the resumes
                # land on this frame directly instead of two frames down.
                if sem._available > 0 and not sem._queue:
                    sem._available -= 1
                    yield 0.0
                else:
                    free = sem._efree
                    if free:
                        ev = free.pop()
                        ev.callbacks = []
                        ev._value = PENDING
                        ev._scheduled = False
                    else:
                        ev = Event(sem.env, sem._req_name)
                    sem._queue.append(ev)
                    yield ev
                    free.append(ev)
                try:
                    issue.busy_time += cost
                    issue.uses += 1
                    yield cost
                finally:
                    sem.release()
            self.matched_total += consumed
            matched += consumed
            if matched >= count:
                break
            if self.state.notif_queue.stats.enqueues > self._drained_at:
                # New notifications arrived while the matching pass was
                # running; rescan immediately instead of sleeping.
                continue
            # Nothing (or not enough) matched: sleep until the next arrival,
            # then continue on the following poll boundary.  The SM issue
            # unit is free during the sleep — this is where over-subscribed
            # blocks overlap their communication.
            if deadline is None:
                queue = self.state.notif_queue
                if queue._park_proc is None:
                    # Poll elision: one wake at commit + poll_interval —
                    # the exact tick the arrival-signal + poll-boundary
                    # sequence below would have rescanned at.
                    yield queue.park_poll(self.cfg.poll_interval)
                    continue
                # Another consumer already parked on this queue (rare):
                # fall back to the signal + poll-boundary sleep.
                yield queue.arrived.wait()
            else:
                remaining = deadline - self.env._now
                if remaining <= 0:
                    raise DCudaTimeoutError(
                        f"wait_notifications(win={win_id}, source={source}, "
                        f"tag={tag}): {matched}/{count} matched within "
                        f"{faults.cfg.handshake_timeout:.3e}s simulated",
                        rank=self.state.world_rank, sim_time=self.env._now)
                arrival = self.state.notif_queue.arrived.wait()
                timer = self.env.timeout(remaining)
                which = yield AnyOf(self.env, [arrival, timer])
                if which[0] == 0 or arrival.triggered:
                    timer.abandoned = True
                if which[0] == 1 and not arrival.triggered:
                    arrival.abandoned = True
                    raise DCudaTimeoutError(
                        f"wait_notifications(win={win_id}, source={source}, "
                        f"tag={tag}): {matched}/{count} matched within "
                        f"{faults.cfg.handshake_timeout:.3e}s simulated",
                        rank=self.state.world_rank, sim_time=self.env._now)
            yield self.cfg.poll_interval
        if self._wait_hist is not None:
            self._wait_hist.observe(self.env._now - t0)
        if tracer.enabled:
            tracer.record(self.block.name, "wait", t0, self.env._now,
                          detail or "notifications")
