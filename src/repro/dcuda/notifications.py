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

The *charged* cost of a pass is ``match_base + match_per_entry ×
|pending|`` — the simulated device scans its whole queue.  The host side
does the same: one arrival-ordered list, scanned and compacted per pass.
The pending set is tiny in practice (0–2 entries on 99.8% of the passes of
a 2-node, 208-ranks-per-device diffusion run, 27 at most), so an index in
front of the scan would cost more than it saves.
"""

from __future__ import annotations

from typing import Any, Generator, List, Tuple

from ..hw.config import DeviceLibConfig
from ..hw.gpu import Block, Device
from ..runtime.commands import Notification
from ..runtime.state import RankState
from ..sim import Event

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


class NotificationMatcher:
    """Per-rank notification queue consumer."""

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
        #: Arrived-but-unmatched notifications in arrival order (the
        #: simulated queue image).
        self._pending: List[Notification] = []
        #: Total notifications ever matched (statistics).
        self.matched_total = 0
        #: Enqueue count at the last drain — detects arrivals that land
        #: while a charged matching pass is occupying the issue unit, which
        #: would otherwise be lost wakeups.
        self._drained_at = 0

    # -- internals ------------------------------------------------------
    def _drain(self) -> List[Notification]:
        """Append every arrived queue entry to the pending list (one batch
        from the queue) and return the list."""
        queue = self.state.notif_queue
        pending = self._pending
        pending.extend(queue.drain_all())
        self._drained_at = queue.stats.enqueues
        return pending

    def _match_sync(self, win_id: int, source: int, tag: int,
                    needed: int) -> Tuple[int, float]:
        """The synchronous half of a matching pass: drain, consume the
        first *needed* matches in arrival order, compact, and compute the
        charged cost; returns ``(consumed, cost)``.

        The cost counts every entry pending *before* the pass — the
        simulated device scans its whole queue.  The caller owns the
        issue-unit charge (and bumps ``matched_total`` after it), so the
        hot wait loop can inline the resource hold.
        """
        pending = self._drain()
        scanned = len(pending)
        consumed = 0
        kept = []
        for n in pending:
            if (consumed < needed
                    and (win_id == DCUDA_ANY_WINDOW or n.win_id == win_id)
                    and (source == DCUDA_ANY_SOURCE or n.source == source)
                    and (tag == DCUDA_ANY_TAG or n.tag == tag)):
                consumed += 1
            else:
                kept.append(n)
        if consumed:
            self._pending = kept
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

    # -- public API ------------------------------------------------------
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

        The wait ends when the producers' notifications land, however
        long that takes.

        Raises:
            ValueError: *count* is negative.
        """
        if count < 0:
            raise ValueError(f"negative notification count {count!r}")
        t0 = self.env._now
        tracer = self.device.tracer
        issue = self.block.sm.issue
        matched = 0
        while matched < count:
            consumed, cost = self._match_sync(win_id, source, tag,
                                              count - matched)
            # Inlined device.issue_use(cost) — the per-pass match charge
            # is the hot wait path's only issue-unit hold, and the resumes
            # land on this frame directly instead of one frame down.
            start = self.env._now
            yield issue.request()
            try:
                yield cost
            finally:
                issue.release()
            if tracer.enabled:
                tracer.record(self.block.name, "match", start,
                              self.env._now)
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
            queue = self.state.notif_queue
            if not queue.parked:
                # Poll elision: one wake at commit + poll_interval — the
                # exact tick the arrival-signal + poll-boundary sequence
                # below would have rescanned at.
                yield queue.park_poll(self.cfg.poll_interval)
                continue
            # Another consumer already parked on this queue (rare): fall
            # back to the signal + poll-boundary sleep.
            yield queue.arrived.wait()
            yield self.cfg.poll_interval
        if self._wait_hist is not None:
            self._wait_hist.observe(self.env._now - t0)
        if tracer.enabled:
            tracer.record(self.block.name, "wait", t0, self.env._now,
                          detail or "notifications")
