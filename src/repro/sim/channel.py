"""Message stores.

:class:`Store` is the FIFO producer/consumer buffer that simulated hardware
queues and MPI matching are built on.  It supports optional capacity bounds
(puts block when full) and filtered gets (a consumer can wait for the first
item matching a predicate — used by MPI tag matching and by the dCUDA
notification queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from .core import PENDING, Environment, Event

__all__ = ["Store"]


class Store:
    """FIFO store with optional capacity and filtered consumption.

    *Puts* deliver in FIFO order; *gets* match the oldest item satisfying
    their filter.  Waiting getters are served in arrival order whenever new
    items arrive.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None,
                 name: str = "store"):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.name = name
        self._put_name = "put:" + name
        self._get_name = "get:" + name
        self.capacity = capacity
        self._items: List[Any] = []
        self._getters: List[Tuple[Event, Optional[Callable[[Any], bool]]]] = []
        self._putters: deque = deque()

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of buffered items (read-only view for tests/traces)."""
        return tuple(self._items)

    # -- producing -----------------------------------------------------------
    def put(self, item: Any) -> Event:
        """Insert *item*; the returned event fires once the item is stored."""
        # Inlined Event construction (hot path: every simulated hardware
        # queue insert comes through here).
        ev = Event.__new__(Event)
        ev.env = self.env
        ev.callbacks = []
        ev._value = PENDING
        ev._exception = None
        ev._scheduled = False
        ev.name = self._put_name
        ev.abandoned = False
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((ev, item))
        else:
            self._items.append(item)
            ev.succeed()
            # Inlined _dispatch fast path: with no waiting getter the
            # dispatch scan reduces to admitting blocked putters (and with
            # capacity headroom there are none).
            if self._getters:
                self._dispatch()
            elif self._putters:
                self._admit_putters()
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        if self._getters:
            self._dispatch()
        elif self._putters:
            self._admit_putters()
        return True

    # -- consuming -----------------------------------------------------------
    def get(self, filt: Optional[Callable[[Any], bool]] = None) -> Event:
        """Remove and return the oldest item matching *filt* (or any item)."""
        ev = Event.__new__(Event)
        ev.env = self.env
        ev.callbacks = []
        ev._value = PENDING
        ev._exception = None
        ev._scheduled = False
        ev.name = self._get_name
        ev.abandoned = False
        if not self._getters:
            # Fast path: nobody queued ahead, so this getter takes the
            # oldest matching item directly — the same item, succeeded at
            # the same program point, as the general _dispatch scan.
            items = self._items
            for idx, item in enumerate(items):
                if filt is None or filt(item):
                    del items[idx]
                    ev.succeed(item)
                    if self._putters:
                        self._admit_putters()
                    return ev
            self._getters.append((ev, filt))
            return ev
        self._getters.append((ev, filt))
        self._dispatch()
        return ev

    def try_get(self, filt: Optional[Callable[[Any], bool]] = None) -> Any:
        """Non-blocking get; returns ``None`` when nothing matches.

        Only valid when no getters are queued ahead (otherwise it would
        reorder consumers); in that case it raises ``RuntimeError``.
        """
        if self._getters:
            raise RuntimeError(f"try_get on {self.name!r} with queued getters")
        for idx, item in enumerate(self._items):
            if filt is None or filt(item):
                del self._items[idx]
                if self._putters:
                    self._admit_putters()
                return item
        return None

    def peek(self, filt: Optional[Callable[[Any], bool]] = None) -> Any:
        """Return (without removing) the oldest matching item, or ``None``."""
        for item in self._items:
            if filt is None or filt(item):
                return item
        return None

    # -- internals ------------------------------------------------------------
    def _prune_abandoned(self) -> None:
        """Drop waiters abandoned by a bounded wait that timed out (see
        :attr:`repro.sim.core.Event.abandoned`, e.g. the getter of a
        ``CircularQueue.dequeue_timeout``); handing them items would
        silently lose data."""
        getters = self._getters
        if getters and any(ev.abandoned for ev, _ in getters):
            self._getters = [(ev, f) for ev, f in getters
                             if not ev.abandoned]
        putters = self._putters
        if putters and any(ev.abandoned for ev, _ in putters):
            self._putters = deque((ev, item) for ev, item in putters
                                  if not ev.abandoned)

    def _dispatch(self) -> None:
        # Serve waiting getters in order; each takes the oldest matching item.
        if not self._getters:
            self._admit_putters()
            return
        self._prune_abandoned()
        made_progress = True
        while made_progress:
            made_progress = False
            for g_idx, (ev, filt) in enumerate(self._getters):
                for i_idx, item in enumerate(self._items):
                    if filt is None or filt(item):
                        del self._getters[g_idx]
                        del self._items[i_idx]
                        ev.succeed(item)
                        made_progress = True
                        break
                if made_progress:
                    break
        self._admit_putters()

    def _admit_putters(self) -> None:
        while self._putters and (self.capacity is None
                                 or len(self._items) < self.capacity):
            ev, item = self._putters.popleft()
            if ev.abandoned:
                continue
            self._items.append(item)
            ev.succeed()
            # New item may satisfy a waiting getter.
            self._dispatch_one()

    def _dispatch_one(self) -> None:
        self._prune_abandoned()
        for g_idx, (ev, filt) in enumerate(self._getters):
            for i_idx, item in enumerate(self._items):
                if filt is None or filt(item):
                    del self._getters[g_idx]
                    del self._items[i_idx]
                    ev.succeed(item)
                    return
