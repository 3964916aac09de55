"""Message stores.

:class:`Store` is the unbounded FIFO buffer with filtered gets that MPI
tag matching, the stream backend's triggered-op queues and host-rank
notifications are built on: a consumer can wait for the first item
matching a predicate.  The dCUDA circular queues keep their own buffer
(:class:`~repro.runtime.queues.CircularQueue`).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .core import PENDING, Environment, Event

__all__ = ["Store"]


class Store:
    """Unbounded FIFO store with filtered consumption.

    *Puts* deliver in FIFO order; *gets* match the oldest item satisfying
    their filter.  Waiting getters are served in arrival order whenever new
    items arrive.  No waiting getter ever matches a buffered item, so a new
    item is offered to the getters only, and a new getter scans the items
    only.  A getter cannot be withdrawn: race one against a timer and the
    item it takes is lost.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._put_name = "put:" + name
        self._get_name = "get:" + name
        self._items: List[Any] = []
        self._getters: List[Tuple[Event, Optional[Callable[[Any], bool]]]] = []

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
        # Inlined Event construction (hot path: every MPI message and
        # stream descriptor comes through here).
        ev = Event.__new__(Event)
        ev.env = self.env
        ev.callbacks = []
        ev._value = PENDING
        ev._exception = None
        ev._scheduled = False
        ev.name = self._put_name
        ev.abandoned = False
        ev.succeed()
        self.try_put(item)
        return ev

    def try_put(self, item: Any) -> None:
        """Insert *item* without an event: hand it to the oldest waiting
        getter it matches, or buffer it."""
        getters = self._getters
        for idx, (ev, filt) in enumerate(getters):
            if filt is None or filt(item):
                del getters[idx]
                ev.succeed(item)
                return
        self._items.append(item)

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
        items = self._items
        for idx, item in enumerate(items):
            if filt is None or filt(item):
                del items[idx]
                ev.succeed(item)
                return ev
        self._getters.append((ev, filt))
        return ev
