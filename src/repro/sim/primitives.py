"""Synchronization primitives built on the DES kernel.

These are the building blocks the hardware and runtime models use:

* :class:`Signal` — a reusable broadcast condition; waiters get fresh
  one-shot events, ``fire`` wakes everyone currently waiting.
* :class:`Gate` — a level-triggered condition (open/closed); waiting on an
  open gate completes immediately.
* :class:`Semaphore` — counting semaphore with FCFS wakeup order.
* :class:`AllOf` / :class:`AnyOf` — event combinators.
* :func:`bounded` — wait for an event, but at most a timeout.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, List, Sequence, Union

from .core import Environment, Event

__all__ = ["Signal", "Gate", "Semaphore", "AllOf", "AnyOf", "bounded"]


class Signal:
    """A reusable broadcast condition.

    Each call to :meth:`wait` returns a fresh one-shot event.  ``fire(value)``
    succeeds every event handed out since the last fire.  There is no memory:
    a waiter that arrives after a fire waits for the next one.
    """

    def __init__(self, env: Environment, name: str = "signal"):
        self.env = env
        self.name = name
        self._wait_name = "wait:" + name
        self._waiters: List[Event] = []

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`fire`."""
        ev = Event(self.env, self._wait_name)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters = self._waiters
        if not waiters:
            # No-waiter fast path: queues fire their arrived/space-freed
            # signals on every commit, almost always into an empty waiter
            # list — skip the replacement-list allocation.
            return 0
        self._waiters = []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class Gate:
    """A level-triggered condition.

    While *open*, :meth:`wait` completes immediately; while *closed*, waiters
    block until :meth:`open` is called.  Used e.g. for "queue has space"
    conditions.
    """

    def __init__(self, env: Environment, is_open: bool = False,
                 name: str = "gate"):
        self.env = env
        self.name = name
        self._wait_name = "wait:" + name
        self._open = is_open
        self._waiters: List[Event] = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        ev = Event(self.env, self._wait_name)
        if self._open:
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def open(self) -> None:
        self._open = True
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed()

    def close(self) -> None:
        self._open = False


class Semaphore:
    """Counting semaphore with FCFS handout order.

    A holder waits for a token with ``yield sem.request()`` and returns it
    with ``release()``, usually in a ``try``/``finally``::

        yield sem.request()
        try:
            yield hold_time
        finally:
            sem.release()

    ``acquire`` is the same wait as a generator, for ``yield from``.
    """

    def __init__(self, env: Environment, capacity: int, name: str = "sem"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.name = name
        self._req_name = "req:" + name
        self.capacity = capacity
        self._available = capacity
        self._queue: deque = deque()

    @property
    def available(self) -> int:
        return self._available

    def request(self) -> Union[float, Event]:
        """Take a token; yield the result to wait until it is held.

        Uncontended (a token free and nobody queued), the token is taken
        at once and the result is ``0.0``: a bare zero-delay sleep, the
        exact queue slot an immediately-succeeded request event would
        occupy, without building the event.  Otherwise the result is a
        fresh event queued FCFS; :meth:`release` triggers it once the
        token passes to this waiter.
        """
        if self._available > 0 and not self._queue:
            self._available -= 1
            return 0.0
        ev = Event(self.env, self._req_name)
        self._queue.append(ev)
        return ev

    def acquire(self) -> Generator[Any, Any, None]:
        """``yield from sem.acquire()`` blocks until a token is held."""
        yield self.request()

    def release(self) -> None:
        """Return a token: hand it to the oldest waiter, if any."""
        if self._queue:
            self._queue.popleft().succeed()
        else:
            if self._available >= self.capacity:
                raise RuntimeError(f"semaphore {self.name!r} over-released")
            self._available += 1


class AllOf(Event):
    """Fires once every constituent event has fired.

    Value is the list of constituent values in input order.  If any
    constituent fails, this condition fails with the first failure.
    """

    __slots__ = ("_events", "_pending_count")

    def __init__(self, env: Environment, events: Sequence[Event]):
        super().__init__(env, name="all_of")
        self._events = list(events)
        self._pending_count = len(self._events)
        if self._pending_count == 0:
            self.succeed([])
            return
        # One shared bound-method callback for every constituent (closures
        # per event are pure allocation churn): constituent values are
        # read back from the events themselves at completion, which gives
        # the identical input-order list.
        on_child = self._on_child
        for ev in self._events:
            ev.add_callback(on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Fires as soon as any constituent event fires.

    Value is ``(index, value)`` of the first event to fire.  A constituent
    failure fails the condition (if it is the first to trigger).
    """

    __slots__ = ("_events",)

    def __init__(self, env: Environment, events: Sequence[Event]):
        super().__init__(env, name="any_of")
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf of zero events would never fire")
        on_child = self._on_child
        for ev in self._events:
            ev.add_callback(on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if ev._exception is not None:
            self.fail(ev._exception)
        else:
            # index() finds the first occurrence, which is exactly the
            # constituent whose callback fires first for duplicates.
            self.succeed((self._events.index(ev), ev._value))


def bounded(event: Event, timeout: float) -> Generator[Event, Any, bool]:
    """Wait for *event*, but at most *timeout*::

        fired = yield from bounded(ev, t)

    Races *event* against a timer built after it and marks the losing arm
    ``abandoned``, so a dropped timer neither stretches the run nor fires
    into a finished wait, and a dropped event runs no callbacks when it
    fires later.  Returns ``True`` when *event* fired; a tie, where both
    fired in the same step, counts as fired.
    """
    env = event.env
    timer = env.timeout(timeout)
    yield AnyOf(env, (event, timer))
    if event.triggered:
        timer.abandoned = True
        return True
    event.abandoned = True
    return False
