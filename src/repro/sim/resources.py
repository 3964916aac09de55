"""FCFS resources with utilization accounting.

:class:`Resource` wraps :class:`~repro.sim.primitives.Semaphore` with the
``use(duration)`` pattern that the SM issue units and DMA engines need, and
keeps busy-time statistics so benchmarks can report utilization.
"""

from __future__ import annotations

from typing import Any, Generator

from .core import Environment, Event
from .primitives import Semaphore

__all__ = ["Resource"]


class Resource:
    """A capacity-limited FCFS resource.

    ``yield from res.use(duration)`` acquires a slot, holds it for
    *duration*, and releases it.  For finer control, ``acquire``/``release``
    are exposed directly.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: str = "resource"):
        self.env = env
        self.name = name
        self._sem = Semaphore(env, capacity, name=name)
        self.busy_time = 0.0
        self.uses = 0

    @property
    def capacity(self) -> int:
        return self._sem.capacity

    def acquire(self) -> Generator[Event, Any, None]:
        yield self._sem.request()

    def release(self) -> None:
        self._sem.release()

    def use(self, duration: float) -> Generator[Event, Any, None]:
        """Hold one slot for *duration* time units."""
        if duration < 0:
            raise ValueError(f"negative duration {duration!r}")
        sem = self._sem
        yield sem.request()
        try:
            self.busy_time += duration
            self.uses += 1
            yield duration
        finally:
            sem.release()

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity-time spent busy over *elapsed* time."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)
