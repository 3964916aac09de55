"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Process`, the :data:`PARK`
  sentinel
* primitives: :class:`Signal`, :class:`Gate`, :class:`Semaphore`,
  :class:`AllOf`, :class:`AnyOf`, and :func:`bounded`, the one bounded
  wait (``fired = yield from bounded(ev, t)``)
* :class:`Store` unbounded message buffer with filtered gets
* :class:`FairShareLink` / :class:`SerialLink` transfer models
* :class:`Tracer` interval tracing
"""

from .core import (
    PARK,
    Environment,
    EnvStats,
    Event,
    Process,
    SimulationError,
)
from .primitives import AllOf, AnyOf, Gate, Semaphore, Signal, bounded
from .channel import Store
from .link import FairShareLink, SerialLink
from .trace import Interval, Tracer, merge_intervals, overlap_time, total_time

__all__ = [
    "Environment", "EnvStats", "Event", "Process",
    "SimulationError", "PARK",
    "AllOf", "AnyOf", "Gate", "Semaphore", "Signal", "bounded",
    "Store",
    "FairShareLink", "SerialLink",
    "Interval", "Tracer", "merge_intervals", "overlap_time", "total_time",
]
