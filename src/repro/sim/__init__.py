"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Process`, the :data:`PARK`
  sentinel
* primitives: :class:`Signal`, :class:`Gate`, :class:`Semaphore`,
  :class:`AllOf`, :class:`AnyOf`
* :class:`Store` message buffer
* :class:`FairShareLink` / :class:`SerialLink` transfer models
* :class:`Resource` FCFS resource with utilization accounting
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
from .primitives import AllOf, AnyOf, Gate, Semaphore, Signal
from .channel import Store
from .link import FairShareLink, SerialLink
from .resources import Resource
from .trace import Interval, Tracer, merge_intervals, overlap_time, total_time

__all__ = [
    "Environment", "EnvStats", "Event", "Process",
    "SimulationError", "PARK",
    "AllOf", "AnyOf", "Gate", "Semaphore", "Signal",
    "Store",
    "FairShareLink", "SerialLink",
    "Resource",
    "Interval", "Tracer", "merge_intervals", "overlap_time", "total_time",
]
