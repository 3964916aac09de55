"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Environment`, :class:`Event`, :class:`Process`, :class:`Interrupt`
* primitives: :class:`Signal`, :class:`Gate`, :class:`Semaphore`,
  :class:`AllOf`, :class:`AnyOf`
* :class:`Store` message buffer
* :class:`FairShareLink` / :class:`SerialLink` transfer models
* :class:`Resource` FCFS resource with utilization accounting
* :class:`Tracer` interval tracing
"""

from .core import (
    PARK,
    PENDING,
    Environment,
    EnvStats,
    Event,
    Interrupt,
    Process,
    SimulationError,
)
from .primitives import AllOf, AnyOf, Gate, Semaphore, Signal
from .channel import Store
from .link import FairShareLink, SerialLink
from .resources import Resource
from .trace import Interval, Tracer, merge_intervals, overlap_time, total_time

__all__ = [
    "Environment", "EnvStats", "Event", "Interrupt", "Process",
    "SimulationError", "PARK", "PENDING",
    "AllOf", "AnyOf", "Gate", "Semaphore", "Signal",
    "Store",
    "FairShareLink", "SerialLink",
    "Resource",
    "Interval", "Tracer", "merge_intervals", "overlap_time", "total_time",
]
