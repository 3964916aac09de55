"""Bandwidth-shared and serial transfer links.

Two transfer models are used throughout the hardware layer:

* :class:`FairShareLink` — a max-min fair shared medium: all active flows
  progress simultaneously, each receiving ``bandwidth / n_active``.  Models
  device-memory bandwidth shared by all SMs, or a NIC shared by concurrent
  messages.  This is the processor-sharing fluid model in its *virtual
  time* formulation: completion times are derived from the cumulative
  service-per-unit-weight curve instead of recomputed per state change.
* :class:`SerialLink` — an exclusive FCFS link with per-use fixed latency and
  per-byte cost.  Models PCI-Express transactions and DMA-engine copies where
  transfers serialize.

Virtual-time fluid model
------------------------
The classic processor-sharing trick: let ``S(t)`` be the cumulative service
delivered *per unit weight* (bytes/weight) since the link last went idle.
While the active set is constant, ``dS/dt = bandwidth / total_weight``.  A
flow entering at service level ``S0`` with ``nbytes/weight = r`` completes
exactly when ``S`` reaches ``S0 + r`` — a constant, so completions live in
a min-heap keyed by that target service level.  A state change (flow entry
or completion) then costs ``O(log n)`` instead of the naive model's
``O(n)`` decrement-and-rescan, ``_advance`` touches only the flows that
actually completed, and the total weight is a single incrementally
maintained scalar.  When the link drains, ``S`` resets to zero so the
virtual clock never loses precision on long runs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from .core import Environment, Event
from .primitives import Semaphore

__all__ = ["FairShareLink", "SerialLink"]

_EPS_BYTES = 1e-6  # flows with fewer remaining bytes are considered done


class _Flow:
    __slots__ = ("event", "weight")

    def __init__(self, event: Event, weight: float):
        self.event = event
        self.weight = weight


class FairShareLink:
    """Max-min fair shared bandwidth medium (fluid model).

    ``transfer(nbytes)`` returns an event that fires when the flow completes.
    All active flows share :attr:`bandwidth` proportionally to their weights
    (equal weights ⇒ equal shares).  Total throughput never exceeds the link
    bandwidth, so n concurrent memory-bound kernels each take n× longer —
    which is exactly the contention behaviour the GPU memory model needs.
    """

    def __init__(self, env: Environment, bandwidth: float,
                 name: str = "link", obs: Any = None, faults: Any = None):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.name = name
        self.bandwidth = float(bandwidth)
        # Observability (duck-typed to keep sim free of upward imports):
        # an active-flow occupancy series, or None, plus a view of
        # ``bytes_transferred``.  Instruments only record — they never
        # touch the event queue.
        self._flow_series = obs.series(f"link.{name}.active_flows") \
            if obs else None
        if obs:
            obs.view(f"link.{name}.bytes", lambda: self.bytes_transferred)
        # Fault plane (same duck-typed contract): transient bandwidth
        # degradation scales a flow's *service demand* at entry, or None.
        self._faults = faults
        #: Completion heap: ``(target service level, entry seq, flow)``.
        self._heap: List[Tuple[float, int, _Flow]] = []
        self._flow_seq = 0
        #: Cumulative service per unit weight since the link last drained.
        self._service = 0.0
        #: Incrementally maintained sum of active-flow weights.
        self._weight_sum = 0.0
        self._last_update = env._now
        self._wake_generation = 0
        #: Total bytes ever completed (for utilization accounting).
        self.bytes_transferred = 0.0

    # -- public API ------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._heap)

    def transfer(self, nbytes: float, weight: float = 1.0) -> Event:
        """Start a flow of *nbytes*; the event fires at completion."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight!r}")
        ev = self.env.event(name=f"xfer:{self.name}")
        if nbytes <= _EPS_BYTES:
            ev.succeed()
            return ev
        self._advance()
        demand = nbytes
        if self._faults is not None:
            # A degradation window multiplies the flow's service demand —
            # ``bytes_transferred`` still records the *actual* payload.
            demand = nbytes * self._faults.degrade_factor(
                self.name, self.env._now)
        target = self._service + demand / weight
        self._flow_seq += 1
        heappush(self._heap, (target, self._flow_seq, _Flow(ev, weight)))
        self._weight_sum += weight
        self.bytes_transferred += nbytes
        if self._flow_series is not None:
            self._flow_series.sample(self.env._now, len(self._heap))
        self._reschedule()
        return ev

    def stream(self, nbytes: float,
               weight: float = 1.0) -> Generator[Event, Any, None]:
        """``yield from link.stream(n)`` — blocking transfer helper."""
        yield self.transfer(nbytes, weight)

    # -- fluid-model internals ------------------------------------------
    def _advance(self) -> None:
        """Roll the virtual clock forward; complete flows that are due."""
        env = self.env
        now = env._now
        elapsed = now - self._last_update
        self._last_update = now
        heap = self._heap
        if elapsed <= 0 or not heap:
            return
        service = self._service + elapsed * (self.bandwidth / self._weight_sum)
        self._service = service
        # A flow is done when its remaining bytes ``(target - S) * weight``
        # drop below the epsilon — only completed flows are ever touched.
        completed = 0
        while heap and (heap[0][0] - service) * heap[0][2].weight <= _EPS_BYTES:
            _target, _seq, flow = heappop(heap)
            self._weight_sum -= flow.weight
            flow.event.succeed()
            completed += 1
        if completed and self._flow_series is not None:
            self._flow_series.sample(now, len(heap))
        if not heap:
            # Idle link: reset the virtual clock so ``S`` stays small and
            # the incremental weight sum cannot accumulate float dust.
            self._service = 0.0
            self._weight_sum = 0.0

    def _reschedule(self) -> None:
        """Schedule a wakeup at the earliest flow-completion time."""
        self._wake_generation += 1
        heap = self._heap
        if not heap:
            return
        gen = self._wake_generation
        # Earliest completion: the heap top reaches its target service.
        delay = ((heap[0][0] - self._service)
                 * self._weight_sum / self.bandwidth)
        if delay < 0.0:  # pragma: no cover - float-dust guard
            delay = 0.0
        self.env.call_at(delay, self._on_wake, gen)

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer state change
        self._advance()
        self._reschedule()


class SerialLink:
    """Exclusive FCFS link: each use costs ``latency + nbytes / bandwidth``.

    Uses are serialized — a second transfer waits for the first.  An
    infinite-bandwidth link (``bandwidth=None``) charges only the latency,
    which models fixed-cost transactions (e.g. a single PCIe write).
    """

    def __init__(self, env: Environment, latency: float,
                 bandwidth: Optional[float] = None, name: str = "serial"):
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.name = name
        self.latency = float(latency)
        self.bandwidth = bandwidth
        self._lock = Semaphore(env, 1, name=f"lock:{name}")
        #: Cumulative busy time (for utilization accounting).
        self.busy_time = 0.0
        self.transactions = 0

    def occupancy(self, nbytes: float = 0.0) -> float:
        """Time the link is held for a transfer of *nbytes*."""
        cost = self.latency
        if self.bandwidth is not None:
            cost += nbytes / self.bandwidth
        return cost

    def transact(self, nbytes: float = 0.0) -> Generator[Event, Any, None]:
        """``yield from link.transact(n)`` — acquire, hold for cost, release."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        yield from self._lock.acquire()
        try:
            cost = self.occupancy(nbytes)
            self.busy_time += cost
            self.transactions += 1
            yield cost
        finally:
            self._lock.release()
