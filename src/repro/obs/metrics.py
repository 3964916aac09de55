"""Metric instruments and the registry that names them.

Three instrument kinds cover everything the simulator needs to expose:

* :class:`View` — a count some component already keeps (queue enqueues,
  link bytes, NIC messages, PCIe transactions, fault injections), read
  when the registry is dumped; the registry never keeps a second copy;
* :class:`Histogram` — fixed-bucket latency distributions (command handling,
  notification waits); fixed buckets keep ``observe`` O(log buckets) with no
  allocation, so recording cannot perturb the simulation;
* :class:`OccupancySeries` — a step function of (time, value) samples for
  time-weighted occupancy (queue depth, credits, active link flows); the
  integral and time-weighted mean are exact for step functions.

All instruments are *passive*: they never touch the simulation event queue.
The :class:`MetricsRegistry` is a flat name→instrument map; asking for the
same name twice returns the same instrument, so wiring code can be naive
about creation order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["View", "Histogram", "OccupancySeries", "MetricsRegistry"]


class View:
    """A named count read from its owner at dump time, never counted here.

    Registering a second reader under the same name adds it to the view,
    which then reports the sum: a second launch on one cluster builds
    its queues anew under the same names, and the view totals both.
    """

    __slots__ = ("name", "readers")

    def __init__(self, name: str):
        self.name = name
        self.readers: List[Callable[[], float]] = []

    @property
    def value(self) -> float:
        return sum(read() for read in self.readers)


class Histogram:
    """Fixed-bucket distribution; bucket *i* counts ``x <= bounds[i]``.

    One extra overflow bucket counts observations above the last bound, so
    ``sum(counts) == count`` always holds (a property test asserts it).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Sequence[float]):
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must strictly increase: "
                f"{ordered}")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class OccupancySeries:
    """A right-continuous step function sampled at state changes.

    ``sample(t, v)`` records that the series holds value *v* from time *t*
    until the next sample.  Samples must arrive in non-decreasing time
    order (simulated time only moves forward); several samples at the same
    instant collapse to the last one, which matches how a queue that
    enqueues and dequeues in the same event-loop step looks from outside.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def sample(self, t: float, value: float) -> None:
        times = self.times
        if times:
            last = times[-1]
            if t < last:
                raise ValueError(
                    f"series {self.name!r} sampled backwards in time: "
                    f"{t} after {last}")
            if t == last:
                self.values[-1] = value
                return
        times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def integral(self, t0: Optional[float] = None,
                 t1: Optional[float] = None) -> float:
        """Exact time-weighted integral of the step function over [t0, t1].

        Defaults to the sampled span.  The last sample's value extends to
        *t1* (the state persists until something changes it).
        """
        if not self.times:
            return 0.0
        if t0 is None:
            t0 = self.times[0]
        if t1 is None:
            t1 = self.times[-1]
        if t1 <= t0:
            return 0.0
        total = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            seg_start = max(t, t0)
            seg_end = self.times[i + 1] if i + 1 < len(self.times) else t1
            seg_end = min(seg_end, t1)
            if seg_end > seg_start:
                total += v * (seg_end - seg_start)
        # Portion of [t0, t1] before the first sample contributes 0.
        return total

    def time_weighted_mean(self, t0: Optional[float] = None,
                           t1: Optional[float] = None) -> float:
        if not self.times:
            return 0.0
        lo = self.times[0] if t0 is None else t0
        hi = self.times[-1] if t1 is None else t1
        if hi <= lo:
            return 0.0
        return self.integral(lo, hi) / (hi - lo)

    def max_value(self) -> float:
        return max(self.values) if self.values else 0.0


class MetricsRegistry:
    """Flat name → instrument map; get-or-create semantics per kind."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, factory):
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = self._metrics[name] = factory()
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}")
        return instrument

    def view(self, name: str, read: Callable[[], float]) -> View:
        view = self._get(name, View, lambda: View(name))
        view.readers.append(read)
        return view

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def series(self, name: str) -> OccupancySeries:
        return self._get(name, OccupancySeries,
                         lambda: OccupancySeries(name))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str):
        return self._metrics[name]

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def by_kind(self, kind: type) -> List:
        return [self._metrics[n] for n in self.names()
                if isinstance(self._metrics[n], kind)]

    def snapshot(self) -> Dict[str, object]:
        """JSON-able flat view of every instrument's current state."""
        out: Dict[str, object] = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, View):
                out[name] = m.value
            elif isinstance(m, Histogram):
                out[name] = {"count": m.count, "total": m.total,
                             "mean": m.mean, "min": m.min, "max": m.max,
                             "bounds": list(m.bounds),
                             "counts": list(m.counts)}
            elif isinstance(m, OccupancySeries):
                out[name] = {"samples": len(m),
                             "mean": m.time_weighted_mean(),
                             "max": m.max_value(),
                             "integral": m.integral()}
        return out
