"""The per-cluster observability handle.

A :class:`Observability` instance rides on the :class:`~repro.hw.cluster.
Cluster` and is threaded through the hardware and runtime layers at
construction time.  Components ask it for instruments *once*, at wiring
time::

    self._depth = obs.series(f"queue.{name}.depth") if obs else None
    if obs:
        obs.view(f"queue.{name}.enqueues", lambda: self.stats.enqueues)

and guard each recording site with ``if self._depth is not None``.  A
count the component already keeps is exposed as a view, read when the
registry is dumped, so it is never counted twice.  When the layer is
disabled the factories return ``None`` and register nothing, so a
disabled run carries no instruments, no registry entries, and no
per-event work beyond the attribute check — instrumentation is free when
off.
"""

from __future__ import annotations

from typing import Callable, Optional

from .config import DEFAULT_LATENCY_BUCKETS, ObsConfig
from .metrics import Histogram, MetricsRegistry, OccupancySeries

__all__ = ["Observability"]


class Observability:
    """Metrics registry behind the config's switch, for one cluster."""

    def __init__(self, cfg: Optional[ObsConfig] = None):
        self.enabled = bool(cfg and cfg.enabled)
        self.registry = MetricsRegistry()

    def __bool__(self) -> bool:
        return self.enabled

    # -- gated instrument factories (None / no-op when disabled) ---------
    def series(self, name: str) -> Optional[OccupancySeries]:
        return self.registry.series(name) if self.enabled else None

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.registry.histogram(name, DEFAULT_LATENCY_BUCKETS) \
            if self.enabled else None

    def view(self, name: str, read: Callable[[], float]) -> None:
        if self.enabled:
            self.registry.view(name, read)
