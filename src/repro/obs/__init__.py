"""Unified observability: metrics registry + Perfetto trace export.

The measurement substrate for every performance claim the reproduction
makes.  Three pieces:

* :mod:`repro.obs.metrics` — passive instruments (views of the counts
  components already keep, fixed-bucket latency histograms, time-weighted
  occupancy series) behind a flat :class:`MetricsRegistry`;
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON export of
  the interval trace plus counter tracks;
* :mod:`repro.obs.report` — the per-rank overlap-efficiency report (the
  paper's Fig. 1 quantity) computed from traced intervals.

Everything hangs off a single switch, :class:`ObsConfig` (embedded in
:class:`~repro.hw.config.MachineConfig`), and the whole layer is strictly
*zero perturbation*: instruments record, they never schedule — enabling
observability cannot move a simulated timestamp.  CLI::

    python -m repro.obs report --metrics
    python -m repro.obs export --chrome trace.json

The report symbols are loaded lazily (PEP 562), like every package
surface: ``repro.hw.config`` imports :mod:`repro.obs.config` for the
``ObsConfig`` field, and that import should not pay for the report.
"""

from .config import (
    DEFAULT_LATENCY_BUCKETS,
    ObsConfig,
    default_obs,
    force_enabled,
)
from .core import Observability
from .export import chrome_trace, chrome_trace_events, write_chrome
from .metrics import Histogram, MetricsRegistry, OccupancySeries, View

__all__ = [
    "ObsConfig", "DEFAULT_LATENCY_BUCKETS", "default_obs", "force_enabled",
    "Observability",
    "View", "Histogram", "MetricsRegistry", "OccupancySeries",
    "chrome_trace", "chrome_trace_events", "write_chrome",
    "OverlapRow", "overlap_rows", "overlap_report", "metrics_report",
]

_REPORT_SYMBOLS = ("OverlapRow", "overlap_rows", "overlap_report",
                   "metrics_report")


def __getattr__(name):
    if name in _REPORT_SYMBOLS:
        from . import report
        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
