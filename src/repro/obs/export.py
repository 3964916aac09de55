"""Chrome trace-event / Perfetto export.

Converts the cluster's interval trace plus the metrics registry's occupancy
series into the Chrome trace-event JSON format (the ``traceEvents`` array
understood by ``chrome://tracing`` and https://ui.perfetto.dev):

* every :class:`~repro.sim.trace.Interval` becomes a complete ``"X"`` event
  (microsecond ``ts``/``dur``), one Perfetto *track* per actor, tracks
  grouped into one *process* per device/host component;
* every :class:`~repro.obs.metrics.OccupancySeries` becomes a sequence of
  counter ``"C"`` events, so queue depths, credits, and active link flows
  render as stacked counter tracks above the timeline;
* ``"M"`` metadata events name the processes and threads.

Timestamps are simulated seconds scaled to integer-friendly microseconds —
Perfetto sorts and displays fractional microseconds fine, so no rounding is
applied and the export stays lossless.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..sim.trace import Tracer
from .metrics import MetricsRegistry, OccupancySeries

__all__ = ["chrome_trace", "chrome_trace_events", "write_chrome"]

_US = 1e6  # seconds -> microseconds

#: pid reserved for the counter tracks (registry series).
_METRICS_PID = 9999


def _process_of(actor: str) -> str:
    """Track-grouping key: ``node0.gpu.b3`` renders under ``node0.gpu``."""
    return actor.rsplit(".", 1)[0] if "." in actor else actor


def chrome_trace_events(tracer: Optional[Tracer] = None,
                        registry: Optional[MetricsRegistry] = None
                        ) -> List[dict]:
    """The flat ``traceEvents`` list (metadata + spans + counters)."""
    events: List[dict] = []
    if tracer is not None and tracer.intervals:
        actors = tracer.actors()
        processes: Dict[str, int] = {}
        tids: Dict[str, int] = {}
        for actor in actors:
            proc = _process_of(actor)
            if proc not in processes:
                pid = processes[proc] = len(processes)
                events.append({"name": "process_name", "ph": "M",
                               "pid": pid, "tid": 0,
                               "args": {"name": proc}})
            tids[actor] = len(tids)
            events.append({"name": "thread_name", "ph": "M",
                           "pid": processes[proc], "tid": tids[actor],
                           "args": {"name": actor}})
        for iv in tracer.intervals:
            events.append({
                "name": iv.detail or iv.kind,
                "cat": iv.kind,
                "ph": "X",
                "ts": iv.start * _US,
                "dur": iv.duration * _US,
                "pid": processes[_process_of(iv.actor)],
                "tid": tids[iv.actor],
                "args": {"actor": iv.actor, "kind": iv.kind},
            })
    if registry is not None:
        series = registry.by_kind(OccupancySeries)
        if series:
            events.append({"name": "process_name", "ph": "M",
                           "pid": _METRICS_PID, "tid": 0,
                           "args": {"name": "metrics"}})
            for s in series:
                for t, v in zip(s.times, s.values):
                    events.append({"name": s.name, "ph": "C",
                                   "ts": t * _US, "pid": _METRICS_PID,
                                   "args": {"value": v}})
    return events


def chrome_trace(tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None) -> dict:
    """The full JSON-object form Perfetto accepts directly."""
    return {"traceEvents": chrome_trace_events(tracer, registry),
            "displayTimeUnit": "ms"}


def write_chrome(path: str, tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None) -> int:
    """Write the trace JSON to *path*; returns the number of events."""
    trace = chrome_trace(tracer, registry)
    # json.dumps encodes in C; json.dump would stream the same bytes
    # through the pure-Python encoder, several times slower.
    with open(path, "w") as fh:
        fh.write(json.dumps(trace) + "\n")
    return len(trace["traceEvents"])
