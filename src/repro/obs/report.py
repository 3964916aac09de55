"""Overlap-efficiency report computed from traced activity intervals.

Fig. 1 of the paper is a picture of per-block timelines: while one
over-subscribed rank waits for notifications, co-resident ranks keep the SMs
busy — communication is *hidden* under computation.  This module turns the
recorded intervals into that number: for every rank, the fraction of its
communication + wait time that overlaps some other co-resident rank's
compute activity on the same device.

``hidden / (comm + wait)`` per rank is exactly the overlap efficiency the
evaluation section reasons about: 1.0 means communication is fully hidden
(perfect overlap, the copy workload of Fig. 8); fractions below 1.0 expose
communication on the critical path (the compute-bound Newton workload of
Fig. 7, where the matcher itself steals issue slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bench.table import Table
from ..sim.trace import Tracer, merge_intervals, overlap_time, total_time
from .metrics import Histogram, MetricsRegistry, View

__all__ = ["OverlapRow", "overlap_rows", "overlap_report", "metrics_report"]

#: Interval kinds that occupy a block's issue unit with useful work.
COMPUTE_KINDS = ("compute", "match")
#: Interval kinds during which a block makes no compute progress.
HIDDEN_KINDS = ("comm", "wait")


@dataclass(frozen=True)
class OverlapRow:
    """Per-rank overlap accounting (all times in simulated seconds)."""

    actor: str
    device: str
    compute: float       # union of compute+match intervals
    comm: float          # union of comm intervals
    wait: float          # union of wait intervals
    hidden: float        # comm∪wait time overlapped by peers' compute


def _block_device(actor: str) -> Optional[str]:
    """Device prefix of a block actor (``node0.gpu.b3`` → ``node0.gpu``)."""
    head, sep, tail = actor.rpartition(".b")
    if sep and tail.isdigit():
        return head
    return None


def _spans(tracer: Tracer, actor: str,
           kinds: Tuple[str, ...]) -> List[Tuple[float, float]]:
    return [(iv.start, iv.end) for iv in tracer.intervals
            if iv.actor == actor and iv.kind in kinds]


def overlap_rows(tracer: Tracer) -> List[OverlapRow]:
    """One row per traced block, grouped by device, in actor order."""
    devices: Dict[str, List[str]] = {}
    for actor in tracer.actors():
        device = _block_device(actor)
        if device is not None:
            devices.setdefault(device, []).append(actor)
    rows: List[OverlapRow] = []
    for device in sorted(devices):
        blocks = devices[device]
        compute_spans = {a: _spans(tracer, a, COMPUTE_KINDS) for a in blocks}
        for actor in blocks:
            own_hidden_spans = merge_intervals(
                _spans(tracer, actor, HIDDEN_KINDS))
            peer_compute: List[Tuple[float, float]] = []
            for peer in blocks:
                if peer != actor:
                    peer_compute.extend(compute_spans[peer])
            rows.append(OverlapRow(
                actor=actor,
                device=device,
                compute=total_time(compute_spans[actor]),
                comm=tracer.busy_time(kind="comm", actor=actor),
                wait=tracer.busy_time(kind="wait", actor=actor),
                hidden=overlap_time(own_hidden_spans, peer_compute),
            ))
    return rows


def overlap_report(tracer: Tracer) -> Table:
    """The Fig.-1 overlap table: per-rank activity + overlap efficiency."""
    table = Table(
        "Overlap efficiency per rank (hidden = comm+wait under peers' "
        "compute)",
        ["rank", "compute [us]", "comm [us]", "wait [us]", "hidden [us]",
         "overlap"])
    rows = overlap_rows(tracer)
    for row in rows:
        base = row.comm + row.wait
        fraction = row.hidden / base if base > 0 else 1.0
        table.add_row(row.actor, row.compute * 1e6, row.comm * 1e6,
                      row.wait * 1e6, row.hidden * 1e6, fraction)
    if rows:
        total_base = sum(r.comm + r.wait for r in rows)
        total_hidden = sum(r.hidden for r in rows)
        table.add_note(
            f"aggregate overlap fraction: "
            f"{(total_hidden / total_base) if total_base else 1.0:.4f} "
            f"over {len(rows)} ranks")
    else:
        table.add_note("no block intervals traced — enable ObsConfig or "
                       "MachineConfig.tracing")
    return table


def metrics_report(registry: MetricsRegistry) -> Table:
    """Flat rendering of every registered view, histogram, and series."""
    table = Table("Metrics registry", ["metric", "value"])
    for name, value in registry.snapshot().items():
        metric = registry[name]
        if isinstance(metric, View):
            table.add_row(name, value)
        elif isinstance(metric, Histogram):
            table.add_row(
                name,
                f"n={metric.count} mean={metric.mean:.3e} "
                f"max={metric.max if metric.max is not None else 0:.3e}")
        else:  # OccupancySeries snapshot dict
            table.add_row(
                name,
                f"mean={value['mean']:.4g} max={value['max']:.4g} "
                f"samples={value['samples']}")
    return table
