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


Span = Tuple[float, float]


def _compute_cover(compute: List[List[Span]]
                   ) -> Tuple[List[Span], List[List[Span]]]:
    """One sorted sweep over the blocks' compute edges.

    *compute* holds each block's merged compute spans.  Returns the union
    of all of them and, per block, its *sole* compute: the time in which
    that block and no other computes.  Between two consecutive edge times
    the number of computing blocks is constant, and when it is one, the
    running sum of their indices names the block.
    """
    edges = []
    for idx, spans in enumerate(compute):
        for s, e in spans:
            edges.append((s, 1, idx))
            edges.append((e, -1, idx))
    edges.sort()
    union: List[Span] = []
    sole: List[List[Span]] = [[] for _ in compute]
    count = idsum = 0
    i, n = 0, len(edges)
    while i < n:
        t = edges[i][0]
        while i < n and edges[i][0] == t:
            _, step, idx = edges[i]
            count += step
            idsum += step * idx
            i += 1
        if count:
            t_next = edges[i][0]
            _extend(union, t, t_next)
            if count == 1:
                _extend(sole[idsum], t, t_next)
    return union, sole


def _extend(out: List[Span], s: float, e: float) -> None:
    """Append ``(s, e)`` to sorted *out*, joining a span that ends at s."""
    if out and out[-1][1] == s:
        out[-1] = (out[-1][0], e)
    else:
        out.append((s, e))


def overlap_rows(tracer: Tracer) -> List[OverlapRow]:
    """One row per traced block, grouped by device, in actor order.

    One pass groups the intervals by block; per device,
    :func:`_compute_cover` yields the union of all compute and each
    block's sole compute.  The union less a block's sole compute is its
    peers' compute, so ``hidden = |own comm∪wait ∩ union| − |own
    comm∪wait ∩ own sole compute|``, and the report costs a sort plus
    merge walks instead of a scan of the whole trace per block.
    """
    by_actor: Dict[str, Dict[str, List[Span]]] = {}
    for iv in tracer.intervals:
        by_actor.setdefault(iv.actor, {}).setdefault(iv.kind, []).append(
            (iv.start, iv.end))
    devices: Dict[str, List[str]] = {}
    for actor in by_actor:
        device = _block_device(actor)
        if device is not None:
            devices.setdefault(device, []).append(actor)
    rows: List[OverlapRow] = []
    for device in sorted(devices):
        blocks = devices[device]
        kinds_of = [by_actor[a] for a in blocks]
        compute = [merge_intervals(span for kind in COMPUTE_KINDS
                                   for span in kinds.get(kind, ()))
                   for kinds in kinds_of]
        union, sole = _compute_cover(compute)
        for idx, actor in enumerate(blocks):
            kinds = kinds_of[idx]
            own = merge_intervals(span for kind in HIDDEN_KINDS
                                  for span in kinds.get(kind, ()))
            rows.append(OverlapRow(
                actor=actor,
                device=device,
                compute=total_time(compute[idx]),
                comm=total_time(kinds.get("comm", ())),
                wait=total_time(kinds.get("wait", ())),
                hidden=(overlap_time(own, union)
                        - overlap_time(own, sole[idx])),
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
