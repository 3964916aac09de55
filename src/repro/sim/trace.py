"""Interval tracing for schedule visualization and statistics.

The tracer records ``(actor, kind, t_start, t_end, detail)`` intervals.  The
GPU model emits *compute*, *comm*, and *wait* intervals per block, which lets
benchmarks measure overlap directly (Fig. 1 of the paper is a picture of
exactly this trace) and lets tests assert that communication of one block
overlaps computation of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Interval", "Tracer", "merge_intervals", "total_time", "overlap_time"]


@dataclass(frozen=True)
class Interval:
    """One traced activity interval."""

    actor: str
    kind: str
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects activity intervals; cheap no-op when disabled."""

    enabled: bool = True
    intervals: List[Interval] = field(default_factory=list)

    def record(self, actor: str, kind: str, start: float, end: float,
               detail: str = "") -> None:
        if not self.enabled:
            return
        if not isinstance(actor, str) or not actor:
            raise ValueError(f"interval actor must be a non-empty string, "
                             f"got {actor!r}")
        if not isinstance(kind, str) or not kind:
            raise ValueError(f"interval kind must be a non-empty string, "
                             f"got {kind!r}")
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self.intervals.append(Interval(actor, kind, start, end, detail))

    def clear(self) -> None:
        self.intervals.clear()

    # -- queries --------------------------------------------------------
    def by_actor(self, actor: str) -> List[Interval]:
        return [iv for iv in self.intervals if iv.actor == actor]

    def by_kind(self, kind: str) -> List[Interval]:
        return [iv for iv in self.intervals if iv.kind == kind]

    def actors(self) -> List[str]:
        seen: Dict[str, None] = {}
        for iv in self.intervals:
            seen.setdefault(iv.actor, None)
        return list(seen)

    def busy_time(self, kind: Optional[str] = None,
                  actor: Optional[str] = None) -> float:
        """Union length of matching intervals (overlaps counted once)."""
        spans = [(iv.start, iv.end) for iv in self.intervals
                 if (kind is None or iv.kind == kind)
                 and (actor is None or iv.actor == actor)]
        return total_time(spans)

    def render_ascii(self, width: int = 72,
                     kinds: Optional[Dict[str, str]] = None) -> str:
        """Render a Fig.-1-style timeline, one row per actor.

        *kinds* maps interval kind → single display character; defaults to
        the first letter of the kind.  Gaps render as ``.``.
        """
        if not self.intervals:
            return "(empty trace)"
        t0 = min(iv.start for iv in self.intervals)
        t1 = max(iv.end for iv in self.intervals)
        span = max(t1 - t0, 1e-30)
        chars = kinds or {}
        # One walk over the trace: rows appear in first-seen actor order
        # and each row is painted in recording order, later over earlier.
        rows: Dict[str, List[str]] = {}
        for iv in self.intervals:
            row = rows.get(iv.actor)
            if row is None:
                row = rows[iv.actor] = ["."] * width
            c0 = int((iv.start - t0) / span * (width - 1))
            c1 = int((iv.end - t0) / span * (width - 1))
            char = chars.get(iv.kind, iv.kind[:1] or "?")
            for c in range(c0, max(c0, c1) + 1):
                row[c] = char
        return "\n".join(f"{actor:>16s} |{''.join(row)}|"
                         for actor, row in rows.items())


def merge_intervals(spans: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Merge overlapping ``(start, end)`` spans into a disjoint sorted list."""
    ordered = sorted((s, e) for s, e in spans if e > s)
    merged: List[Tuple[float, float]] = []
    for s, e in ordered:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def total_time(spans: Iterable[Tuple[float, float]]) -> float:
    """Union length of the given spans."""
    return sum(e - s for s, e in merge_intervals(spans))


def overlap_time(a: Iterable[Tuple[float, float]],
                 b: Iterable[Tuple[float, float]]) -> float:
    """Length of the intersection of the unions of *a* and *b*.

    This is the quantity the overlap benchmarks report: how much
    communication time (one span set) is hidden under computation time
    (the other span set).
    """
    ma, mb = merge_intervals(a), merge_intervals(b)
    i = j = 0
    total = 0.0
    while i < len(ma) and j < len(mb):
        s = max(ma[i][0], mb[j][0])
        e = min(ma[i][1], mb[j][1])
        if e > s:
            total += e - s
        if ma[i][1] <= mb[j][1]:
            i += 1
        else:
            j += 1
    return total
