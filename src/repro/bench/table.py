"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence

__all__ = ["Table", "format_value"]


def format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e4 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """Aligned text table; one per reproduced figure."""

    title: str
    columns: Sequence[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"row has {len(values)} cells, table has "
                             f"{len(self.columns)} columns")
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        cells = [[format_value(v) for v in row] for row in self.rows]
        widths = [max(len(str(col)), *(len(r[i]) for r in cells))
                  if cells else len(str(col))
                  for i, col in enumerate(self.columns)]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(str(c).rjust(w)
                           for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

