"""Plain-text and markdown rendering for benchmark output.

The benches print the same rows the paper's tables report; these helpers
keep that presentation consistent (fixed column order, aligned ASCII).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table", "format_series"]


def _columns(rows: Sequence[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[dict], *, title: str | None = None) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns = _columns(rows)
    grid = [[_cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in grid))
              for i, col in enumerate(columns)]
    parts = []
    if title:
        parts.append(title)
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    parts.append(header)
    parts.append("-" * len(header))
    for line in grid:
        parts.append("  ".join(cell.ljust(w)
                               for cell, w in zip(line, widths)))
    return "\n".join(parts)


def format_series(x_label: str, xs: Iterable[Any],
                  series: dict[str, Sequence[Any]], *,
                  title: str | None = None) -> str:
    """Render figure-style data (one x column, one column per series)."""
    rows = []
    xs = list(xs)
    for i, x in enumerate(xs):
        row = {x_label: x}
        for name, values in series.items():
            row[name] = values[i]
        rows.append(row)
    return format_table(rows, title=title)
