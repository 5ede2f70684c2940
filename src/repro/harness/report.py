"""Plain-text tables for harness output (the paper's rows/series)."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence


def format_table(title: str, rows: Mapping[str, Mapping[str, float]],
                 columns: Optional[Sequence[str]] = None,
                 fmt: str = "{:.3f}") -> str:
    """Render {row -> {column -> value}} as an aligned text table.

    Rows appear in insertion order plus a final geometric-mean-free
    ``AVG`` row (arithmetic mean, as the paper's AVG bars are).
    """
    if not rows:
        return f"== {title} ==\n(no data)"
    if columns is None:
        columns = list(next(iter(rows.values())).keys())
    name_w = max(len(r) for r in list(rows) + ["AVG"]) + 2
    col_w = max(12, max(len(c) for c in columns) + 2)
    lines = [f"== {title} =="]
    header = " " * name_w + "".join(c.rjust(col_w) for c in columns)
    lines.append(header)
    sums = {c: 0.0 for c in columns}
    count = 0
    for row_name, cells in rows.items():
        line = row_name.ljust(name_w)
        for c in columns:
            v = cells.get(c)
            line += (fmt.format(v) if v is not None else "-").rjust(col_w)
            if v is not None:
                sums[c] += v
        count += 1
        lines.append(line)
    if count > 1:
        line = "AVG".ljust(name_w)
        for c in columns:
            line += fmt.format(sums[c] / count).rjust(col_w)
        lines.append(line)
    return "\n".join(lines)
