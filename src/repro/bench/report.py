"""Plain-text report formatting for the experiment harness.

All figures and tables of the paper are regenerated as ASCII tables/grids
(the offline environment has no plotting stack). ``repro experiment NAME``
prints its entry's report to stdout; the committed ``results/<report>.txt``
is that output, and CI diffs the two.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width table with right-aligned numeric-ish columns."""
    rendered: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered.append(
            [f"{cell:.2f}" if isinstance(cell, float) else str(cell) for cell in row]
        )
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(rendered[0], widths)))
    lines.append(sep)
    for row in rendered[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def format_matrix(
    row_keys: Sequence[object],
    col_keys: Sequence[object],
    value: Callable[[object, object], float],
    title: Optional[str] = None,
    row_header: str = "",
) -> str:
    """A heat-map style grid (rows × cols), e.g. the Fig. 14 K×L speedups."""
    headers = [row_header] + [str(c) for c in col_keys]
    rows = []
    for r in row_keys:
        rows.append([str(r)] + [f"{value(r, c):6.2f}".strip() for c in col_keys])
    return format_table(headers, rows, title=title)


def ascii_scatter(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 14,
    title: Optional[str] = None,
) -> str:
    """A coarse character scatter plot (used for the Fig. 9 workloads)."""
    if not xs:
        return "(empty)\n"
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
        row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
        grid[height - 1 - row][col] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append("+" + "-" * width + "+")
    for row in grid:
        lines.append("|" + "".join(row) + "|")
    lines.append("+" + "-" * width + "+")
    return "\n".join(lines) + "\n"

