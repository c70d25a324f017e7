"""Plain-text report rendering for experiment harnesses.

Benchmarks print their results as fixed-width tables so the EXPERIMENTS.md
paper-vs-measured records can be pasted straight from the bench output.
No third-party table library is used.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

Cell = Union[str, int, float]


def _render_cell(value: Cell) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3g}" if abs(value) < 10 else f"{value:.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
) -> str:
    """A fixed-width table with a header rule."""
    rendered = [[_render_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(width) for cell, width in zip(cells, widths)
        )

    out: List[str] = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * width for width in widths]))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def comparison_table(
    rows: Sequence[Tuple[str, Cell, Cell]], title: Optional[str] = None
) -> str:
    """A paper-vs-measured table with a ratio column.

    Each row is ``(metric, paper_value, measured_value)``; the ratio is
    measured/paper where both are numeric, which is the "shape holds"
    check EXPERIMENTS.md records.
    """
    table_rows: List[Sequence[Cell]] = []
    for metric, paper, measured in rows:
        if (
            isinstance(paper, (int, float))
            and isinstance(measured, (int, float))
            and paper
        ):
            ratio: Cell = measured / paper
        else:
            ratio = "-"
        table_rows.append((metric, paper, measured, ratio))
    return format_table(
        ("metric", "paper", "measured", "ratio"), table_rows, title=title
    )


#: Characters in a :func:`series_preview` sparkline.
PREVIEW_WIDTH = 60


def series_preview(values: Sequence[float]) -> str:
    """A coarse unicode sparkline of a series (for bench logs)."""
    if not values:
        return "(empty)"
    blocks = "▁▂▃▄▅▆▇█"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = max(1, len(values) // PREVIEW_WIDTH)
    sampled = list(values)[::step][:PREVIEW_WIDTH]
    return "".join(
        blocks[min(len(blocks) - 1, int((v - lo) / span * (len(blocks) - 1)))]
        for v in sampled
    )
