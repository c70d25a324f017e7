"""Terminal renderings of the paper's figures.

Pure-text plots (no plotting dependency): density curves for Fig. 1,
dual-series lines for Figs. 4/5, and a block-character presence matrix
for Fig. 12.  Used by the CLI; exact-pixel fidelity is a job for the CSV
export + a real plotting tool.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..analysis.kde import DensityEstimate
from ..errors import AnalysisError

_BLOCKS = " ▁▂▃▄▅▆▇█"


def _scale_to_blocks(values: Sequence[float], peak: Optional[float] = None) -> str:
    array = np.asarray(values, dtype=float)
    top = peak if peak is not None else (array.max() if array.size else 1.0)
    top = top or 1.0
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, round(v / top * (len(_BLOCKS) - 1)))]
        for v in array
    )


def density_overlay(
    curves: Dict[str, DensityEstimate], width: int = 64
) -> str:
    """Several KDEs on a shared peak scale (the Fig. 1 overlay)."""
    if not curves:
        raise AnalysisError("no densities given")
    peak = max(float(d.density.max()) for d in curves.values())
    lines = []
    for label, density in curves.items():
        resampled = np.interp(
            np.linspace(density.grid[0], density.grid[-1], width),
            density.grid,
            density.density,
        )
        lines.append(f"{label:>6} {_scale_to_blocks(resampled, peak)}")
    lo = curves[next(iter(curves))].grid[0]
    hi = curves[next(iter(curves))].grid[-1]
    lines.append(f"{'':>6} {str(round(lo)):<{width // 2}}{round(hi):>{width - width // 2}}")
    return "\n".join(lines)


def dual_series(
    primary: Sequence[float],
    secondary: Sequence[float],
    labels: "tuple[str, str]" = ("per-snapshot", "cumulative"),
    width: int = 60,
) -> str:
    """Two series on a shared scale (the Figs. 4/5 black/red pairs)."""
    if not primary or not secondary:
        raise AnalysisError("series must be non-empty")
    peak = max(max(primary), max(secondary)) or 1.0

    def render(series: Sequence[float]) -> str:
        step = max(1, len(series) // width)
        return _scale_to_blocks(list(series)[::step][:width], peak)

    name_width = max(len(labels[0]), len(labels[1]))
    return "\n".join(
        f"{label:>{name_width}} {render(series)}"
        for label, series in zip(labels, (primary, secondary))
    )


def presence_matrix(
    matrix: "np.ndarray", max_rows: int = 40, max_cols: int = 80
) -> str:
    """The Fig. 12 binary image, block characters for presence.

    Rows (addresses) are downsampled by striding; columns (snapshots)
    are grouped and rendered by their presence density.
    """
    if matrix.size == 0:
        raise AnalysisError("empty matrix")
    rows, cols = matrix.shape
    row_step = max(1, -(-rows // max_rows))  # ceil division
    col_step = max(1, -(-cols // max_cols))
    lines = []
    for row_start in range(0, rows, row_step):
        chunk = matrix[row_start: row_start + row_step]
        line = []
        for col_start in range(0, cols, col_step):
            cell = chunk[:, col_start: col_start + col_step]
            density = float(cell.mean()) if cell.size else 0.0
            line.append(
                _BLOCKS[min(len(_BLOCKS) - 1, int(density * (len(_BLOCKS) - 1)))]
            )
        lines.append("".join(line))
    return "\n".join(lines)
