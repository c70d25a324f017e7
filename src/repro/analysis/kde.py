"""Kernel-density estimation for the Fig. 1 synchronization distributions.

A thin wrapper over ``scipy.stats.gaussian_kde`` that also reports the
mean/median the paper quotes (72.02/80.38 for 2019, 61.91/65.47 for 2020)
and renders the density on a fixed grid so two campaigns can be compared
point-for-point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

from ..errors import AnalysisError

if TYPE_CHECKING:
    import numpy as np

#: The density grid: sync percent from 0 to 100, 256 points.
GRID_MIN = 0.0
GRID_MAX = 100.0
GRID_POINTS = 256


@dataclass(frozen=True)
class DensityEstimate:
    """A KDE evaluated on a grid, plus the headline statistics."""

    grid: np.ndarray
    density: np.ndarray
    mean: float
    median: float
    count: int

    @property
    def mode(self) -> float:
        """Location of the density peak."""
        import numpy as np

        return float(self.grid[int(np.argmax(self.density))])


def kde(values: Sequence[float]) -> DensityEstimate:
    """Gaussian KDE of ``values`` (Scott's-rule bandwidth) on the grid.

    Degenerate inputs (fewer than two distinct values) fall back to a
    narrow Gaussian bump at the sample value rather than raising, because
    short simulated campaigns can legitimately produce constant series.
    """
    if len(values) == 0:
        raise AnalysisError("cannot estimate a density from no samples")
    import numpy as np

    array = np.asarray(values, dtype=float)
    grid = np.linspace(GRID_MIN, GRID_MAX, GRID_POINTS)
    if np.unique(array).size < 2:
        center = float(array[0])
        sigma = (GRID_MAX - GRID_MIN) / 200.0
        density = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
        density /= np.trapezoid(density, grid) or 1.0
    else:
        from scipy import stats

        estimator = stats.gaussian_kde(array)
        density = estimator(grid)
    return DensityEstimate(
        grid=grid,
        density=density,
        mean=float(array.mean()),
        median=float(np.median(array)),
        count=int(array.size),
    )


def compare_densities(
    before: Sequence[float], after: Sequence[float]
) -> Tuple[DensityEstimate, DensityEstimate]:
    """KDEs of two campaigns on a shared grid (the Fig. 1 overlay)."""
    return kde(before), kde(after)
