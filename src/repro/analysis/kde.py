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


def kde(
    values: Sequence[float],
    grid_min: float = 0.0,
    grid_max: float = 100.0,
    grid_points: int = 256,
    bandwidth: float = None,
) -> DensityEstimate:
    """Gaussian KDE of ``values`` on ``[grid_min, grid_max]``.

    ``bandwidth`` overrides the Scott's-rule factor when given.  Degenerate
    inputs (fewer than two distinct values) fall back to a narrow Gaussian
    bump at the sample value rather than raising, because short simulated
    campaigns can legitimately produce constant series.
    """
    if len(values) == 0:
        raise AnalysisError("cannot estimate a density from no samples")
    import numpy as np

    array = np.asarray(values, dtype=float)
    grid = np.linspace(grid_min, grid_max, grid_points)
    if np.unique(array).size < 2:
        center = float(array[0])
        sigma = max((grid_max - grid_min) / 200.0, 1e-9)
        density = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
        density /= np.trapezoid(density, grid) or 1.0
    else:
        from scipy import stats

        estimator = stats.gaussian_kde(array, bw_method=bandwidth)
        density = estimator(grid)
    return DensityEstimate(
        grid=grid,
        density=density,
        mean=float(array.mean()),
        median=float(np.median(array)),
        count=int(array.size),
    )


def compare_densities(
    before: Sequence[float], after: Sequence[float], **kwargs
) -> Tuple[DensityEstimate, DensityEstimate]:
    """KDEs of two campaigns on a shared grid (the Fig. 1 overlay)."""
    return kde(before, **kwargs), kde(after, **kwargs)
