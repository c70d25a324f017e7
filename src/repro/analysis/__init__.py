"""Statistics helpers: summaries, KDE, time series."""

from .kde import DensityEstimate, compare_densities, kde
from .stats import Summary, k_to_cover, summarize
from .timeseries import Sampler, Series

__all__ = [
    "DensityEstimate",
    "Sampler",
    "Series",
    "Summary",
    "compare_densities",
    "k_to_cover",
    "kde",
    "summarize",
]
