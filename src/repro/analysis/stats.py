"""Summary statistics used across the experiment harnesses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of one measured series."""

    count: int
    mean: float
    median: float
    minimum: float
    maximum: float
    p90: float
    p99: float
    std: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "min": self.minimum,
            "max": self.maximum,
            "p90": self.p90,
            "p99": self.p99,
            "std": self.std,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Compute a :class:`Summary`; raises on an empty input."""
    if len(values) == 0:
        raise AnalysisError("cannot summarize an empty series")
    array = np.asarray(values, dtype=float)
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        median=float(np.median(array)),
        minimum=float(array.min()),
        maximum=float(array.max()),
        p90=float(np.percentile(array, 90)),
        p99=float(np.percentile(array, 99)),
        std=float(array.std()),
    )


def k_to_cover(counts: Dict, share: float = 0.5) -> int:
    """Smallest number of top entries covering ``share`` of the mass.

    This is the paper's "X ASes host 50% of nodes" statistic.
    """
    if not counts:
        raise AnalysisError("empty counts")
    if not 0 < share <= 1:
        raise AnalysisError(f"share must be in (0, 1], got {share}")
    ordered = sorted(counts.values(), reverse=True)
    total = sum(ordered)
    target = total * share
    acc = 0.0
    for index, value in enumerate(ordered, start=1):
        acc += value
        if acc >= target:
            return index
    return len(ordered)
