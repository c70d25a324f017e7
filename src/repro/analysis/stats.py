"""Summary statistics used across the experiment harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import AnalysisError

#: numpy's ``PW_BLOCKSIZE``: the longest run summed without splitting.
_PAIRWISE_BLOCK = 128


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
    import numpy as np

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


def _pairwise_sum(values: List[float], start: int, n: int) -> float:
    """numpy's float64 ``pairwise_sum`` over ``values[start:start + n]``."""
    if n < 8:
        total = 0.0
        for value in values[start:start + n]:
            total += value
        return total
    if n <= _PAIRWISE_BLOCK:
        end = start + n - n % 8
        r = []
        for lane in range(8):
            acc = values[start + lane]
            for value in values[start + lane + 8:end:8]:
                acc += value
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[end:start + n]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, n - half
    )


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, equal bit for bit to ``float(numpy.mean(values))``.

    numpy sums float64 pairwise: under 8 values in order from 0.0; up to
    128 in eight strided accumulators, combined as a balanced tree, then
    the tail in order; more split at half the length rounded down to a
    multiple of 8.  This is that sum written out, so the means the
    simulation path reports need no numpy.  Integers agree while every
    partial sum is exact (below 2**53), where any order gives one value.
    An empty input is ``nan``, as in numpy, without its RuntimeWarning.
    """
    floats = [float(value) for value in values]
    if not floats:
        return math.nan
    return _pairwise_sum(floats, 0, len(floats)) / len(floats)


def median(values: Sequence[float]) -> float:
    """The middle sorted value, or the two middle ones summed and halved
    (``float(numpy.median(values))``); ``nan`` when empty."""
    ordered = sorted(float(value) for value in values)
    n = len(ordered)
    if not n:
        return math.nan
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def k_to_cover(counts: Dict) -> int:
    """Smallest number of top entries covering half of the mass.

    This is the paper's "X ASes host 50% of nodes" statistic.
    """
    if not counts:
        raise AnalysisError("empty counts")
    ordered = sorted(counts.values(), reverse=True)
    total = sum(ordered)
    target = total * 0.5
    acc = 0.0
    for index, value in enumerate(ordered, start=1):
        acc += value
        if acc >= target:
            return index
    return len(ordered)
