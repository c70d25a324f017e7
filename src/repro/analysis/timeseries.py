"""Time-series helpers for snapshot campaigns and live sampling."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..errors import AnalysisError
from ..simnet.simulator import PeriodicTask, Simulator


@dataclass
class Series:
    """A sampled (time, value) series with convenience accessors."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, when: float, value: float) -> None:
        if self.times and when < self.times[-1]:
            raise AnalysisError("series samples must be time-ordered")
        self.times.append(when)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        if not self.values:
            raise AnalysisError("empty series")
        return float(np.mean(self.values))

    def fraction_where(self, predicate: Callable[[float], bool]) -> float:
        if not self.values:
            raise AnalysisError("empty series")
        return sum(1 for v in self.values if predicate(v)) / len(self.values)

    def diffs(self) -> List[float]:
        """First differences of the value sequence."""
        return [
            b - a for a, b in zip(self.values, self.values[1:])
        ]


class Sampler:
    """Samples a callable into a :class:`Series` on a fixed period."""

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        period: float,
        start_delay: Optional[float] = 0.0,
    ) -> None:
        self.series = Series()
        self._probe = probe
        self._sim = sim
        self._task: PeriodicTask = sim.call_every(
            period, self._sample, start_delay=start_delay
        )

    def _sample(self) -> None:
        self.series.append(self._sim.now, float(self._probe()))

    def stop(self) -> None:
        self._task.stop()
