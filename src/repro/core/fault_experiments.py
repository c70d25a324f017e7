"""Synchronization degradation under injected faults.

The paper measures how Bitcoin synchronization deteriorates under churn;
the resilience literature it builds on (Motlagh et al., arXiv:1803.06559)
asks the sharper question of how *gracefully* sync degrades as network
conditions worsen.  This driver answers it in the simulator: take one
Fig. 1 synchronization campaign and one :class:`~repro.faults.plan.FaultPlan`,
scale the plan across an intensity axis
(:meth:`~repro.faults.plan.FaultPlan.scaled`), run a multi-seed sweep
per intensity level, and report mean sync % per level — intensity 0 is
the clean baseline, so every level's degradation is measured against the
same seeds under the same scenario.

All ``len(intensities) x len(seeds)`` campaigns share one supervised
fan-out (a faulted campaign is exactly the kind of run that can wedge or
die, which is why the fault sweep and the supervised runner ship
together).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from .parallel import SyncSweepResult, run_sync_groups, seed_range
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

#: Default intensity axis: clean baseline to double the plan's magnitudes.
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0, 1.5, 2.0)


@dataclass
class FaultSweepLevel:
    """One intensity level: the scaled plan and its multi-seed sweep."""

    intensity: float
    plan: FaultPlan
    sweep: SyncSweepResult

    @property
    def mean_sync(self) -> float:
        return self.sweep.mean

    @property
    def fault_stats(self) -> dict:
        """Summed injector counters across the level's seeds."""
        totals: dict = {}
        for result in self.sweep.per_seed:
            if result.fault_stats is None:
                continue
            for key, value in result.fault_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals


@dataclass
class FaultSweepResult:
    """Sync-% degradation vs. fault intensity (the chaos Fig. 1)."""

    plan: FaultPlan
    levels: List[FaultSweepLevel] = field(default_factory=list)

    @property
    def intensities(self) -> List[float]:
        return [level.intensity for level in self.levels]

    @property
    def baseline(self) -> Optional[FaultSweepLevel]:
        """The intensity-0 level, when the axis includes one."""
        for level in self.levels:
            if level.intensity == 0:
                return level
        return None

    def degradation_table(self) -> List[dict]:
        """Per-level summary rows: intensity, mean sync, delta vs. baseline."""
        base = self.baseline
        base_mean = base.mean_sync if base is not None else None
        rows = []
        for level in self.levels:
            rows.append(
                {
                    "intensity": level.intensity,
                    "mean_sync": level.mean_sync,
                    "median_sync": float(np.median(level.sweep.sync_samples)),
                    "delta_vs_baseline": (
                        level.mean_sync - base_mean
                        if base_mean is not None
                        else None
                    ),
                    "failed_seeds": list(level.sweep.failed_seeds),
                    "retried_seeds": list(level.sweep.retried_seeds),
                }
            )
        return rows


def run_sync_under_faults(
    plan: FaultPlan,
    base: Optional[SyncCampaignConfig] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> FaultSweepResult:
    """Measure sync-% degradation as ``plan`` scales across intensities."""
    plan.validate()
    if not intensities:
        raise ConfigurationError("need at least one fault intensity")
    base = base if base is not None else SyncCampaignConfig()
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    scaled = [plan.scaled(intensity) for intensity in intensities]
    sweeps = run_sync_groups(
        [replace(base, faults=level) for level in scaled],
        seeds,
        workers,
        supervisor,
    )
    return FaultSweepResult(
        plan=plan,
        levels=[
            FaultSweepLevel(intensity=intensity, plan=level, sweep=sweep)
            for intensity, level, sweep in zip(intensities, scaled, sweeps)
        ],
    )
