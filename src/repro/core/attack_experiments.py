"""Synchronization degradation under adversarial attack (Fig. 8 revisit).

The paper observed a live 73-node ADDR-flooding attack and asked what it
did to network synchronization; the adversary suite (``repro.adversary``)
lets the question be answered causally: take one Fig. 1 synchronization
campaign and one :class:`~repro.adversary.plan.AttackPlan`, scale the
plan across an attacker-count axis
(:meth:`~repro.adversary.plan.AttackPlan.with_total`), run a multi-seed
sweep per count, and report mean sync % per count — count 0 is the clean
baseline, so every level's degradation is measured against the same
seeds under the same scenario.

The sweep is an :class:`AttackSweepPlan` — one unit per attacker count —
so :func:`run_attack_sweep` (in memory) and
:func:`run_stored_attack_sweep` (keyed, checkpointed per level,
resumable, a cache hit once complete; see :mod:`repro.store.plan`) share
one validation and one level body.

:func:`compare_mitigations` reruns the attacked campaign under a
hardened policy variant — any name registered with
:mod:`repro.bitcoin.policy` (default the §V ``improved`` variant) — and
reports what the hardening buys back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..adversary.plan import AttackPlan
from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError
from ..store.manifest import config_to_dict
from ..store.plan import StoredPlan, StoredRun, run_stored
from ..store.runstore import RunStore
from .parallel import SyncSweepResult, run_sync_groups, seed_range
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

#: Default attacker-count axis: clean baseline to the paper's 73 nodes.
DEFAULT_COUNTS = (0, 18, 36, 73)


@dataclass
class AttackSweepLevel:
    """One attacker count: the scaled plan and its multi-seed sweep."""

    count: int
    plan: Optional[AttackPlan]
    sweep: SyncSweepResult

    @property
    def mean_sync(self) -> float:
        return self.sweep.mean

    @property
    def attack_stats(self) -> Dict[str, int]:
        """Summed attacker counters across the level's seeds."""
        totals: Dict[str, int] = {}
        for result in self.sweep.per_seed:
            if result.attack_stats is None:
                continue
            for key, value in result.attack_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals


@dataclass
class AttackSweepResult:
    """Sync-% degradation vs. attacker count (the adversarial Fig. 1)."""

    plan: AttackPlan
    levels: List[AttackSweepLevel] = field(default_factory=list)

    @property
    def counts(self) -> List[int]:
        return [level.count for level in self.levels]

    @property
    def baseline(self) -> Optional[AttackSweepLevel]:
        """The count-0 level, when the axis includes one."""
        for level in self.levels:
            if level.count == 0:
                return level
        return None

    def degradation_table(self) -> List[dict]:
        """Per-level summary rows: count, mean sync, delta vs. baseline."""
        base = self.baseline
        base_mean = base.mean_sync if base is not None else None
        rows = []
        for level in self.levels:
            rows.append(
                {
                    "attackers": level.count,
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


def _level_plan(plan: AttackPlan, count: int) -> Optional[AttackPlan]:
    """The plan scaled to ``count`` attackers; ``None`` below one."""
    if count <= 0:
        return None
    return plan.with_total(count)


def _run_level(
    plan: AttackPlan,
    count: int,
    base: SyncCampaignConfig,
    seeds: Sequence[int],
    workers: Optional[int],
    supervisor: Optional[SupervisorConfig],
) -> AttackSweepLevel:
    scaled = _level_plan(plan, count)
    (sweep,) = run_sync_groups(
        [replace(base, attack=scaled)], seeds, workers, supervisor
    )
    return AttackSweepLevel(count=count, plan=scaled, sweep=sweep)


class AttackSweepPlan(StoredPlan):
    """``plan`` scaled across ``counts``, one multi-seed level per count."""

    kind = "attack-sweep"
    unit_kind = "attack-sweep-level"
    result_kind = "attack-sweep-result"
    result_type = AttackSweepResult
    aliasing = False

    def __init__(
        self,
        plan: AttackPlan,
        base: Optional[SyncCampaignConfig] = None,
        counts: Sequence[int] = DEFAULT_COUNTS,
        seeds: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        plan.validate()
        if not counts:
            raise ConfigurationError("need at least one attacker count")
        if any(count < 0 for count in counts):
            raise ConfigurationError(
                f"attacker counts must be >= 0, got {list(counts)}"
            )
        base = base if base is not None else SyncCampaignConfig()
        for count in counts:
            level = _level_plan(plan, count)
            if level is not None:
                level.validate_for(base.n_reachable)
        self.plan = plan
        self.base = base
        self.counts = [int(count) for count in counts]
        self.seeds = (
            [int(seed) for seed in seeds]
            if seeds is not None
            else seed_range(base.seed, 3)
        )
        self.workers = workers
        self.supervisor = supervisor
        self.seed = base.seed
        self.units = len(self.counts)

    def config(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "campaign": config_to_dict(self.base),
            "counts": self.counts,
            "seeds": self.seeds,
        }

    def run_unit(self, state: None, index: int) -> AttackSweepLevel:
        return _run_level(
            self.plan, self.counts[index], self.base, self.seeds,
            self.workers, self.supervisor,
        )

    def record(self, index: int, out: AttackSweepLevel) -> Dict[str, Any]:
        return {"when": float(out.count)}

    def finish(
        self, state: None, outs: List[AttackSweepLevel]
    ) -> AttackSweepResult:
        return AttackSweepResult(plan=self.plan, levels=outs)


def run_attack_sweep(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> AttackSweepResult:
    """Measure sync-% degradation as ``plan`` scales across counts."""
    return AttackSweepPlan(plan, base, counts, seeds, workers, supervisor).run()


def attack_sweep_key(
    plan: AttackPlan,
    base: SyncCampaignConfig,
    counts: Sequence[int],
    seeds: Sequence[int],
) -> str:
    """The run key for an attack-sweep invocation."""
    return AttackSweepPlan(plan, base, counts, seeds).key


def run_stored_attack_sweep(
    store: Union[RunStore, str],
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> StoredRun:
    """Run (or resume, or fetch) an attack sweep through the run store
    (see :func:`~repro.store.plan.run_stored`)."""
    return run_stored(
        store,
        AttackSweepPlan(plan, base, counts, seeds, workers, supervisor),
        resume,
        force,
    )


# ---------------------------------------------------------------------------
# §V mitigation comparison
# ---------------------------------------------------------------------------


@dataclass
class MitigationComparison:
    """Attacked sync under default vs. hardened (§V) node policies."""

    clean: SyncSweepResult
    attacked: SyncSweepResult
    mitigated: SyncSweepResult
    policies: PolicyConfig

    def table(self) -> List[dict]:
        """Three rows: clean baseline, attack, attack + mitigations."""
        base_mean = self.clean.mean
        rows = []
        for label, sweep in (
            ("clean", self.clean),
            ("attacked", self.attacked),
            ("mitigated", self.mitigated),
        ):
            rows.append(
                {
                    "condition": label,
                    "mean_sync": sweep.mean,
                    "median_sync": sweep.median,
                    "delta_vs_clean": sweep.mean - base_mean,
                }
            )
        return rows

    @property
    def recovered(self) -> float:
        """Sync percentage points the mitigations bought back."""
        return self.mitigated.mean - self.attacked.mean


def compare_mitigations(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    seeds: Optional[Sequence[int]] = None,
    policies: Optional[Union[PolicyConfig, str]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> MitigationComparison:
    """Cost a policy variant's hardening against ``plan``'s attack.

    Runs the same seeds three ways — no attack, attack under default
    policies, attack under ``policies`` — and reports the sync
    recovered by hardening.  ``policies`` may be a
    :class:`PolicyConfig` or any registered variant name
    (``repro.bitcoin.policy.variant_names()``); the default is the §V
    ``improved`` variant (tried-only ADDR, 17-day horizon, prioritized
    block relay).
    """
    plan.validate()
    base = base if base is not None else SyncCampaignConfig()
    plan.validate_for(base.n_reachable)
    if policies is None:
        policies = PolicyConfig.improved()
    elif isinstance(policies, str):
        policies = PolicyConfig(variant=policies)
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    clean = _run_level(plan, 0, base, seeds, workers, supervisor).sweep
    attacked = _run_level(
        plan, plan.total_count, base, seeds, workers, supervisor
    ).sweep
    hardened_base = replace(base, policies=policies)
    mitigated = _run_level(
        plan, plan.total_count, hardened_base, seeds, workers, supervisor
    ).sweep
    return MitigationComparison(
        clean=clean, attacked=attacked, mitigated=mitigated, policies=policies
    )
