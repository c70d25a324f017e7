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

Two persistence layers ride on top:

* :func:`run_stored_attack_sweep` runs the sweep through the run store —
  the key is a content hash of (plan, campaign config, counts,
  seeds), a completed key returns the stored result without simulating
  anything, and a partial run checkpoints after every count level so a
  killed sweep resumes from the last completed level.  Setting
  ``REPRO_CRASH_AFTER_LEVEL=k`` hard-exits after level ``k``'s
  checkpoint is durable (the sweep-level analogue of the campaign
  store's crash hook).

* :func:`compare_mitigations` reruns the attacked campaign under a
  hardened policy variant — any name registered with
  :mod:`repro.bitcoin.policy` (default the §V ``improved`` variant) —
  and reports what the hardening buys back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; store imports are lazy
    from ..store.manifest import RunManifest
    from ..store.runstore import RunStore

import numpy as np

from ..adversary.plan import AttackPlan
from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError, StoreError
from .parallel import (
    SyncSweepResult,
    _run_sync_config,
    run_multi_seed_supervised,
    seed_range,
)
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

#: Default attacker-count axis: clean baseline to the paper's 73 nodes.
DEFAULT_COUNTS = (0, 18, 36, 73)

#: Test/CI hook: hard-exit after this count level is durably checkpointed.
CRASH_ENV = "REPRO_CRASH_AFTER_LEVEL"
CRASH_EXIT_CODE = 42

KIND_ATTACK_SWEEP = "attack-sweep"
_CKPT_KIND = "attack-sweep-partial"
_RESULT_KIND = "attack-sweep-result"


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
    tasks = [replace(base, seed=seed, attack=scaled) for seed in seeds]
    run = run_multi_seed_supervised(
        _run_sync_config,
        tasks,
        workers,
        supervisor,
        labels=[config.seed for config in tasks],
    )
    kept = [
        (seed, item)
        for seed, item in zip(seeds, run.results)
        if item is not None
    ]
    sweep = SyncSweepResult(
        seeds=[seed for seed, _ in kept],
        per_seed=[item for _, item in kept],
        failed_seeds=[
            seed
            for seed, item in zip(seeds, run.results)
            if item is None
        ],
        retried_seeds=[seeds[position] for position in run.retried_indexes],
    )
    return AttackSweepLevel(count=count, plan=scaled, sweep=sweep)


def run_attack_sweep(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> AttackSweepResult:
    """Measure sync-% degradation as ``plan`` scales across counts."""
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
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    result = AttackSweepResult(plan=plan)
    for count in counts:
        result.levels.append(
            _run_level(plan, count, base, seeds, workers, supervisor)
        )
    return result


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


# ---------------------------------------------------------------------------
# Stored sweeps: caching, level-wise checkpoints, crash-resume
# ---------------------------------------------------------------------------


@dataclass
class StoredAttackSweep:
    """What a stored sweep handed back: result plus provenance."""

    manifest: "RunManifest"
    result: AttackSweepResult
    #: True when the result came straight from the store (no simulation).
    cached: bool = False
    #: Count levels already complete when execution (re)started.
    resumed_from: Optional[int] = None


def attack_sweep_key(
    plan: AttackPlan,
    base: SyncCampaignConfig,
    counts: Sequence[int],
    seeds: Sequence[int],
) -> str:
    """The run key for an attack-sweep invocation."""
    from ..store.manifest import config_to_dict, run_key

    return run_key(
        KIND_ATTACK_SWEEP,
        {
            "plan": plan.to_dict(),
            "campaign": config_to_dict(base),
            "counts": [int(count) for count in counts],
            "seeds": [int(seed) for seed in seeds],
        },
        seed=base.seed,
        snapshots_total=len(counts),
    )


def attack_sweep_run_id(key: str) -> str:
    """Human-scannable run id derived from the key."""
    return f"{KIND_ATTACK_SWEEP}-{key[:12]}"


def run_stored_attack_sweep(
    store: Union["RunStore", str],
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> StoredAttackSweep:
    """Run (or resume, or fetch) an attack sweep through the run store.

    The sweep checkpoints its partial result after every count level;
    re-invoking with the same arguments against the same store resumes
    from the last completed level, and a complete key returns the cached
    result without simulating.  ``resume`` names an existing run id and
    fails loudly on config drift; ``force=True`` re-executes a complete
    run.
    """
    from ..store.checkpoint import dump_checkpoint, load_checkpoint
    from ..store.manifest import (
        STATUS_COMPLETE,
        STATUS_RUNNING,
        CheckpointRecord,
        RunManifest,
        SnapshotRecord,
        code_version,
        config_to_dict,
    )
    from ..store.runstore import RunStore
    from ..store.wallclock import now as wall_now

    if isinstance(store, (str, os.PathLike)):
        store = RunStore(store)
    plan.validate()
    base = base if base is not None else SyncCampaignConfig()
    if not counts:
        raise ConfigurationError("need at least one attacker count")
    for count in counts:
        level = _level_plan(plan, count)
        if level is not None:
            level.validate_for(base.n_reachable)
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    key = attack_sweep_key(plan, base, counts, seeds)
    run_id = attack_sweep_run_id(key)

    manifest: Optional[RunManifest] = None
    if resume is not None:
        manifest = store.load_manifest(resume)
        if manifest.kind != KIND_ATTACK_SWEEP:
            raise StoreError(f"run {resume!r} is a {manifest.kind!r} run")
        if manifest.key != key:
            store.refuse_retired_format(manifest)
            raise StoreError(
                f"cannot resume {resume!r}: the supplied config hashes to a "
                f"different run key (config drift between start and resume)"
            )
    elif store.has_run(run_id):
        manifest = store.load_manifest(run_id)

    result: Optional[AttackSweepResult] = None
    resumed_from: Optional[int] = None
    if manifest is not None:
        if manifest.status == STATUS_COMPLETE and not force:
            if manifest.result_digest is None:
                raise StoreError(
                    f"run {run_id!r} is complete but has no stored result"
                )
            cached = load_checkpoint(
                store.get_blob(manifest.result_digest),
                expect_kind=_RESULT_KIND,
            )
            if not isinstance(cached, AttackSweepResult):
                raise StoreError(
                    f"run {run_id!r} result blob has wrong type"
                )
            return StoredAttackSweep(
                manifest=manifest, result=cached, cached=True
            )
        if manifest.checkpoint is not None and not force:
            partial = load_checkpoint(
                store.get_blob(manifest.checkpoint.digest),
                expect_kind=_CKPT_KIND,
            )
            if not isinstance(partial, AttackSweepResult):
                raise StoreError(
                    f"run {run_id!r} checkpoint blob has wrong type"
                )
            completed = len(partial.levels)
            if completed != manifest.checkpoint.snapshot_index + 1:
                raise StoreError(
                    f"run {run_id!r} checkpoint is inconsistent: contains "
                    f"{completed} levels, manifest says "
                    f"{manifest.checkpoint.snapshot_index + 1}"
                )
            result = partial
            resumed_from = completed
            manifest.snapshots = manifest.snapshots[:completed]
            manifest.status = STATUS_RUNNING
            manifest.result_digest = None

    if result is None:
        result = AttackSweepResult(plan=plan)
        manifest = RunManifest(
            run_id=run_id,
            key=key,
            kind=KIND_ATTACK_SWEEP,
            seed=base.seed,
            snapshots_total=len(counts),
            config={
                "plan": plan.to_dict(),
                "campaign": config_to_dict(base),
                "counts": [int(count) for count in counts],
                "seeds": [int(seed) for seed in seeds],
            },
            status=STATUS_RUNNING,
            code_version=code_version(),
        )
        store.save_manifest(manifest)

    crash_after = os.environ.get(CRASH_ENV)
    crash_index: Optional[int] = None
    if crash_after is not None:
        try:
            crash_index = int(crash_after)
        except ValueError:
            raise ConfigurationError(
                f"{CRASH_ENV} must be an integer level index, "
                f"got {crash_after!r}"
            ) from None

    start = len(result.levels)
    for index in range(start, len(counts)):
        level = _run_level(
            plan, counts[index], base, seeds, workers, supervisor
        )
        result.levels.append(level)
        # aliasing=False: a sweep resumed mid-axis appends fresh levels
        # onto an unpickled partial result, so its object graph shares
        # substructure differently than a single-process run; the
        # memo-free pickle keeps equal results digest-equal.
        ckpt_digest = store.put_blob(
            dump_checkpoint(
                result,
                kind=_CKPT_KIND,
                meta={"snapshot_index": index, "run_id": run_id},
                aliasing=False,
            )
        )
        manifest.snapshots.append(
            SnapshotRecord(
                index=index, when=float(counts[index]), digest=ckpt_digest
            )
        )
        manifest.checkpoint = CheckpointRecord(
            digest=ckpt_digest, snapshot_index=index
        )
        manifest.updated_at = wall_now()
        store.save_manifest(manifest)
        if crash_index is not None and index >= crash_index:
            os._exit(CRASH_EXIT_CODE)

    # No run-specific metadata in the result blob: equal results must
    # hash equally across runs, so cache hits can be audited by digest.
    manifest.result_digest = store.put_blob(
        dump_checkpoint(result, kind=_RESULT_KIND, aliasing=False)
    )
    manifest.status = STATUS_COMPLETE
    manifest.updated_at = wall_now()
    store.save_manifest(manifest)
    return StoredAttackSweep(
        manifest=manifest,
        result=result,
        cached=False,
        resumed_from=resumed_from,
    )
