"""The protocol-variant lab: variant × churn × fault × fidelity.

The paper's §V evaluates three refinements against the deteriorating
network it measured; the policy registry (:mod:`repro.bitcoin.policy`)
generalizes those refinements into named variants, and this module runs
the cross-product the ROADMAP calls the protocol-variant lab: every
registered variant of interest under every churn level, fault plan,
and fidelity tier, as one supervised multi-seed campaign matrix.

The headline metric is **sync-fraction retention**: the mean Fig.-1
sync percentage at the *highest* churn level divided by the mean at the
*lowest*, per (variant, fault plan, fidelity) group.  A variant that
holds retention near 1.0 keeps the network synchronized under the
churn the paper identifies as the root cause of deterioration.

Persistence mirrors the attack sweeps: :func:`run_stored_variant_matrix`
keys the whole matrix by content hash (campaign config, the *canonical*
policy configs, the axes, the seeds), checkpoints the
partial result after every cell, resumes a killed matrix from the last
completed cell, and returns a cached result for a completed key without
simulating.  Variant identity reaches the key through
``config_to_dict`` of each :class:`~repro.bitcoin.config.PolicyConfig`,
so distinct variants/params can never collide and every legacy-boolean
spelling keys identically to its canonical variant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; store imports are lazy
    from ..store.manifest import RunManifest
    from ..store.runstore import RunStore

from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError, StoreError
from ..faults.plan import FaultPlan
from .parallel import (
    SyncSweepResult,
    _run_sync_config,
    run_multi_seed_supervised,
    seed_range,
)
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

__all__ = [
    "DEFAULT_CHURN_LEVELS",
    "DEFAULT_VARIANTS",
    "KIND_VARIANT_MATRIX",
    "StoredVariantMatrix",
    "VariantCell",
    "VariantMatrixResult",
    "normalize_variants",
    "run_stored_variant_matrix",
    "run_variant_matrix",
    "variant_matrix_key",
]

#: Default variant axis: the §V pair plus the two PAPERS.md variants.
DEFAULT_VARIANTS = (
    "baseline",
    "improved",
    "unreachable-relay",
    "churn-resilient",
)

#: Default churn axis: the compressed 2019-like and 2020-like rates the
#: Fig. 1 reproduction uses (departures per 10 minutes).
DEFAULT_CHURN_LEVELS = (5.0, 15.0)

#: Test/CI hook: hard-exit after this cell index is durably checkpointed.
CRASH_ENV = "REPRO_CRASH_AFTER_CELL"
CRASH_EXIT_CODE = 42

KIND_VARIANT_MATRIX = "variant-matrix"
_CKPT_KIND = "variant-matrix-partial"
_RESULT_KIND = "variant-matrix-result"


def normalize_variants(
    variants: Sequence[Union[str, PolicyConfig]],
) -> List[PolicyConfig]:
    """Accept variant names and/or configs; return canonical configs.

    Construction canonicalizes (and validates) eagerly, so an unknown
    variant name fails here, before any cell runs.
    """
    if not variants:
        raise ConfigurationError("need at least one policy variant")
    normalized: List[PolicyConfig] = []
    for variant in variants:
        if isinstance(variant, PolicyConfig):
            normalized.append(variant)
        else:
            normalized.append(PolicyConfig(variant=variant))
    return normalized


def _fault_label(plan: Optional[FaultPlan], index: int) -> str:
    if plan is None:
        return "none"
    names = sorted({spec.kind for spec in plan.faults})
    tag = "+".join(names) if names else "empty"
    return f"plan{index}:{tag}"


@dataclass
class VariantCell:
    """One matrix cell: a policy variant under one condition, swept."""

    policies: PolicyConfig
    churn_per_10min: float
    fidelity: str
    fault_label: str
    sweep: SyncSweepResult

    @property
    def variant_label(self) -> str:
        return self.policies.label()

    @property
    def mean_sync(self) -> float:
        return self.sweep.mean


@dataclass
class VariantMatrixResult:
    """The full cross-product, cell by cell in axis order."""

    variants: List[PolicyConfig]
    churn_levels: List[float]
    fault_labels: List[str]
    fidelities: List[str]
    cells: List[VariantCell] = field(default_factory=list)

    def cell(
        self,
        policies: PolicyConfig,
        churn: float,
        fault_label: str,
        fidelity: str,
    ) -> Optional[VariantCell]:
        for candidate in self.cells:
            if (
                candidate.policies == policies
                and candidate.churn_per_10min == churn
                and candidate.fault_label == fault_label
                and candidate.fidelity == fidelity
            ):
                return candidate
        return None

    def retention_table(self) -> List[dict]:
        """Sync retention per (variant, fault plan, fidelity) group.

        One row per group: the mean sync at every churn level plus the
        retention ratio (mean at the highest level / mean at the
        lowest).  Groups whose axis has a single churn level report a
        retention of ``None``.
        """
        low = min(self.churn_levels)
        high = max(self.churn_levels)
        rows: List[dict] = []
        for policies in self.variants:
            for fault_label in self.fault_labels:
                for fidelity in self.fidelities:
                    by_churn: Dict[float, float] = {}
                    for churn in self.churn_levels:
                        found = self.cell(
                            policies, churn, fault_label, fidelity
                        )
                        if found is not None and found.sweep.seeds:
                            by_churn[churn] = found.mean_sync
                    if not by_churn:
                        continue
                    retention: Optional[float] = None
                    if (
                        high > low
                        and low in by_churn
                        and high in by_churn
                        and by_churn[low] > 0
                    ):
                        retention = by_churn[high] / by_churn[low]
                    rows.append(
                        {
                            "variant": policies.label(),
                            "faults": fault_label,
                            "fidelity": fidelity,
                            "mean_sync": {
                                f"{churn:g}": by_churn.get(churn)
                                for churn in self.churn_levels
                            },
                            "retention": retention,
                        }
                    )
        return rows


def _axes(
    variants: Sequence[Union[str, PolicyConfig]],
    churn_levels: Sequence[float],
    fault_plans: Sequence[Optional[FaultPlan]],
    fidelities: Sequence[str],
) -> Tuple[List[PolicyConfig], List[float], List[Optional[FaultPlan]], List[str]]:
    policies = normalize_variants(variants)
    if not churn_levels:
        raise ConfigurationError("need at least one churn level")
    if any(level < 0 for level in churn_levels):
        raise ConfigurationError(
            f"churn levels must be >= 0, got {list(churn_levels)}"
        )
    if not fidelities:
        raise ConfigurationError("need at least one fidelity")
    plans = list(fault_plans) if fault_plans else [None]
    for plan in plans:
        if plan is not None:
            plan.validate()
    return policies, [float(level) for level in churn_levels], plans, list(fidelities)


def _cell_conditions(
    policies: List[PolicyConfig],
    churn_levels: List[float],
    fault_plans: List[Optional[FaultPlan]],
    fidelities: List[str],
) -> List[Tuple[PolicyConfig, float, Optional[FaultPlan], str, str]]:
    """The deterministic cell order: variant → churn → fault → fidelity."""
    conditions = []
    for config in policies:
        for churn in churn_levels:
            for index, plan in enumerate(fault_plans):
                for fidelity in fidelities:
                    conditions.append(
                        (config, churn, plan, _fault_label(plan, index), fidelity)
                    )
    return conditions


def _run_cell(
    base: SyncCampaignConfig,
    policies: PolicyConfig,
    churn: float,
    plan: Optional[FaultPlan],
    fault_label: str,
    fidelity: str,
    seeds: Sequence[int],
    workers: Optional[int],
    supervisor: Optional[SupervisorConfig],
) -> VariantCell:
    cell_base = replace(
        base,
        policies=policies,
        churn_per_10min=churn,
        faults=plan,
        fidelity=fidelity,
    )
    tasks = [replace(cell_base, seed=seed) for seed in seeds]
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
            seed for seed, item in zip(seeds, run.results) if item is None
        ],
        retried_seeds=[seeds[position] for position in run.retried_indexes],
    )
    return VariantCell(
        policies=policies,
        churn_per_10min=churn,
        fidelity=fidelity,
        fault_label=fault_label,
        sweep=sweep,
    )


def run_variant_matrix(
    variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
    base: Optional[SyncCampaignConfig] = None,
    churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
    fidelities: Sequence[str] = ("full",),
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> VariantMatrixResult:
    """Run the cross-product unstored (tests, small matrices)."""
    base = base if base is not None else SyncCampaignConfig()
    policies, churns, plans, tiers = _axes(
        variants, churn_levels, fault_plans, fidelities
    )
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    result = VariantMatrixResult(
        variants=policies,
        churn_levels=churns,
        fault_labels=[_fault_label(plan, i) for i, plan in enumerate(plans)],
        fidelities=tiers,
    )
    for config, churn, plan, fault_label, fidelity in _cell_conditions(
        policies, churns, plans, tiers
    ):
        result.cells.append(
            _run_cell(
                base,
                config,
                churn,
                plan,
                fault_label,
                fidelity,
                seeds,
                workers,
                supervisor,
            )
        )
    return result


# ---------------------------------------------------------------------------
# Stored matrices: caching, cell-wise checkpoints, crash-resume
# ---------------------------------------------------------------------------


@dataclass
class StoredVariantMatrix:
    """What a stored matrix handed back: result plus provenance."""

    manifest: "RunManifest"
    result: VariantMatrixResult
    #: True when the result came straight from the store (no simulation).
    cached: bool = False
    #: Cells already complete when execution (re)started.
    resumed_from: Optional[int] = None


def variant_matrix_key(
    base: SyncCampaignConfig,
    variants: Sequence[PolicyConfig],
    churn_levels: Sequence[float],
    fault_plans: Sequence[Optional[FaultPlan]],
    fidelities: Sequence[str],
    seeds: Sequence[int],
) -> str:
    """The run key for a variant-matrix invocation.

    Policy identity enters through ``config_to_dict`` of each canonical
    :class:`PolicyConfig` — ``(variant, params)`` — so two spellings of
    the same behavior share a key and different parameters never do.
    """
    from ..store.manifest import config_to_dict, run_key

    return run_key(
        KIND_VARIANT_MATRIX,
        _matrix_config_dict(
            base, variants, churn_levels, fault_plans, fidelities, seeds
        ),
        seed=base.seed,
        snapshots_total=len(variants)
        * len(churn_levels)
        * max(1, len(fault_plans))
        * len(fidelities),
    )


def _matrix_config_dict(
    base: SyncCampaignConfig,
    variants: Sequence[PolicyConfig],
    churn_levels: Sequence[float],
    fault_plans: Sequence[Optional[FaultPlan]],
    fidelities: Sequence[str],
    seeds: Sequence[int],
) -> dict:
    from ..store.manifest import config_to_dict

    return {
        "campaign": config_to_dict(base),
        "variants": [config_to_dict(config) for config in variants],
        "churn_levels": [float(level) for level in churn_levels],
        "faults": [
            plan.to_dict() if plan is not None else None
            for plan in fault_plans
        ],
        "fidelities": list(fidelities),
        "seeds": [int(seed) for seed in seeds],
    }


def variant_matrix_run_id(key: str) -> str:
    """Human-scannable run id derived from the key."""
    return f"{KIND_VARIANT_MATRIX}-{key[:12]}"


def run_stored_variant_matrix(
    store: Union["RunStore", str],
    variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
    base: Optional[SyncCampaignConfig] = None,
    churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
    fault_plans: Sequence[Optional[FaultPlan]] = (None,),
    fidelities: Sequence[str] = ("full",),
    seeds: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    resume: Optional[str] = None,
    force: bool = False,
) -> StoredVariantMatrix:
    """Run (or resume, or fetch) a variant matrix through the run store.

    Checkpoints the partial result after every cell; re-invoking with
    the same arguments against the same store resumes from the last
    completed cell, and a complete key returns the cached result
    without simulating.  ``resume`` names an existing run id and fails
    loudly on config drift; ``force=True`` re-executes a complete run.
    """
    from ..store.checkpoint import dump_checkpoint, load_checkpoint
    from ..store.manifest import (
        STATUS_COMPLETE,
        STATUS_RUNNING,
        CheckpointRecord,
        RunManifest,
        SnapshotRecord,
        code_version,
    )
    from ..store.runstore import RunStore
    from ..store.wallclock import now as wall_now

    if isinstance(store, (str, os.PathLike)):
        store = RunStore(store)
    base = base if base is not None else SyncCampaignConfig()
    policies, churns, plans, tiers = _axes(
        variants, churn_levels, fault_plans, fidelities
    )
    seeds = list(seeds) if seeds is not None else seed_range(base.seed, 3)
    conditions = _cell_conditions(policies, churns, plans, tiers)
    key = variant_matrix_key(base, policies, churns, plans, tiers, seeds)
    run_id = variant_matrix_run_id(key)

    manifest: Optional[RunManifest] = None
    if resume is not None:
        manifest = store.load_manifest(resume)
        if manifest.kind != KIND_VARIANT_MATRIX:
            raise StoreError(f"run {resume!r} is a {manifest.kind!r} run")
        if manifest.key != key:
            store.refuse_retired_format(manifest)
            raise StoreError(
                f"cannot resume {resume!r}: the supplied config hashes to a "
                f"different run key (config drift between start and resume)"
            )
    elif store.has_run(run_id):
        manifest = store.load_manifest(run_id)

    result: Optional[VariantMatrixResult] = None
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
            if not isinstance(cached, VariantMatrixResult):
                raise StoreError(f"run {run_id!r} result blob has wrong type")
            return StoredVariantMatrix(
                manifest=manifest, result=cached, cached=True
            )
        if manifest.checkpoint is not None and not force:
            partial = load_checkpoint(
                store.get_blob(manifest.checkpoint.digest),
                expect_kind=_CKPT_KIND,
            )
            if not isinstance(partial, VariantMatrixResult):
                raise StoreError(
                    f"run {run_id!r} checkpoint blob has wrong type"
                )
            completed = len(partial.cells)
            if completed != manifest.checkpoint.snapshot_index + 1:
                raise StoreError(
                    f"run {run_id!r} checkpoint is inconsistent: contains "
                    f"{completed} cells, manifest says "
                    f"{manifest.checkpoint.snapshot_index + 1}"
                )
            result = partial
            resumed_from = completed
            manifest.snapshots = manifest.snapshots[:completed]
            manifest.status = STATUS_RUNNING
            manifest.result_digest = None

    if result is None:
        result = VariantMatrixResult(
            variants=policies,
            churn_levels=churns,
            fault_labels=[
                _fault_label(plan, i) for i, plan in enumerate(plans)
            ],
            fidelities=tiers,
        )
        manifest = RunManifest(
            run_id=run_id,
            key=key,
            kind=KIND_VARIANT_MATRIX,
            seed=base.seed,
            snapshots_total=len(conditions),
            config=_matrix_config_dict(
                base, policies, churns, plans, tiers, seeds
            ),
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
                f"{CRASH_ENV} must be an integer cell index, "
                f"got {crash_after!r}"
            ) from None

    start = len(result.cells)
    for index in range(start, len(conditions)):
        config, churn, plan, fault_label, fidelity = conditions[index]
        cell = _run_cell(
            base,
            config,
            churn,
            plan,
            fault_label,
            fidelity,
            seeds,
            workers,
            supervisor,
        )
        result.cells.append(cell)
        # aliasing=False: a matrix resumed mid-axis appends fresh cells
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
            SnapshotRecord(index=index, when=float(index), digest=ckpt_digest)
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
    return StoredVariantMatrix(
        manifest=manifest,
        result=result,
        cached=False,
        resumed_from=resumed_from,
    )
