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

The matrix is a :class:`VariantMatrixPlan` — one unit per cell — so
:func:`run_variant_matrix` (in memory) and
:func:`run_stored_variant_matrix` (keyed, checkpointed per cell,
resumable, a cache hit once complete; see :mod:`repro.store.plan`) share
one validation and one cell body.  The key hashes the campaign config,
the *canonical* policy configs, the axes and the seeds; variant identity
reaches it through ``config_to_dict`` of each
:class:`~repro.bitcoin.config.PolicyConfig`, so distinct variants/params
can never collide and equal behaviors never key apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..store.manifest import config_to_dict
from ..store.plan import StoredPlan, StoredRun, run_stored
from ..store.runstore import RunStore
from .parallel import SyncSweepResult, run_sync_groups, seed_range
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

__all__ = [
    "DEFAULT_CHURN_LEVELS",
    "DEFAULT_VARIANTS",
    "VariantCell",
    "VariantMatrixPlan",
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


class VariantMatrixPlan(StoredPlan):
    """The cross-product, one multi-seed cell per unit, in the
    deterministic order variant → churn → fault → fidelity."""

    kind = "variant-matrix"
    unit_kind = "variant-matrix-cell"
    result_kind = "variant-matrix-result"
    result_type = VariantMatrixResult
    aliasing = False

    def __init__(
        self,
        variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
        base: Optional[SyncCampaignConfig] = None,
        churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
        fault_plans: Sequence[Optional[FaultPlan]] = (None,),
        fidelities: Sequence[str] = ("full",),
        seeds: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        self.variants = normalize_variants(variants)
        if not churn_levels:
            raise ConfigurationError("need at least one churn level")
        if any(level < 0 for level in churn_levels):
            raise ConfigurationError(
                f"churn levels must be >= 0, got {list(churn_levels)}"
            )
        if not fidelities:
            raise ConfigurationError("need at least one fidelity")
        self.fault_plans = list(fault_plans) if fault_plans else [None]
        for plan in self.fault_plans:
            if plan is not None:
                plan.validate()
        self.base = base if base is not None else SyncCampaignConfig()
        self.churn_levels = [float(level) for level in churn_levels]
        self.fidelities = list(fidelities)
        self.seeds = (
            [int(seed) for seed in seeds]
            if seeds is not None
            else seed_range(self.base.seed, 3)
        )
        self.workers = workers
        self.supervisor = supervisor
        self.fault_labels = [
            _fault_label(plan, index)
            for index, plan in enumerate(self.fault_plans)
        ]
        self.conditions = [
            (config, churn, fault, fidelity)
            for config in self.variants
            for churn in self.churn_levels
            for fault in range(len(self.fault_plans))
            for fidelity in self.fidelities
        ]
        self.seed = self.base.seed
        self.units = len(self.conditions)

    def config(self) -> Dict[str, Any]:
        return {
            "campaign": config_to_dict(self.base),
            "variants": [config_to_dict(config) for config in self.variants],
            "churn_levels": self.churn_levels,
            "faults": [
                plan.to_dict() if plan is not None else None
                for plan in self.fault_plans
            ],
            "fidelities": self.fidelities,
            "seeds": self.seeds,
        }

    def run_unit(self, state: None, index: int) -> VariantCell:
        policies, churn, fault, fidelity = self.conditions[index]
        (sweep,) = run_sync_groups(
            [
                replace(
                    self.base,
                    policies=policies,
                    churn_per_10min=churn,
                    faults=self.fault_plans[fault],
                    fidelity=fidelity,
                )
            ],
            self.seeds,
            self.workers,
            self.supervisor,
        )
        return VariantCell(
            policies=policies,
            churn_per_10min=churn,
            fidelity=fidelity,
            fault_label=self.fault_labels[fault],
            sweep=sweep,
        )

    def finish(self, state: None, outs: List[VariantCell]) -> VariantMatrixResult:
        return VariantMatrixResult(
            variants=self.variants,
            churn_levels=self.churn_levels,
            fault_labels=self.fault_labels,
            fidelities=self.fidelities,
            cells=outs,
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
    return VariantMatrixPlan(
        variants, base, churn_levels, fault_plans, fidelities, seeds,
        workers, supervisor,
    ).run()


def variant_matrix_key(
    base: SyncCampaignConfig,
    variants: Sequence[Union[str, PolicyConfig]],
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
    return VariantMatrixPlan(
        variants, base, churn_levels, fault_plans, fidelities, seeds
    ).key


def run_stored_variant_matrix(
    store: Union[RunStore, str],
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
) -> StoredRun:
    """Run (or resume, or fetch) a variant matrix through the run store
    (see :func:`~repro.store.plan.run_stored`)."""
    return run_stored(
        store,
        VariantMatrixPlan(
            variants, base, churn_levels, fault_plans, fidelities, seeds,
            workers, supervisor,
        ),
        resume,
        force,
    )
