"""Fig. 1 under conditions: one sweep, five condition lists.

The paper's headline is one measurement — Fig. 1's synchronization
distribution — read under changing conditions: churn doubling (the 2019
vs 2020 contrast), the 73-node ADDR flood, the §V refinements.  Every
extension asks the same question of another axis (fault intensity,
attacker count, policy variant × churn × fault plan × fidelity), so they
are all one program:

* a :class:`Condition` is a point on the axes — ``labels`` names it
  (``{"intensity": 0.5}``, ``{"attackers": 18}``, ``{"year": "2020"}``,
  ``{"variant": ..., "churn": ..., "faults": ..., "fidelity": ...}``),
  ``config`` is the :class:`~repro.core.sync_experiments.SyncCampaignConfig`
  it selects;
* a :class:`ConditionSweepPlan` runs a list of them over the same seeds
  (:func:`~repro.core.parallel.run_sync_groups`) and yields one
  :class:`ConditionSweepResult` of :class:`ConditionCell` — the labels
  beside that condition's multi-seed sweep;
* the result pivots two ways, neither knowing which experiment it
  serves: :meth:`~ConditionSweepResult.degradation_table` (one row per
  cell, delta against a baseline cell) and
  :meth:`~ConditionSweepResult.retention_table` (one row per group of
  cells that differ only along one numeric axis: mean at its highest
  level / mean at its lowest).

What used to be five experiments is five builders that validate their
axis and return the list: :func:`churn_conditions` (Fig. 1 itself),
:func:`fault_conditions` (``repro chaos``), :func:`attack_conditions`
and :func:`mitigation_conditions` (``repro attack``),
:func:`variant_conditions` (``repro variants``).  A builder that
returns is a sweep that can run — a bad axis fails there, before any
campaign does.

The plan is a :class:`~repro.store.plan.StoredPlan` (kind
``sync-sweep``, one unit per condition), so *any* sweep is storable:
``run_stored(store, plan)`` keys it by content, commits each cell as it
completes, resumes after a kill and serves a completed key from the
store.  :meth:`ConditionSweepPlan.run` (unstored) puts every
``condition x seed`` campaign in **one** supervised fan-out; the stored
path fans out once per unit, because a unit must be durable before the
next starts.  That is the only difference between the two, and both
build their cells in :meth:`ConditionSweepPlan._cells`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Union

from ..adversary.plan import AttackPlan
from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..store.manifest import config_to_dict
from ..store.plan import StoredPlan
from .parallel import SyncSweepResult, run_sync_groups
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig, protocol_config

#: Default intensity axis: clean baseline to double the plan's magnitudes.
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0, 1.5, 2.0)

#: Default attacker-count axis: clean baseline to the paper's 73 nodes.
DEFAULT_COUNTS = (0, 18, 36, 73)

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


@dataclass
class Condition:
    """One point on a sweep's axes: what to call it, what to run."""

    #: Small JSON-able dict, axis name -> this point's value.
    labels: Dict[str, Any]
    config: SyncCampaignConfig

    def __post_init__(self) -> None:
        # A condition that constructs is a condition that can run: a bad
        # plan, size, fidelity or variant fails in the builder, by name.
        protocol_config(self.config).validate()


@dataclass
class ConditionCell:
    """One condition's outcome: its labels and its multi-seed sweep."""

    labels: Dict[str, Any]
    sweep: SyncSweepResult

    @property
    def tag(self) -> str:
        """``axis=value`` per label, for log lines."""
        return " ".join(f"{axis}={value}" for axis, value in self.labels.items())

    def totals(self, stats: str) -> Dict[str, int]:
        """A per-campaign counter dict (``"fault_stats"`` or
        ``"attack_stats"``) summed across the cell's seeds."""
        totals: Dict[str, int] = {}
        for result in self.sweep.per_seed:
            for key, value in (getattr(result, stats) or {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals


@dataclass
class ConditionSweepResult:
    """Every cell of one sweep, in condition order."""

    name: str
    cells: List[ConditionCell]

    def cell(self, **labels: Any) -> Optional[ConditionCell]:
        """The first cell carrying every given label, if any."""
        for cell in self.cells:
            if all(cell.labels.get(k) == v for k, v in labels.items()):
                return cell
        return None

    def axis(self, name: str) -> List[Any]:
        """The distinct values of one axis, in first-seen order."""
        values: List[Any] = []
        for cell in self.cells:
            if name in cell.labels and cell.labels[name] not in values:
                values.append(cell.labels[name])
        return values

    def degradation_table(self, **baseline: Any) -> List[dict]:
        """One row per cell: its labels, mean / median sync and the
        mean's delta against the cell ``baseline`` selects (``None``
        when no such cell ran)."""
        base = self.cell(**baseline) if baseline else None
        base_mean = base.sweep.mean if base is not None else None
        return [
            {
                **cell.labels,
                "mean_sync": cell.sweep.mean,
                "median_sync": cell.sweep.median,
                "delta_vs_baseline": (
                    cell.sweep.mean - base_mean
                    if base_mean is not None
                    else None
                ),
                "failed_seeds": list(cell.sweep.failed_seeds),
                "retried_seeds": list(cell.sweep.retried_seeds),
            }
            for cell in self.cells
        ]

    def retention_table(self, along: str) -> List[dict]:
        """Sync retention along one numeric axis.

        One row per group of cells that differ only in ``along``: the
        mean sync at every level of that axis plus the retention ratio
        (mean at the highest level / mean at the lowest).  A group
        missing either end, with a single level, or with a zero
        denominator reports a retention of ``None``.
        """
        levels = self.axis(along)
        low, high = min(levels), max(levels)
        groups: Dict[tuple, dict] = {}
        for cell in self.cells:
            rest = {k: v for k, v in cell.labels.items() if k != along}
            row = groups.setdefault(
                tuple(rest.items()),
                {**rest, "mean_sync": dict.fromkeys(levels)},
            )
            if cell.sweep.seeds:
                row["mean_sync"][cell.labels[along]] = cell.sweep.mean
        rows: List[dict] = []
        for row in groups.values():
            means = row["mean_sync"]
            if all(mean is None for mean in means.values()):
                continue
            retention: Optional[float] = None
            if high > low and means[low] and means[high] is not None:
                retention = means[high] / means[low]
            row["mean_sync"] = {
                f"{level:g}": mean for level, mean in means.items()
            }
            row["retention"] = retention
            rows.append(row)
        return rows


class ConditionSweepPlan(StoredPlan):
    """``conditions`` under ``seeds``, one multi-seed cell per unit."""

    kind = "sync-sweep"
    unit_kind = "sync-sweep-cell"
    result_kind = "sync-sweep-result"
    result_type = ConditionSweepResult
    aliasing = False

    def __init__(
        self,
        name: str,
        conditions: Sequence[Condition],
        seeds: Sequence[int],
        workers: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        if not conditions:
            raise ConfigurationError(f"sweep {name!r} has no conditions")
        if not seeds:
            raise ConfigurationError("need at least one seed")
        self.name = name
        self.conditions = list(conditions)
        self.seeds = [int(seed) for seed in seeds]
        self.workers = workers
        self.supervisor = supervisor
        self.seed = self.seeds[0]
        self.units = len(self.conditions)

    def config(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "conditions": [config_to_dict(c) for c in self.conditions],
            "seeds": self.seeds,
        }

    def _cells(self, conditions: Sequence[Condition]) -> List[ConditionCell]:
        """``conditions x seeds`` in one supervised fan-out."""
        sweeps = run_sync_groups(
            [condition.config for condition in conditions],
            self.seeds,
            self.workers,
            self.supervisor,
        )
        return [
            ConditionCell(labels=dict(condition.labels), sweep=sweep)
            for condition, sweep in zip(conditions, sweeps)
        ]

    def run(self) -> ConditionSweepResult:
        return self.finish(None, self._cells(self.conditions))

    def run_unit(self, state: None, index: int) -> ConditionCell:
        return self._cells([self.conditions[index]])[0]

    def finish(
        self, state: None, outs: List[ConditionCell]
    ) -> ConditionSweepResult:
        return ConditionSweepResult(name=self.name, cells=outs)


# ---------------------------------------------------------------------------
# The five builders
# ---------------------------------------------------------------------------


def _base(base: Optional[SyncCampaignConfig]) -> SyncCampaignConfig:
    return base if base is not None else SyncCampaignConfig()


def churn_conditions(
    base: Optional[SyncCampaignConfig] = None,
    churn_2019: float = 5.0,
    churn_2020: float = 14.0,
) -> List[Condition]:
    """The Fig. 1 contrast: same network, churn roughly doubled.

    The rates keep the paper's ~1:2 synchronized-departure ratio; the
    *measured* synchronized-departure rates land near the paper's 3.9
    and 7.6 per 10 minutes.
    """
    base = _base(base)
    return [
        Condition({"year": year}, replace(base, churn_per_10min=churn))
        for year, churn in (("2019", churn_2019), ("2020", churn_2020))
    ]


def fault_conditions(
    plan: FaultPlan,
    base: Optional[SyncCampaignConfig] = None,
    intensities: Sequence[float] = DEFAULT_INTENSITIES,
) -> List[Condition]:
    """``plan`` scaled across an intensity axis
    (:meth:`~repro.faults.plan.FaultPlan.scaled`); intensity 0 is the
    clean baseline, so degradation is measured against the same seeds
    under the same scenario."""
    plan.validate()
    if not intensities:
        raise ConfigurationError("need at least one fault intensity")
    base = _base(base)
    return [
        Condition(
            {"intensity": float(intensity)},
            replace(base, faults=plan.scaled(intensity)),
        )
        for intensity in intensities
    ]


def attack_conditions(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    counts: Sequence[int] = DEFAULT_COUNTS,
) -> List[Condition]:
    """``plan`` scaled across an attacker-count axis
    (:meth:`~repro.adversary.plan.AttackPlan.with_total`); count 0 is
    the clean baseline."""
    plan.validate()
    if not counts:
        raise ConfigurationError("need at least one attacker count")
    if any(count < 0 for count in counts):
        raise ConfigurationError(
            f"attacker counts must be >= 0, got {list(counts)}"
        )
    base = _base(base)
    return [
        Condition(
            {"attackers": int(count)},
            replace(base, attack=plan.with_total(count)),
        )
        for count in counts
    ]


def mitigation_conditions(
    plan: AttackPlan,
    base: Optional[SyncCampaignConfig] = None,
    policies: Optional[Union[PolicyConfig, str]] = None,
) -> List[Condition]:
    """What a policy variant's hardening buys back under ``plan``.

    Three conditions — ``clean`` (no attack), ``attacked`` (the full
    plan under ``base``'s policies), ``mitigated`` (the full plan under
    ``policies``).  ``policies`` may be a :class:`PolicyConfig` or any
    registered variant name; the default is the §V ``improved`` variant
    (tried-only ADDR, 17-day horizon, prioritized block relay).
    """
    plan.validate()
    base = _base(base)
    if policies is None:
        policies = PolicyConfig.improved()
    elif isinstance(policies, str):
        policies = PolicyConfig(variant=policies)
    attacked = replace(base, attack=plan)
    return [
        Condition({"condition": "clean"}, replace(base, attack=AttackPlan())),
        Condition({"condition": "attacked"}, attacked),
        Condition(
            {"condition": "mitigated"}, replace(attacked, policies=policies)
        ),
    ]


def _fault_label(plan: FaultPlan, index: int) -> str:
    if not plan.faults:
        return "none"
    names = sorted({spec.kind for spec in plan.faults})
    return f"plan{index}:{'+'.join(names)}"


def variant_conditions(
    variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS,
    base: Optional[SyncCampaignConfig] = None,
    churn_levels: Sequence[float] = DEFAULT_CHURN_LEVELS,
    fault_plans: Sequence[FaultPlan] = (FaultPlan(),),
    fidelities: Sequence[str] = ("hybrid",),
) -> List[Condition]:
    """The protocol-variant lab: variant × churn × fault plan × fidelity,
    in that (deterministic) order.

    ``variants`` are registered names and / or :class:`PolicyConfig`
    objects; construction canonicalizes, so an unknown name fails here
    and equal behaviours share a label and a run key.  A variant that
    acts only through the light cloud is rejected under a fidelity that
    builds none (``ProtocolConfig.validate``).  The headline pivot is
    ``retention_table(along="churn")``.
    """
    if not variants:
        raise ConfigurationError("need at least one policy variant")
    configs = [
        variant
        if isinstance(variant, PolicyConfig)
        else PolicyConfig(variant=variant)
        for variant in variants
    ]
    if not churn_levels:
        raise ConfigurationError("need at least one churn level")
    if any(level < 0 for level in churn_levels):
        raise ConfigurationError(
            f"churn levels must be >= 0, got {list(churn_levels)}"
        )
    if not fidelities:
        raise ConfigurationError("need at least one fidelity")
    fault_plans = list(fault_plans) if fault_plans else [FaultPlan()]
    for plan in fault_plans:
        plan.validate()
    base = _base(base)
    return [
        Condition(
            {
                "variant": policies.label(),
                "churn": float(churn),
                "faults": _fault_label(plan, index),
                "fidelity": fidelity,
            },
            replace(
                base,
                policies=policies,
                churn_per_10min=float(churn),
                faults=plan,
                fidelity=fidelity,
            ),
        )
        for policies in configs
        for churn in churn_levels
        for index, plan in enumerate(fault_plans)
        for fidelity in fidelities
    ]
