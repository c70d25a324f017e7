"""Fig. 1 under conditions: one sweep, a product of axes.

The paper's headline is one measurement — Fig. 1's synchronization
distribution — read under changing conditions: churn doubling (the 2019
vs 2020 contrast), the 73-node ADDR flood, the §V refinements.  Every
extension asks the same question of another axis (fault intensity,
attacker count, policy variant × churn × fault plan × fidelity), so they
are all one program:

* an :class:`Axis` is a name and its levels — each a label and the
  ``SyncCampaignConfig`` fields it overrides; its classmethods are the
  presets the CLI's sweeps use.  :func:`conditions` is the product of
  axes over a base config: one :class:`Condition` (``labels``,
  ``config``) per point;
* a :class:`ConditionSweepPlan` runs a list of them over the same seeds
  (:func:`~repro.core.parallel.run_sync_groups`) and yields one
  :class:`ConditionSweepResult` of :class:`ConditionCell` — the labels
  beside that condition's multi-seed sweep;
* the result pivots two ways, neither knowing which experiment it
  serves: :meth:`~ConditionSweepResult.degradation_table` (one row per
  cell, delta against a baseline cell) and
  :meth:`~ConditionSweepResult.retention_table` (mean at the highest
  level of one numeric axis / mean at its lowest).  A cell with no
  completed seed reads ``None`` in both.

Each refusal lives on the type it guards — an empty axis or an unknown
field in :class:`Axis`, a negative count or intensity in
``AttackPlan.with_total`` / ``FaultPlan.scaled``, the rest in
``SyncCampaignConfig.validate`` via :class:`Condition` — so a condition
list that builds is a sweep that can run.

The plan is a :class:`~repro.store.plan.StoredPlan` (kind
``sync-sweep``, one unit per condition): ``run_stored(store, plan)``
keys it by content, commits each cell as it completes, resumes after a
kill and serves a completed key from the store.  Unstored, every
``condition x seed`` campaign shares **one** supervised fan-out and a
cell keeps what completed; stored, each unit fans out on its own and a
cell that lost a seed is never committed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..adversary.plan import AttackPlan
from ..bitcoin.config import PolicyConfig
from ..errors import ConfigurationError, SupervisionError
from ..faults.plan import FaultPlan
from ..store.manifest import config_to_dict
from ..store.plan import StoredPlan
from .parallel import SyncSweepResult, run_sync_groups
from .supervisor import SupervisorConfig
from .sync_experiments import SyncCampaignConfig

#: Default variant axis: the §V pair plus the two PAPERS.md variants.
DEFAULT_VARIANTS = ("baseline", "improved", "unreachable-relay", "churn-resilient")

#: Default churn axis: the compressed 2019-like and 2020-like rates the
#: Fig. 1 reproduction uses (departures per 10 minutes).
DEFAULT_CHURN_LEVELS = (5.0, 15.0)

_FIELDS = frozenset(f.name for f in fields(SyncCampaignConfig))


@dataclass
class Axis:
    """One axis of a sweep: its name and its ``(label, overrides)``
    levels, in order.  A label is hashed into the run key, so each
    preset casts it one way; overrides name ``SyncCampaignConfig`` fields.
    """

    name: str
    levels: Sequence[Tuple[Any, Dict[str, Any]]]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError(f"axis {self.name!r} has no levels")
        for _, overrides in self.levels:
            for name in overrides:
                if name not in _FIELDS:
                    raise ConfigurationError(
                        f"axis {self.name!r}: SyncCampaignConfig has no "
                        f"field {name!r}"
                    )

    @classmethod
    def year(cls, churn_2019: float = 5.0, churn_2020: float = 14.0) -> "Axis":
        """The Fig. 1 contrast: churn roughly doubled, keeping the
        paper's ~1:2 synchronized-departure ratio (measured rates land
        near its 3.9 and 7.6 per 10 minutes)."""
        return cls("year", [
            ("2019", {"churn_per_10min": churn_2019}),
            ("2020", {"churn_per_10min": churn_2020}),
        ])

    @classmethod
    def intensity(cls, plan: FaultPlan, levels: Sequence[float]) -> "Axis":
        """``plan`` scaled by each level (:meth:`FaultPlan.scaled`);
        intensity 0 is the clean baseline."""
        return cls("intensity", [
            (float(level), {"faults": plan.scaled(level)}) for level in levels
        ])

    @classmethod
    def attackers(cls, plan: AttackPlan, counts: Sequence[int]) -> "Axis":
        """``plan`` rescaled to each count (:meth:`AttackPlan.with_total`);
        count 0 is the clean baseline."""
        return cls("attackers", [
            (int(count), {"attack": plan.with_total(count)}) for count in counts
        ])

    @classmethod
    def condition(
        cls,
        plan: AttackPlan,
        policies: Optional[Union[PolicyConfig, str]] = None,
    ) -> "Axis":
        """What a policy variant's hardening buys back under ``plan``:
        ``clean`` (no attack), ``attacked`` (the full plan under the base
        policies), ``mitigated`` (the full plan under ``policies`` — a
        :class:`PolicyConfig` or a registered variant name; by default
        the §V ``improved`` variant)."""
        if policies is None:
            policies = PolicyConfig.improved()
        elif isinstance(policies, str):
            policies = PolicyConfig(variant=policies)
        return cls("condition", [
            ("clean", {"attack": AttackPlan()}),
            ("attacked", {"attack": plan}),
            ("mitigated", {"attack": plan, "policies": policies}),
        ])

    @classmethod
    def variant(
        cls, variants: Sequence[Union[str, PolicyConfig]] = DEFAULT_VARIANTS
    ) -> "Axis":
        """Variant names and / or :class:`PolicyConfig` objects,
        labelled canonically: equal behaviours share a label and a key."""
        policies = [
            variant if isinstance(variant, PolicyConfig)
            else PolicyConfig(variant=variant)
            for variant in variants
        ]
        return cls("variant", [(p.label(), {"policies": p}) for p in policies])

    @classmethod
    def churn(cls, levels: Sequence[float] = DEFAULT_CHURN_LEVELS) -> "Axis":
        """Churn in departures per 10 minutes (the variant lab's
        headline pivot is ``retention_table(along="churn")``)."""
        return cls("churn", [
            (float(level), {"churn_per_10min": float(level)})
            for level in levels
        ])

    @classmethod
    def faults(cls, plans: Sequence[FaultPlan] = (FaultPlan(),)) -> "Axis":
        """Whole fault plans, labelled ``none`` or ``plan<i>:<kinds>``."""
        return cls("faults", [
            (_fault_label(plan, index), {"faults": plan})
            for index, plan in enumerate(plans)
        ])

    @classmethod
    def fidelity(cls, fidelities: Sequence[str] = ("hybrid",)) -> "Axis":
        """Node-tier fidelities (a light-tier variant under ``full`` is
        refused by :class:`Condition`)."""
        return cls("fidelity", [(f, {"fidelity": f}) for f in fidelities])


def _fault_label(plan: FaultPlan, index: int) -> str:
    if not plan.faults:
        return "none"
    names = sorted({spec.kind for spec in plan.faults})
    return f"plan{index}:{'+'.join(names)}"


@dataclass
class Condition:
    """One point on a sweep's axes: what to call it, what to run."""

    #: Small JSON-able dict, axis name -> this point's value.
    labels: Dict[str, Any]
    config: SyncCampaignConfig

    def __post_init__(self) -> None:
        # A condition that constructs is a condition that can run: a bad
        # plan, size, duration, fidelity or variant fails here, by name.
        self.config.validate()


def conditions(base: SyncCampaignConfig, *axes: Axis) -> List[Condition]:
    """The product of ``axes`` over ``base``, in axis order with the last
    axis varying fastest: one :class:`Condition` per point, labelled by
    axis name, its config ``base`` under every level's overrides."""
    names = [axis.name for axis in axes]
    if len(set(names)) < len(names):
        raise ConfigurationError(f"an axis appears twice in {names}")
    points = []
    for levels in itertools.product(*(axis.levels for axis in axes)):
        overrides = {k: v for _, level in levels for k, v in level.items()}
        points.append(
            Condition(
                {name: label for name, (label, _) in zip(names, levels)},
                replace(base, **overrides),
            )
        )
    return points


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


def _mean(cell: Optional[ConditionCell]) -> Optional[float]:
    """The cell's pooled mean sync; ``None`` with no completed seed."""
    return cell.sweep.mean if cell is not None and cell.sweep.seeds else None


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
        mean's delta against the cell ``baseline`` selects.  Each reads
        ``None`` when its cell (or the baseline's) completed no seed, and
        the delta when no baseline cell ran."""
        base_mean = _mean(self.cell(**baseline)) if baseline else None
        rows = []
        for cell in self.cells:
            mean = _mean(cell)
            rows.append({
                **cell.labels,
                "mean_sync": mean,
                "median_sync": None if mean is None else cell.sweep.median,
                "delta_vs_baseline": (
                    None if mean is None or base_mean is None
                    else mean - base_mean
                ),
                "failed_seeds": list(cell.sweep.failed_seeds),
                "retried_seeds": list(cell.sweep.retried_seeds),
            })
        return rows

    def retention_table(self, along: str) -> List[dict]:
        """Sync retention along one numeric axis.

        One row per group of cells that differ only in ``along``: the
        mean sync at every level of that axis (``None`` for a cell with
        no completed seed) plus the retention ratio (mean at the highest
        level / mean at the lowest).  A group missing either end, with a
        single level, or with a zero denominator reports a retention of
        ``None``; a group with no completed cell has no row.
        """
        levels = self.axis(along)
        if not levels:
            raise ConfigurationError(
                f"sweep {self.name!r} has no axis {along!r}"
            )
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
        # A stored cell is served to every later run: one that lost a
        # seed (a crash, a --seed-timeout hang) must stay uncommitted,
        # so the run stays resumable and a re-run retries just this cell.
        cell = self._cells([self.conditions[index]])[0]
        if cell.sweep.failed_seeds:
            raise SupervisionError(
                f"sweep {self.name!r} cell {cell.tag}: seeds "
                f"{cell.sweep.failed_seeds} failed permanently; the cell "
                f"is not stored — re-run to retry it"
            )
        return cell

    def finish(
        self, state: None, outs: List[ConditionCell]
    ) -> ConditionSweepResult:
        return ConditionSweepResult(name=self.name, cells=outs)
