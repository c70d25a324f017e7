"""Multi-seed execution across worker processes.

Every experiment in the reproduction is a deterministic function of its
seed, which makes seed-level parallelism trivial to make *exactly*
reproducible: fan the seeds out to worker processes, collect per-seed
results **in seed (input) order**, and merge.  The merged output is
therefore bit-identical to running the same seeds sequentially — there
is a test pinning that.

Execution goes through the :mod:`~repro.core.supervisor` rather than a
bare ``Pool.map``: crashed workers are detected and retried with
backoff, hung workers can be timed out, and a seed that permanently
fails yields a structured :class:`~repro.errors.SeedTaskError` instead
of poisoning the whole campaign.  Two fan-outs live here:
:func:`run_plans` runs one :class:`~repro.store.plan.StoredPlan` per
seed (the crawl campaign of ``repro campaign --seeds N`` and of every
``POST /v1/campaigns``), and :func:`run_sync_groups` runs the Fig. 1
campaigns under every condition sweep
(:mod:`repro.core.condition_sweep`), reporting ``failed_seeds`` /
``retried_seeds`` on its results.

Workers default to the machine's CPU count (capped by the number of
tasks); ``workers=1`` executes inline in this process with no
multiprocessing machinery at all, which is also the fallback used when
only one task is given.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, List, Optional, Sequence, Union

from ..analysis import stats
from ..analysis.kde import DensityEstimate, kde
from ..errors import ConfigurationError
from ..store.plan import StoredPlan, run_stored
from .supervisor import (
    SupervisedRun,
    SupervisorConfig,
    SupervisorEvent,
    run_supervised,
)
from .sync_experiments import (
    SyncCampaignConfig,
    SyncCampaignResult,
    run_sync_campaign,
)


def default_workers(n_tasks: int) -> int:
    """Worker count: the machine's CPUs, capped by tasks, at least 1."""
    return max(1, min(multiprocessing.cpu_count(), n_tasks))


def seed_range(base_seed: int, count: int) -> List[int]:
    """The consecutive seed list ``base_seed .. base_seed+count-1``."""
    if count < 1:
        raise ConfigurationError(f"need at least one seed, got {count}")
    return list(range(base_seed, base_seed + count))


def _run_plan(store_root: Optional[str], plan: StoredPlan) -> Any:
    """One plan's worker body (module-level so it pickles to processes).
    Unstored it returns the result; stored, only ``(cached,
    resumed_from)`` — the result stays in the store, so no worker
    pickles one back to its parent."""
    if store_root is None:
        return plan.run()
    stored = run_stored(store_root, plan)
    return stored.cached, stored.resumed_from


def run_plans(
    plans: Sequence[StoredPlan],
    store: Optional[Union[str, "os.PathLike[str]"]] = None,
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    on_event: Optional[Callable[[SupervisorEvent], None]] = None,
) -> SupervisedRun:
    """Run every plan under supervision, labelled by its seed.

    Without ``store`` each slot of the returned run holds ``plan.run()``.
    With a store root each plan goes through
    :func:`~repro.store.plan.run_stored` there — durable, resumable, a
    cache hit once complete, so a crashed worker's retry resumes from
    the plan's last durable unit — and its slot holds ``(cached,
    resumed_from)``; ``plan.load_result`` reads the result back.
    ``None`` marks a plan that failed permanently.  ``on_event``
    observes each plan's lifecycle
    (:class:`~repro.core.supervisor.SupervisorEvent`) — the serving
    layer's progress stream is fed from exactly this hook.
    """
    plans = list(plans)
    return run_supervised(
        partial(_run_plan, None if store is None else os.fspath(store)),
        plans,
        default_workers(len(plans)) if workers is None else workers,
        config=supervisor,
        labels=[plan.seed for plan in plans],
        on_event=on_event,
    )


# ---------------------------------------------------------------------------
# Fig. 1 synchronization campaigns
# ---------------------------------------------------------------------------
@dataclass
class SyncSweepResult:
    """Multi-seed synchronization campaign, merged in seed order.

    ``seeds``/``per_seed`` hold the campaigns that completed;
    ``failed_seeds`` the seeds the supervisor gave up on (their samples
    are absent from every pooled statistic) and ``retried_seeds`` those
    that needed more than one attempt but completed.
    """

    seeds: List[int]
    per_seed: List[SyncCampaignResult]
    failed_seeds: List[int] = field(default_factory=list)
    retried_seeds: List[int] = field(default_factory=list)

    @property
    def sync_samples(self) -> List[float]:
        """All samples, concatenated in seed order (deterministic merge)."""
        merged: List[float] = []
        for result in self.per_seed:
            merged.extend(result.sync_samples)
        return merged

    @property
    def mean(self) -> float:
        return stats.mean(self.sync_samples)

    @property
    def median(self) -> float:
        return stats.median(self.sync_samples)

    @property
    def sync_departures_per_10min(self) -> float:
        """Mean synchronized-departure rate across seeds."""
        return stats.mean([r.sync_departures_per_10min for r in self.per_seed])

    @property
    def truncated(self) -> bool:
        """True if any seed's campaign was cut short by its event cap."""
        return any(r.truncated for r in self.per_seed)

    @property
    def truncated_seeds(self) -> List[int]:
        """Seeds whose campaigns were cut short (pooled stats are biased)."""
        return [
            seed
            for seed, result in zip(self.seeds, self.per_seed)
            if result.truncated
        ]

    def density(self) -> DensityEstimate:
        """KDE over the pooled samples (a seed-averaged Fig. 1 curve)."""
        return kde(self.sync_samples)


def run_sync_groups(
    bases: Sequence[SyncCampaignConfig],
    seeds: Sequence[int],
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> List[SyncSweepResult]:
    """Run every base config under every seed; one sweep per base.

    All ``len(bases) x len(seeds)`` campaigns share one supervised
    fan-out; results are regrouped per base, each group in seed order.
    Partial mode: a seed that fails permanently is dropped from its
    group's merge and reported on that group's ``failed_seeds`` instead
    of aborting, one that needed a retry on ``retried_seeds``.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    tasks = [replace(base, seed=seed) for base in bases for seed in seeds]
    run = run_supervised(
        run_sync_campaign,
        tasks,
        default_workers(len(tasks)) if workers is None else workers,
        config=supervisor,
        labels=[config.seed for config in tasks],
    )
    sweeps: List[SyncSweepResult] = []
    for low in range(0, len(tasks), len(seeds)):
        high = low + len(seeds)
        chunk = list(zip(seeds, run.results[low:high]))
        sweeps.append(
            SyncSweepResult(
                seeds=[seed for seed, item in chunk if item is not None],
                per_seed=[item for _, item in chunk if item is not None],
                failed_seeds=[seed for seed, item in chunk if item is None],
                retried_seeds=[
                    seeds[position - low]
                    for position in run.retried_indexes
                    if low <= position < high
                ],
            )
        )
    return sweeps
