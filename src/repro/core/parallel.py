"""Multi-seed campaign execution across worker processes.

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
of poisoning the whole campaign.  :func:`run_multi_seed` keeps the old
all-or-nothing contract (it raises
:class:`~repro.errors.CampaignAbortedError` carrying the partial
results); the two sweep mergers here — :func:`run_sync_groups` under
every Fig. 1 condition sweep (:mod:`repro.core.condition_sweep`) and
:func:`run_campaign_sweep` for the crawl campaign — run in partial mode
and report ``failed_seeds`` / ``retried_seeds`` on their results.

Workers default to the machine's CPU count (capped by the number of
seeds) and can be forced with ``workers=`` or the ``REPRO_WORKERS``
environment variable; ``workers=1`` executes inline in this process with
no multiprocessing machinery at all, which is also the fallback used
when only one seed is requested.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, TypeVar

import numpy as np

from ..analysis.kde import DensityEstimate, kde
from ..errors import CampaignAbortedError, ConfigurationError
from ..netmodel.scenario import LongitudinalConfig, LongitudinalScenario
from .pipeline import CampaignConfig, CampaignResult, CampaignRunner
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

T = TypeVar("T")


def default_workers(n_tasks: int) -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else CPUs, capped by tasks.

    Values below 1 clamp to 1 (inline execution); a non-integer
    ``REPRO_WORKERS`` raises :class:`~repro.errors.ConfigurationError`.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            requested = int(env)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_WORKERS must be an integer worker count, "
                f"got {env!r}"
            ) from None
        return max(1, min(requested, n_tasks))
    return max(1, min(multiprocessing.cpu_count(), n_tasks))


def seed_range(base_seed: int, count: int) -> List[int]:
    """The consecutive seed list ``base_seed .. base_seed+count-1``."""
    if count < 1:
        raise ConfigurationError(f"need at least one seed, got {count}")
    return list(range(base_seed, base_seed + count))


def run_multi_seed_supervised(
    task: Callable[[T], object],
    items: Sequence[T],
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    labels: Optional[Sequence[object]] = None,
    on_event: Optional[Callable[[SupervisorEvent], None]] = None,
) -> SupervisedRun:
    """Run ``task(item)`` per item under supervision; never raises per-seed.

    Results come back in input order with ``None`` holes where items
    permanently failed (see :class:`~repro.core.supervisor.SupervisedRun`).
    ``labels`` names the items in failure reports (defaults to the items
    themselves — pass the seed list when items are config objects).
    ``task`` must be picklable (a module-level function or a
    ``functools.partial`` of one) when more than one worker is used.
    ``on_event`` observes per-item lifecycle transitions
    (:class:`~repro.core.supervisor.SupervisorEvent`) — the serving
    layer's progress stream is fed from exactly this hook.
    """
    items = list(items)
    if workers is None:
        workers = default_workers(len(items))
    return run_supervised(
        task, items, workers, config=supervisor, labels=labels,
        on_event=on_event,
    )


def run_multi_seed(
    task: Callable[[int], T],
    seeds: Sequence[int],
    workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> List[T]:
    """Run ``task(seed)`` for every seed; results in seed (input) order.

    The strict variant: if any seed fails permanently (after the
    supervisor's retries), raises
    :class:`~repro.errors.CampaignAbortedError` whose ``partial``
    attribute still carries every completed result.
    """
    run = run_multi_seed_supervised(task, seeds, workers, supervisor)
    if not run.ok:
        raise CampaignAbortedError(
            f"{len(run.failures)} of {len(run.results)} seed(s) failed "
            f"permanently: {run.failed_labels}",
            failures=run.failures,
            partial=run.results,
        )
    return run.results


# ---------------------------------------------------------------------------
# Fig. 1 synchronization campaigns
# ---------------------------------------------------------------------------
def _run_sync_config(config: SyncCampaignConfig) -> SyncCampaignResult:
    return run_sync_campaign(config)


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
        return float(np.mean(self.sync_samples))

    @property
    def median(self) -> float:
        return float(np.median(self.sync_samples))

    @property
    def sync_departures_per_10min(self) -> float:
        """Mean synchronized-departure rate across seeds."""
        return float(
            np.mean([r.sync_departures_per_10min for r in self.per_seed])
        )

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

    def density(self, **kwargs) -> DensityEstimate:
        """KDE over the pooled samples (a seed-averaged Fig. 1 curve)."""
        return kde(self.sync_samples, **kwargs)


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
    run = run_multi_seed_supervised(
        _run_sync_config,
        tasks,
        workers,
        supervisor,
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


# ---------------------------------------------------------------------------
# Fig. 2 crawl campaigns
# ---------------------------------------------------------------------------
def _campaign_worker(
    base: LongitudinalConfig,
    config: Optional[CampaignConfig],
    snapshots: Optional[int],
    store_root: Optional[str],
    seed: int,
) -> CampaignResult:
    seeded = replace(base, seed=seed)
    if store_root is not None:
        # Route through the run store: each seed's campaign becomes a
        # durable, individually resumable run, and re-sweeping the same
        # configs is a per-seed cache hit.  Imported here because
        # ``store.campaign`` imports this package's pipeline module.
        from ..store.campaign import run_stored_campaign

        stored = run_stored_campaign(
            store_root, seeded, campaign_config=config, snapshots=snapshots
        )
        return stored.result
    scenario = LongitudinalScenario(seeded)
    runner = CampaignRunner(scenario, config)
    return runner.run(snapshots=snapshots)


@dataclass
class CampaignSweepResult:
    """Multi-seed crawl campaign, merged in seed order.

    Partial-result reporting mirrors :class:`SyncSweepResult`: seeds the
    supervisor gave up on land in ``failed_seeds``, seeds that needed a
    retry but completed in ``retried_seeds``.
    """

    seeds: List[int]
    per_seed: List[CampaignResult]
    failed_seeds: List[int] = field(default_factory=list)
    retried_seeds: List[int] = field(default_factory=list)

    def mean_over_seeds(self, stat: Callable[[CampaignResult], float]) -> float:
        """Average a per-campaign statistic across seeds."""
        return float(np.mean([stat(result) for result in self.per_seed]))

    def pooled_cumulative_unreachable(self) -> int:
        """Unique unreachable addresses across every seed's campaign."""
        seen = set()
        for result in self.per_seed:
            seen |= result.cumulative_unreachable
        return len(seen)

    @property
    def truncated(self) -> bool:
        """True if any seed's campaign contains a cut-short snapshot."""
        return any(result.truncated for result in self.per_seed)

    @property
    def truncated_seeds(self) -> List[int]:
        """Seeds with at least one truncated snapshot (lower bounds only)."""
        return [
            seed
            for seed, result in zip(self.seeds, self.per_seed)
            if result.truncated
        ]


def run_campaign_sweep(
    base: LongitudinalConfig,
    seeds: Sequence[int],
    config: Optional[CampaignConfig] = None,
    snapshots: Optional[int] = None,
    workers: Optional[int] = None,
    store: Optional[str] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> CampaignSweepResult:
    """Run the Fig. 2 crawl campaign once per seed and merge.

    ``store`` names a run-store root; when given, every per-seed campaign
    is checkpointed there and completed seeds are served from the cache
    on re-runs (the store root travels to workers as a plain path so the
    task stays picklable).  The store also makes supervision cheap: a
    crashed worker's retry resumes from the seed's last checkpoint — and
    a seed that already finished is a pure cache hit — so completed work
    is never recomputed.
    """
    seeds = list(seeds)
    task = partial(
        _campaign_worker,
        base,
        config,
        snapshots,
        os.fspath(store) if store is not None else None,
    )
    run = run_multi_seed_supervised(task, seeds, workers, supervisor)
    kept = [
        (seed, result)
        for seed, result in zip(seeds, run.results)
        if result is not None
    ]
    return CampaignSweepResult(
        seeds=[seed for seed, _ in kept],
        per_seed=[result for _, result in kept],
        failed_seeds=list(run.failed_labels),
        retried_seeds=list(run.retried_labels),
    )
