"""Durable, resumable crawl campaigns on top of the run store.

:func:`run_stored_campaign` wraps :class:`~repro.core.pipeline.CampaignRunner`
with three persistence behaviours the in-memory runner lacks:

* **Checkpointing** — after each snapshot (configurable cadence) the
  whole runner — scenario, simulator event queue, RNG streams, partial
  :class:`~repro.core.pipeline.CampaignResult` — is serialized into the
  content-addressed blob store and the run manifest is updated
  atomically.  A crash at snapshot 40/50 loses at most the snapshot in
  flight.

* **Resume** — ``resume=<run-id>`` (or simply re-invoking with the same
  config against the same store) restores the latest checkpoint and
  executes only the remaining snapshots.  Because the checkpoint pins
  the event queue, clock, and every RNG stream position, the resumed
  run's outputs are bit-identical to an uninterrupted run (pinned by
  test).

* **Caching** — the run key is a content hash of (scenario config,
  campaign config, seed, snapshot count).  Re-running a
  completed key loads the stored result without simulating anything.

Crash injection for tests/CI: setting ``REPRO_CRASH_AFTER_SNAPSHOT=k``
hard-exits the process (``os._exit``) right after snapshot ``k``'s
checkpoint is durably recorded — the honest moral equivalent of
``kill -9`` at the worst allowed moment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from ..core.pipeline import CampaignConfig, CampaignResult, CampaignRunner
from ..errors import ConfigurationError, StoreError
from ..netmodel.scenario import LongitudinalConfig, LongitudinalScenario
from .checkpoint import dump_checkpoint, load_checkpoint
from .manifest import (
    STATUS_COMPLETE,
    STATUS_RUNNING,
    CheckpointRecord,
    RunManifest,
    SnapshotRecord,
    code_version,
    config_to_dict,
    run_key,
)
from .runstore import RunStore
from .wallclock import now as wall_now

#: Test/CI hook: hard-exit after this snapshot index is durably stored.
CRASH_ENV = "REPRO_CRASH_AFTER_SNAPSHOT"
CRASH_EXIT_CODE = 42

KIND_CAMPAIGN = "campaign"
_CKPT_KIND = "campaign-runner"
_SNAP_KIND = "snapshot-result"
_RESULT_KIND = "campaign-result"


@dataclass
class StoredCampaign:
    """What a stored run handed back: the result plus its provenance."""

    manifest: RunManifest
    result: CampaignResult
    #: True when the result came straight from the store (no simulation).
    cached: bool = False
    #: Snapshots already complete when execution (re)started, if resumed.
    resumed_from: Optional[int] = None


def campaign_key(
    config: LongitudinalConfig,
    campaign_config: Optional[CampaignConfig],
    snapshots: Optional[int] = None,
) -> str:
    """The run key for a campaign invocation."""
    campaign_config = (
        campaign_config if campaign_config is not None else CampaignConfig()
    )
    total = snapshots if snapshots is not None else config.snapshots
    return run_key(
        KIND_CAMPAIGN,
        {
            "scenario": config_to_dict(config),
            "campaign": config_to_dict(campaign_config),
        },
        seed=config.seed,
        snapshots_total=total,
    )


def campaign_run_id(key: str) -> str:
    """Human-scannable run id derived from the key."""
    return f"{KIND_CAMPAIGN}-{key[:12]}"


def load_campaign_result(
    store: RunStore, manifest: RunManifest
) -> CampaignResult:
    """The final :class:`CampaignResult` of a complete run."""
    if manifest.result_digest is None:
        raise StoreError(
            f"run {manifest.run_id!r} has no stored result "
            f"(status {manifest.status!r})"
        )
    result = load_checkpoint(
        store.get_blob(manifest.result_digest), expect_kind=_RESULT_KIND
    )
    if not isinstance(result, CampaignResult):
        raise StoreError(f"run {manifest.run_id!r} result blob has wrong type")
    return result


def _restore_runner(store: RunStore, manifest: RunManifest) -> CampaignRunner:
    if manifest.checkpoint is None:
        raise StoreError(
            f"run {manifest.run_id!r} has no checkpoint to resume from"
        )
    runner = load_checkpoint(
        store.get_blob(manifest.checkpoint.digest), expect_kind=_CKPT_KIND
    )
    if not isinstance(runner, CampaignRunner):
        raise StoreError(
            f"run {manifest.run_id!r} checkpoint blob has wrong type"
        )
    completed = len(runner.result.snapshots)
    if completed != manifest.checkpoint.snapshot_index + 1:
        raise StoreError(
            f"run {manifest.run_id!r} checkpoint is inconsistent: contains "
            f"{completed} snapshots, manifest says "
            f"{manifest.checkpoint.snapshot_index + 1}"
        )
    return runner


def run_stored_campaign(
    store: Union[RunStore, str],
    config: LongitudinalConfig,
    campaign_config: Optional[CampaignConfig] = None,
    snapshots: Optional[int] = None,
    resume: Optional[str] = None,
    checkpoint_every: int = 1,
    force: bool = False,
) -> StoredCampaign:
    """Run (or resume, or fetch) a crawl campaign through the store.

    ``store`` may be a :class:`RunStore` or a root path.  ``resume``
    names an existing run id and fails loudly if its key does not match
    the supplied config — resuming under a different configuration would
    silently change the experiment.  ``force=True`` re-executes a
    complete run instead of returning the cached result.

    A store root the filesystem refuses to write (read-only mount,
    permission denial) surfaces as
    :class:`~repro.errors.ReadOnlyStoreError` rather than a raw
    ``OSError``, so operational callers (the serving layer) can answer
    "temporarily unavailable" instead of "internal error".
    """
    if isinstance(store, (str, os.PathLike)):
        store = RunStore(store)
    if checkpoint_every < 1:
        raise StoreError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    campaign_config = (
        campaign_config if campaign_config is not None else CampaignConfig()
    )
    total = snapshots if snapshots is not None else config.snapshots
    key = campaign_key(config, campaign_config, total)
    run_id = campaign_run_id(key)

    manifest: Optional[RunManifest] = None
    if resume is not None:
        manifest = store.load_manifest(resume)
        if manifest.kind != KIND_CAMPAIGN:
            raise StoreError(f"run {resume!r} is a {manifest.kind!r} run")
        if manifest.key != key:
            store.refuse_retired_format(manifest)
            raise StoreError(
                f"cannot resume {resume!r}: the supplied config hashes to a "
                f"different run key (config drift between start and resume)"
            )
    elif store.has_run(run_id):
        manifest = store.load_manifest(run_id)

    runner: Optional[CampaignRunner] = None
    resumed_from: Optional[int] = None
    if manifest is not None:
        if manifest.status == STATUS_COMPLETE and not force:
            return StoredCampaign(
                manifest=manifest,
                result=load_campaign_result(store, manifest),
                cached=True,
            )
        if manifest.checkpoint is not None and not force:
            runner = _restore_runner(store, manifest)
            resumed_from = len(runner.result.snapshots)
            # Records past the checkpoint describe snapshots the restored
            # runner will re-execute; drop them so the manifest never
            # claims work the checkpoint does not contain.
            manifest.snapshots = manifest.snapshots[:resumed_from]
            manifest.status = STATUS_RUNNING
            manifest.result_digest = None

    if runner is None:
        runner = CampaignRunner(LongitudinalScenario(config), campaign_config)
        manifest = RunManifest(
            run_id=run_id,
            key=key,
            kind=KIND_CAMPAIGN,
            seed=config.seed,
            snapshots_total=total,
            config={
                "scenario": config_to_dict(config),
                "campaign": config_to_dict(campaign_config),
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
                f"{CRASH_ENV} must be an integer snapshot index, "
                f"got {crash_after!r}"
            ) from None

    times = runner.scenario.snapshot_times
    start = len(runner.result.snapshots)
    for index in range(start, total):
        snap = runner.run_snapshot(index, times[index])
        snap_digest = store.put_blob(
            dump_checkpoint(snap, kind=_SNAP_KIND, meta={"index": index})
        )
        manifest.snapshots.append(
            SnapshotRecord(
                index=index,
                when=snap.when,
                digest=snap_digest,
                truncated=snap.truncated,
            )
        )
        is_last = index + 1 == total
        if is_last or (index + 1 - start) % checkpoint_every == 0:
            ckpt_digest = store.put_blob(
                dump_checkpoint(
                    runner,
                    kind=_CKPT_KIND,
                    meta={"snapshot_index": index, "run_id": run_id},
                )
            )
            manifest.checkpoint = CheckpointRecord(
                digest=ckpt_digest, snapshot_index=index
            )
        manifest.updated_at = wall_now()
        store.save_manifest(manifest)
        if crash_index is not None and index >= crash_index:
            os._exit(CRASH_EXIT_CODE)

    result = runner.result
    # No run-specific metadata in the result blob: equal results must
    # hash equally across runs, so `store diff` can report
    # result agreement by digest alone.
    manifest.result_digest = store.put_blob(
        dump_checkpoint(result, kind=_RESULT_KIND)
    )
    manifest.status = STATUS_COMPLETE
    manifest.updated_at = wall_now()
    store.save_manifest(manifest)
    return StoredCampaign(
        manifest=manifest,
        result=result,
        cached=False,
        resumed_from=resumed_from,
    )
