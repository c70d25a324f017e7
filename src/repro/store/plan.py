"""One resumable work-unit runner over the run store.

Every long measurement in the reproduction is a campaign cut into
*units* — daily snapshots, sweep cells — and is meant to be run
"stored": keyed by content, checkpointed per unit, resumable after a
kill, a cache hit once complete.  A
:class:`StoredPlan` *describes* such a campaign (its config, its unit
body, how units fold into a result); :func:`run_stored` *executes* one
against a :class:`~repro.store.runstore.RunStore`.  There are two plan
classes over this one runner: the crawl campaign
(:class:`~repro.store.campaign.CampaignPlan`) and the Fig. 1 condition
sweep (:class:`~repro.core.condition_sweep.ConditionSweepPlan`), which
every attack, variant, chaos and churn sweep is.

What the store holds for a run:

* one **unit blob** per completed unit — the unit's output, kind
  ``plan.unit_kind``, meta ``{"index": i}`` — recorded in the manifest
  as a :class:`~repro.store.manifest.SnapshotRecord`;
* for a *state-carrying* plan (``state_kind`` set) one **state blob**
  — the live object the next unit continues from, pointed at by
  ``manifest.checkpoint`` while the run is partial.  Each unit's state
  blob replaces the previous one: once the manifest naming the new one
  is saved, the old one is deleted;
* one **result blob** once every unit is done, and beside it one plain
  blob per **view** — whatever :meth:`StoredPlan.views` renders of the
  result (a summary, a CSV), recorded as ``manifest.views`` in the same
  manifest write that marks the run complete.  A reader serves a view's
  bytes as they are; it never has to unpickle the result to show it.

The last unit's manifest write *is* that completion write, and it
clears ``manifest.checkpoint``: no reader resumes a complete run, so it
pins no state, and the last state blob is deleted with it.  A crash
between a manifest save and its delete leaves one orphan for
``store gc``.

Resume therefore has two modes.  A state-carrying plan reloads its
state blob and runs the remaining units on it; a stateless plan keeps
nothing but its outputs, so its earlier units are reloaded from their
unit blobs and handed to :meth:`StoredPlan.finish` beside the new ones.
Neither re-runs a completed unit, and neither re-pickles earlier
outputs into later blobs.  Every checkpoint — unit, state and result —
is written by :meth:`RunStore.put_checkpoint
<repro.store.runstore.RunStore.put_checkpoint>`, which streams the
pickle to disk: a write holds the pickler's memo, never the payload.

Crash injection for tests/CI: ``REPRO_CRASH_AFTER_UNIT=k`` hard-exits
the process (``os._exit``) right after unit ``k``'s blobs and manifest
are durable — the honest moral equivalent of ``kill -9`` at the worst
allowed moment.  After the last unit that is once the run is complete.

This module imports nothing from :mod:`repro.core`, so plan classes
there can import it at module level.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import CheckpointError, ConfigurationError, StoreError
from .checkpoint import load_checkpoint, read_header
from .manifest import (
    STATUS_COMPLETE,
    STATUS_RUNNING,
    CheckpointRecord,
    RunManifest,
    SnapshotRecord,
    code_version,
    run_key,
)
from .runstore import RunStore
from .wallclock import now as wall_now

#: Test/CI hook: hard-exit after this unit index is durably stored.
CRASH_ENV = "REPRO_CRASH_AFTER_UNIT"
CRASH_EXIT_CODE = 42


class StoredPlan:
    """A campaign as an ordered list of units the store can checkpoint.

    Subclasses set the class attributes, ``seed`` and ``units`` (the
    unit count), and validate their arguments in ``__init__`` — a plan
    that constructs is a plan that can run, so the stored and unstored
    entry points share one validation.
    """

    #: Manifest ``kind``, run-key ``kind`` and run-id prefix.
    kind: str
    #: Checkpoint kind tag of one unit's output.
    unit_kind: str
    #: Kind tag of the carried state; ``None`` for a stateless plan.
    state_kind: Optional[str] = None
    #: Kind tag and type of the final result.
    result_kind: str
    result_type: type
    #: ``False`` dumps unit and result blobs memo-free (see
    #: :func:`~repro.store.checkpoint.dump_checkpoint`): required of a
    #: stateless plan, whose resumed result mixes unpickled and freshly
    #: built outputs that alias differently than a single-process run's.
    aliasing: bool = True

    seed: int
    units: int

    def config(self) -> Dict[str, Any]:
        """The JSON-able config the run key hashes and the manifest shows."""
        raise NotImplementedError

    def start(self) -> Any:
        """The state unit 0 runs on (``None`` for a stateless plan)."""
        return None

    def run_unit(self, state: Any, index: int) -> Any:
        """Execute unit ``index`` (advancing ``state``); return its output."""
        raise NotImplementedError

    def record(self, index: int, out: Any) -> Dict[str, Any]:
        """Manifest fields of unit ``index``: ``when`` and, optionally,
        ``truncated`` (see :class:`~repro.store.manifest.SnapshotRecord`)."""
        return {"when": float(index)}

    def finish(self, state: Any, outs: List[Any]) -> Any:
        """The result.  ``outs`` is every unit's output for a stateless
        plan; a state-carrying plan reads its state instead (after a
        resume ``outs`` holds only the units this process ran)."""
        raise NotImplementedError

    @cached_property
    def key(self) -> str:
        """The run key: a content hash of kind, config, seed, unit count."""
        return run_key(
            self.kind, self.config(), seed=self.seed, snapshots_total=self.units
        )

    @property
    def run_id(self) -> str:
        """Human-scannable run id derived from the key."""
        return f"{self.kind}-{self.key[:12]}"

    def run(self) -> Any:
        """Execute every unit in this process, storing nothing."""
        state = self.start()
        outs = [self.run_unit(state, index) for index in range(self.units)]
        return self.finish(state, outs)

    @classmethod
    def views(cls, result: Any) -> Dict[str, bytes]:
        """Renderings of ``result`` worth serving, by file name.
        :func:`run_stored` stores them beside the result while it is
        still in memory; a reader holding a manifest without them (an
        older store) calls this on the loaded result instead."""
        return {}

    @classmethod
    def decode_result(cls, data: bytes, run_id: str) -> Any:
        """A result blob's bytes as this plan's result — the one read
        path for stored results: framing, format, kind tag, payload
        digest and type all checked."""
        result = load_checkpoint(data, expect_kind=cls.result_kind)
        if not isinstance(result, cls.result_type):
            raise StoreError(f"run {run_id!r} result blob has wrong type")
        return result

    @classmethod
    def load_result(cls, store: RunStore, manifest: RunManifest) -> Any:
        """The final result of a complete run of this plan."""
        if manifest.result_digest is None:
            raise StoreError(
                f"run {manifest.run_id!r} has no stored result "
                f"(status {manifest.status!r})"
            )
        return cls.decode_result(
            store.get_blob(manifest.result_digest), manifest.run_id
        )


@dataclass
class StoredRun:
    """What a stored run handed back: the result plus its provenance."""

    manifest: RunManifest
    result: Any
    #: True when the result came straight from the store (no simulation).
    cached: bool = False
    #: Units already complete when execution (re)started, if resumed.
    resumed_from: Optional[int] = None


def _load_blob(
    store: RunStore,
    run_id: str,
    digest: str,
    kind: str,
    index_key: str,
    index: int,
) -> Any:
    """A unit or state blob a resume continues from, checked against
    what the manifest says it is.  (``index_key``: unit blobs carry
    their unit as meta ``index``, state blobs as ``snapshot_index`` —
    the names the campaign's blobs have always had, kept so that its
    blobs stay byte-identical.)"""
    data = store.get_blob(digest)
    header = read_header(data)
    if header.get("kind") != kind:
        raise CheckpointError(
            f"cannot resume {run_id!r}: it holds a blob of kind "
            f"{header.get('kind')!r} where this build keeps {kind!r} "
            f"(written under another checkpoint layout; layouts are not "
            f"migrated) — re-run with --force (force=True) to start it over"
        )
    found = header.get("meta", {}).get(index_key)
    if found != index:
        raise StoreError(
            f"run {run_id!r} is inconsistent: the manifest says unit "
            f"{index}, the {kind!r} blob says {found!r}"
        )
    return load_checkpoint(data, expect_kind=kind)


def _restore(
    store: RunStore, plan: StoredPlan, manifest: RunManifest
) -> Tuple[Any, List[Any], int]:
    """What a partial run left behind: ``(state, outs, units done)``."""
    if plan.state_kind is None:
        outs = [
            _load_blob(
                store, manifest.run_id, record.digest, plan.unit_kind,
                "index", index,
            )
            for index, record in enumerate(manifest.snapshots)
        ]
        return None, outs, len(outs)
    checkpoint = manifest.checkpoint
    if checkpoint is None:
        return None, [], 0
    state = _load_blob(
        store, manifest.run_id, checkpoint.digest, plan.state_kind,
        "snapshot_index", checkpoint.snapshot_index,
    )
    return state, [], checkpoint.snapshot_index + 1


def _save(
    store: RunStore,
    manifest: RunManifest,
    superseded: Optional[CheckpointRecord],
) -> None:
    """Save ``manifest``, then delete the state blob it stopped pointing
    at — never one the saved manifest still references."""
    store.save_manifest(manifest)
    if (
        superseded is not None
        and superseded.digest not in manifest.referenced_digests()
    ):
        store.blobs.delete(superseded.digest)


def _crash_after(crash_index: Optional[int], index: int) -> None:
    """The crash hook, once unit ``index`` is durable."""
    if crash_index is not None and index >= crash_index:
        os._exit(CRASH_EXIT_CODE)


def _crash_index() -> Optional[int]:
    raw = os.environ.get(CRASH_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{CRASH_ENV} must be an integer unit index, got {raw!r}"
        ) from None


def run_stored(
    store: Union[RunStore, str, "os.PathLike[str]"],
    plan: StoredPlan,
    resume: Optional[str] = None,
    force: bool = False,
) -> StoredRun:
    """Run (or resume, or fetch) ``plan`` through the store.

    ``store`` may be a :class:`RunStore` or a root path.  Re-invoking a
    partial run's plan against the same store resumes it after its last
    durable unit, and a complete run returns the stored result without
    executing anything.  ``resume`` names an existing run id and fails
    loudly if its key does not match the plan — resuming under a
    different configuration would silently change the experiment.
    ``force=True`` re-executes from unit 0 whatever the store holds.

    A store root the filesystem refuses to write (read-only mount,
    permission denial) surfaces as
    :class:`~repro.errors.ReadOnlyStoreError` rather than a raw
    ``OSError``, so operational callers (the serving layer) can answer
    "temporarily unavailable" instead of "internal error".
    """
    if isinstance(store, (str, os.PathLike)):
        store = RunStore(store)
    crash_index = _crash_index()
    key = plan.key
    run_id = plan.run_id

    manifest: Optional[RunManifest] = None
    if resume is not None:
        manifest = store.load_manifest(resume)
        if manifest.kind != plan.kind:
            raise StoreError(f"run {resume!r} is a {manifest.kind!r} run")
        if manifest.key != key:
            store.refuse_retired_format(manifest)
            raise StoreError(
                f"cannot resume {resume!r}: the supplied config hashes to a "
                f"different run key (config drift between start and resume)"
            )
    elif store.has_run(run_id):
        manifest = store.load_manifest(run_id)

    state: Any = None
    outs: List[Any] = []
    done = 0
    if manifest is not None and not force:
        if manifest.status == STATUS_COMPLETE:
            return StoredRun(
                manifest=manifest,
                result=plan.load_result(store, manifest),
                cached=True,
            )
        state, outs, done = _restore(store, plan, manifest)

    if done:
        manifest.status = STATUS_RUNNING
    else:
        superseded = manifest.checkpoint if manifest is not None else None
        state = plan.start()
        manifest = RunManifest(
            run_id=run_id,
            key=key,
            kind=plan.kind,
            seed=plan.seed,
            snapshots_total=plan.units,
            config=plan.config(),
            status=STATUS_RUNNING,
            code_version=code_version(),
        )
        _save(store, manifest, superseded)

    for index in range(done, plan.units):
        out = plan.run_unit(state, index)
        outs.append(out)
        unit_digest = store.put_checkpoint(
            out,
            kind=plan.unit_kind,
            meta={"index": index},
            aliasing=plan.aliasing,
        )
        manifest.snapshots.append(
            SnapshotRecord(
                index=index, digest=unit_digest, **plan.record(index, out)
            )
        )
        if index == plan.units - 1:
            break  # the completion write below commits the last unit
        superseded = manifest.checkpoint
        if plan.state_kind is not None:
            # Carried state is a live object graph (cyclic: it holds a
            # simulator), so it always pickles with the memo.
            state_digest = store.put_checkpoint(
                state,
                kind=plan.state_kind,
                meta={"snapshot_index": index, "run_id": run_id},
            )
            manifest.checkpoint = CheckpointRecord(
                digest=state_digest, snapshot_index=index
            )
        manifest.updated_at = wall_now()
        _save(store, manifest, superseded)
        _crash_after(crash_index, index)

    result = plan.finish(state, outs)
    # No run-specific metadata in the result blob: equal results must
    # hash equally across runs, so `store diff` can report result
    # agreement, and a cache hit be audited, by digest alone.
    manifest.result_digest = store.put_checkpoint(
        result, kind=plan.result_kind, aliasing=plan.aliasing
    )
    manifest.views = {
        name: store.put_blob(data) for name, data in plan.views(result).items()
    }
    # No reader resumes a complete run, so it pins no state.
    superseded, manifest.checkpoint = manifest.checkpoint, None
    manifest.status = STATUS_COMPLETE
    manifest.updated_at = wall_now()
    _save(store, manifest, superseded)
    if done < plan.units:
        _crash_after(crash_index, plan.units - 1)
    return StoredRun(
        manifest=manifest,
        result=result,
        cached=False,
        resumed_from=done or None,
    )
