"""The one resumable work-unit runner (``repro.store.plan``).

Three layers, cheapest first:

* **The runner, fast.**  ``run_stored`` driven by two toy plans that
  simulate nothing — one stateless (resume reloads unit outputs), one
  state-carrying (resume reloads carried state) — through a crash at
  every unit index, ``force``, config drift, wrong kind, wrong result
  type, a manifest that disagrees with its blobs, and a bad hook value.
* **Stores another blob layout wrote.**  A partial sweep whose manifest
  points at blobs of a kind this build does not keep (as the retired
  ``*-partial`` sweep checkpoints were) fails once, by name; a complete
  run of each kind is still a cache hit.  (Runs of the retired
  ``attack-sweep`` / ``variant-matrix`` *kinds* are
  ``tests/test_store.py::TestRetiredFormat``'s.)
* **The flavours, once each.**  Campaign, attack sweep, variant matrix
  and chaos sweep through the same kill → resume → compare-with-fresh
  body, in process and in real subprocesses; and a literal pin of the
  keys and result digests the runner must not move.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import List

import pytest

import hashlib

from repro.adversary.plan import AttackerSpec, AttackPlan
from repro.core import Axis, ConditionSweepPlan, conditions
from repro.core.export import export_campaign_series
from repro.core.pipeline import CampaignResult
from repro.errors import CheckpointError, ConfigurationError, StoreError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.netmodel.scenario import LongitudinalConfig
from repro.store import (
    CRASH_ENV,
    CRASH_EXIT_CODE,
    CampaignPlan,
    CheckpointRecord,
    RunManifest,
    RunStore,
    SnapshotRecord,
    StoredPlan,
    dump_checkpoint,
    load_checkpoint,
    run_stored,
    run_stored_campaign,
)

from .test_adversary import attack_sweep, flood_plan, tiny_campaign as tiny_sync
from .test_variant_lab import matrix

ROOT = Path(__file__).resolve().parent.parent


class _Killed(Exception):
    """Stands in for the hard exit of the crash hook."""


def _kill(code):
    raise _Killed(code)


# ---------------------------------------------------------------------------
# Two toy plans that simulate nothing
# ---------------------------------------------------------------------------


@dataclass
class ToyResult:
    outs: List[dict]
    total: int = 0


@dataclass
class ToyState:
    total: int = 0
    history: List[int] = field(default_factory=list)


class StatelessToy(StoredPlan):
    """Unit ``i`` yields ``i * i``.  Every output references one shared
    label object, as sweep levels share their plan: a fresh run aliases
    it, a resumed run (outputs reloaded from separate blobs) does not.
    ``copies=True`` un-shares it inside a unit too, as results handed
    back by worker processes are."""

    kind = "toy"
    unit_kind = "toy-unit"
    result_kind = "toy-result"
    result_type = ToyResult
    aliasing = False

    def __init__(self, units=4, offset=0, seed=3, copies=False):
        self.units, self.offset, self.seed = units, offset, seed
        self.label = ("toy", "label")
        self.copies = copies
        self.ran: List[int] = []

    def config(self):
        return {"units": self.units, "offset": self.offset}

    def run_unit(self, state, index):
        self.ran.append(index)
        echo = tuple(list(self.label)) if self.copies else self.label
        return {
            "square": index * index + self.offset,
            "label": self.label,
            "echo": echo,
        }

    def finish(self, state, outs):
        return ToyResult(outs=outs, total=sum(out["square"] for out in outs))

    @classmethod
    def views(cls, result):
        return {"total.txt": b"%d\n" % result.total}


class CarryingToy(StatelessToy):
    """The same units, but the running total lives in carried state."""

    kind = "toy-carrying"
    state_kind = "toy-state"
    aliasing = True

    def start(self):
        return ToyState()

    def run_unit(self, state, index):
        out = super().run_unit(state, index)
        state.total += out["square"]
        state.history.append(index)
        return out

    def finish(self, state, outs):
        assert state.history == list(range(self.units))
        return ToyResult(outs=[], total=state.total)


TOYS = [StatelessToy, CarryingToy]


def _digests(manifest):
    return (
        [record.digest for record in manifest.snapshots],
        manifest.checkpoint.digest if manifest.checkpoint else None,
        manifest.result_digest,
    )


@pytest.fixture
def crash_hook(monkeypatch):
    """Arm the hook for one call; ``os._exit`` raises instead."""
    monkeypatch.setattr(os, "_exit", _kill)
    monkeypatch.delenv(CRASH_ENV, raising=False)

    def killed(value, call):
        monkeypatch.setenv(CRASH_ENV, str(value))
        try:
            with pytest.raises(_Killed) as excinfo:
                call()
        finally:
            monkeypatch.delenv(CRASH_ENV)
        assert excinfo.value.args == (CRASH_EXIT_CODE,)

    return killed


class TestRunStored:
    @pytest.mark.parametrize("toy", TOYS)
    @pytest.mark.parametrize("crash_after", [0, 1, 2, 3])
    def test_crash_at_every_unit_then_resume_equals_fresh(
        self, tmp_path, crash_hook, toy, crash_after
    ):
        fresh = run_stored(tmp_path / "fresh", toy())
        assert fresh.resumed_from is None and not fresh.cached

        killed = toy()
        crash_hook(
            crash_after, lambda: run_stored(tmp_path / "killed", killed)
        )
        assert killed.ran == list(range(crash_after + 1))
        partial = RunStore(tmp_path / "killed").load_manifest(killed.run_id)
        assert partial.status == "running" and partial.result_digest is None
        assert partial.completed_snapshots == crash_after + 1
        assert (partial.checkpoint is not None) == (toy is CarryingToy)
        assert partial.views == {}  # written with the result, not before

        survivor = toy()
        resumed = run_stored(tmp_path / "killed", survivor)
        # no completed unit runs twice (after the last one, none at all)
        assert survivor.ran == list(range(crash_after + 1, 4))
        assert resumed.resumed_from == crash_after + 1 and not resumed.cached
        assert resumed.result == fresh.result
        assert resumed.manifest.status == "complete"
        # equal results must hash equally: every unit blob, the carried
        # state after the last unit, and the result
        assert _digests(resumed.manifest) == _digests(fresh.manifest)
        # and so must what a reader is served
        store = RunStore(tmp_path / "killed")
        assert resumed.manifest.views == fresh.manifest.views
        assert store.load_manifest(killed.run_id).views == fresh.manifest.views
        assert store.get_blob(fresh.manifest.views["total.txt"]) == b"14\n"

    def test_equal_outputs_hash_equally_however_they_alias(self, tmp_path):
        shared = run_stored(tmp_path / "a", StatelessToy()).manifest
        copied = run_stored(tmp_path / "b", StatelessToy(copies=True)).manifest
        assert _digests(shared) == _digests(copied)

    def test_unstored_run_is_the_same_plan(self, tmp_path):
        stored = run_stored(tmp_path, StatelessToy())
        assert StatelessToy().run() == stored.result

    @pytest.mark.parametrize("toy", TOYS)
    def test_cache_hit_runs_nothing_and_force_runs_everything(
        self, tmp_path, toy
    ):
        first = run_stored(tmp_path, toy())
        again = toy()
        hit = run_stored(tmp_path, again)
        assert hit.cached and again.ran == []
        assert hit.result == first.result
        assert hit.manifest.run_id == first.manifest.run_id == again.run_id
        forced = toy()
        redone = run_stored(tmp_path, forced, force=True)
        assert not redone.cached and redone.resumed_from is None
        assert forced.ran == [0, 1, 2, 3]
        assert _digests(redone.manifest) == _digests(first.manifest)
        assert redone.manifest.views == first.manifest.views != {}

    def test_gc_follows_the_views(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = run_stored(store, StatelessToy()).manifest
        (view,) = manifest.views.values()
        assert view in manifest.referenced_digests()
        # a live run keeps its views...
        assert store.gc()["removed"] == [] and view in store.blobs
        # ...a deleted one gives them up: counted by a dry run, then gone
        store.delete_run(manifest.run_id)
        dry = store.gc(dry_run=True)
        assert view in dry["removed"] and view in store.blobs
        assert dry["removed_bytes"] == store.blobs.total_bytes()
        assert view in store.gc()["removed"] and view not in store.blobs

    @pytest.mark.parametrize("toy", TOYS)
    def test_force_restarts_a_partial_run(self, tmp_path, crash_hook, toy):
        crash_hook(1, lambda: run_stored(tmp_path, toy()))
        forced = toy()
        redone = run_stored(tmp_path, forced, force=True)
        assert forced.ran == [0, 1, 2, 3] and redone.resumed_from is None

    def test_resume_by_name(self, tmp_path, crash_hook):
        killed = StatelessToy()
        crash_hook(0, lambda: run_stored(tmp_path, killed))
        resumed = run_stored(tmp_path, StatelessToy(), resume=killed.run_id)
        assert resumed.resumed_from == 1

    def test_resume_under_a_drifted_config_is_refused(self, tmp_path):
        first = run_stored(tmp_path, StatelessToy())
        with pytest.raises(StoreError, match="config drift"):
            run_stored(
                tmp_path, StatelessToy(offset=1), resume=first.manifest.run_id
            )

    def test_resume_of_another_kind_is_refused(self, tmp_path):
        first = run_stored(tmp_path, StatelessToy())
        with pytest.raises(StoreError, match="is a 'toy' run"):
            run_stored(tmp_path, CarryingToy(), resume=first.manifest.run_id)

    def test_resume_of_a_missing_run_is_refused(self, tmp_path):
        with pytest.raises(StoreError, match="not in store"):
            run_stored(tmp_path, StatelessToy(), resume="toy-000000000000")

    def test_result_blob_of_the_wrong_type_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = run_stored(store, StatelessToy()).manifest
        manifest.result_digest = store.put_blob(
            dump_checkpoint({"not": "a ToyResult"}, kind="toy-result")
        )
        store.save_manifest(manifest)
        with pytest.raises(StoreError, match="wrong type"):
            run_stored(store, StatelessToy())

    def test_result_blob_of_the_wrong_kind_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = run_stored(store, StatelessToy()).manifest
        manifest.result_digest = manifest.snapshots[0].digest
        store.save_manifest(manifest)
        with pytest.raises(CheckpointError, match="'toy-unit'.*'toy-result'"):
            run_stored(store, StatelessToy())

    def test_complete_run_without_a_result_is_refused(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = run_stored(store, StatelessToy()).manifest
        manifest.result_digest = None
        store.save_manifest(manifest)
        with pytest.raises(StoreError, match="no stored result"):
            run_stored(store, StatelessToy())

    def test_unit_blob_that_disagrees_with_the_manifest(
        self, tmp_path, crash_hook
    ):
        store = RunStore(tmp_path)
        killed = StatelessToy()
        crash_hook(1, lambda: run_stored(store, killed))
        manifest = store.load_manifest(killed.run_id)
        first, second = manifest.snapshots
        first.digest, second.digest = second.digest, first.digest
        store.save_manifest(manifest)
        survivor = StatelessToy()
        with pytest.raises(StoreError, match="says unit 0.*says 1"):
            run_stored(store, survivor)
        assert survivor.ran == []

    def test_state_blob_that_disagrees_with_the_manifest(
        self, tmp_path, crash_hook
    ):
        store = RunStore(tmp_path)
        killed = CarryingToy()
        crash_hook(1, lambda: run_stored(store, killed))
        manifest = store.load_manifest(killed.run_id)
        manifest.checkpoint.snapshot_index = 0
        store.save_manifest(manifest)
        survivor = CarryingToy()
        with pytest.raises(StoreError, match="says unit 0.*says 1"):
            run_stored(store, survivor)
        assert survivor.ran == []

    def test_bad_hook_value_fails_before_anything_is_written(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CRASH_ENV, "soon")
        plan = StatelessToy()
        with pytest.raises(ConfigurationError, match=CRASH_ENV):
            run_stored(tmp_path, plan)
        assert plan.ran == [] and RunStore(tmp_path).manifests() == []


# ---------------------------------------------------------------------------
# Stores written under another blob layout
# ---------------------------------------------------------------------------


def tiny_crawl() -> LongitudinalConfig:
    return LongitudinalConfig(seed=13, scale=0.01, snapshots=3, campaign_days=1.0)


def attack_plan(counts=(0, 3), seeds=(7,), flooders=3) -> ConditionSweepPlan:
    return attack_sweep(flood_plan(flooders, 2000), tiny_sync(), counts, seeds)


def variants_plan(churn_levels=(2.0,)) -> ConditionSweepPlan:
    return matrix(["baseline", "improved"], churn_levels)


def chaos_plan() -> ConditionSweepPlan:
    drop = FaultPlan(faults=(FaultSpec(kind="drop", probability=0.3),))
    return ConditionSweepPlan(
        "chaos", conditions(tiny_sync(), Axis.intensity(drop, (0.0, 1.0))), [7],
        workers=1,
    )


def _old_layout_plans():
    """(plan, an empty result of its type) for the three flavours; a
    sweep once checkpointed its whole partial result under
    ``<kind>-partial``."""
    attack, matrix = attack_plan(), variants_plan()
    return {
        "campaign": (CampaignPlan(tiny_crawl()), CampaignResult()),
        "attack-sweep": (attack, attack.finish(None, [])),
        "variant-matrix": (matrix, matrix.finish(None, [])),
    }


def _old_layout_manifest(store, plan, result, complete):
    """What the previous runners left in the store for ``plan``."""
    if plan.state_kind is None:
        partial = store.put_blob(
            dump_checkpoint(
                result, kind=f"{plan.kind}-partial",
                meta={"snapshot_index": 0, "run_id": plan.run_id},
                aliasing=False,
            )
        )
        unit = state = partial
    else:
        unit = store.put_blob(
            dump_checkpoint("a snapshot", kind=plan.unit_kind, meta={"index": 0})
        )
        state = store.put_blob(
            dump_checkpoint(
                "a runner", kind=plan.state_kind,
                meta={"snapshot_index": 0, "run_id": plan.run_id},
            )
        )
    manifest = RunManifest(
        run_id=plan.run_id, key=plan.key, kind=plan.kind, seed=plan.seed,
        snapshots_total=plan.units, config=plan.config(),
        status="complete" if complete else "running",
        snapshots=[SnapshotRecord(index=0, when=0.0, digest=unit)],
        checkpoint=CheckpointRecord(digest=state, snapshot_index=0),
        result_digest=(
            store.put_blob(
                dump_checkpoint(
                    result, kind=plan.result_kind, aliasing=plan.aliasing
                )
            )
            if complete
            else None
        ),
    )
    store.save_manifest(manifest)
    return manifest


class TestPreviousLayout:
    @pytest.mark.parametrize("kind", ["attack-sweep", "variant-matrix"])
    @pytest.mark.parametrize("by_name", [False, True])
    def test_partial_sweep_fails_once_by_name(self, tmp_path, kind, by_name):
        plan, empty = _old_layout_plans()[kind]
        store = RunStore(tmp_path)
        old = _old_layout_manifest(store, plan, empty, complete=False)
        blobs = sorted(store.blobs.digests())
        resume = old.run_id if by_name else None
        for _ in range(2):  # and again: nothing was written or retried
            with pytest.raises(CheckpointError) as excinfo:
                run_stored(store, plan, resume=resume)
            message = str(excinfo.value)
            assert f"'{plan.kind}-partial'" in message
            assert f"'{plan.unit_kind}'" in message
            assert "--force" in message
        assert sorted(store.blobs.digests()) == blobs
        assert store.load_manifest(old.run_id).to_json() == old.to_json()
        # the run stays listed, shown, diffable and kept by gc
        assert list(store.index()) == [old.run_id]
        assert store.index()[old.run_id]["snapshots"] == f"1/{plan.units}"
        assert store.diff(old.run_id, old.run_id)["snapshots_equal"]
        assert store.gc()["removed"] == []

    @pytest.mark.parametrize(
        "kind", ["campaign", "attack-sweep", "variant-matrix"]
    )
    def test_complete_run_is_still_a_cache_hit(self, tmp_path, kind):
        plan, empty = _old_layout_plans()[kind]
        store = RunStore(tmp_path)
        old = _old_layout_manifest(store, plan, empty, complete=True)
        blobs = sorted(store.blobs.digests())
        hit = run_stored(store, plan)
        assert hit.cached and type(hit.result) is plan.result_type
        assert hit.manifest.result_digest == old.result_digest
        assert sorted(store.blobs.digests()) == blobs


# ---------------------------------------------------------------------------
# One validation, stored and unstored
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stored", [False, True])
class TestOneValidation:
    """A plan that cannot run fails in its constructor — the same way
    through either entry point, before any manifest is written."""

    @staticmethod
    def _run(tmp_path, stored, conditions):
        """``conditions()`` through either entry point."""
        run = partial(run_stored, tmp_path) if stored else ConditionSweepPlan.run
        return run(ConditionSweepPlan("sweep", conditions(), [7], workers=1))

    # An empty axis is refused once, by Axis; the ids keep the names
    # these cases had while each builder had its own message.
    @pytest.mark.parametrize(
        "counts, message",
        [
            pytest.param((), "axis 'attackers' has no levels",
                         id="counts0-at least one attacker count"),
            ((-1, 3), "must be >= 0"),
            ((0, 13), "exceed"),  # more reachable attackers than nodes
        ],
    )
    def test_attack_sweep(self, tmp_path, stored, counts, message):
        plan = AttackPlan(
            attackers=(
                AttackerSpec(kind="addr_flooder", count=3, tier="reachable"),
            )
        )
        with pytest.raises(ConfigurationError, match=message):
            self._run(
                tmp_path, stored,
                lambda: conditions(tiny_sync(), Axis.attackers(plan, counts)),
            )
        assert RunStore(tmp_path).manifests() == []

    @pytest.mark.parametrize(
        "axes, message",
        [
            pytest.param(dict(variants=[]), "axis 'variant' has no levels",
                         id="axes0-at least one policy variant"),
            (dict(variants=["no-such-variant"]), "no-such-variant"),
            pytest.param(dict(churn_levels=()), "axis 'churn' has no levels",
                         id="axes2-at least one churn level"),
            (dict(churn_levels=(-1.0,)), "must be >= 0"),
            pytest.param(dict(fidelities=()), "axis 'fidelity' has no levels",
                         id="axes4-at least one fidelity"),
        ],
    )
    def test_variant_matrix(self, tmp_path, stored, axes, message):
        axes = {"variants": ["baseline"], "churn_levels": (2.0,),
                "fidelities": ("hybrid",), **axes}
        with pytest.raises(ValueError, match=message):
            self._run(
                tmp_path, stored,
                lambda: conditions(
                    tiny_sync(), Axis.variant(axes["variants"]),
                    Axis.churn(axes["churn_levels"]), Axis.faults(),
                    Axis.fidelity(axes["fidelities"]),
                ),
            )
        assert RunStore(tmp_path).manifests() == []


def test_negative_attacker_count_never_reaches_a_key():
    """The axis fails, so no plan — and no key — ever exists."""
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        attack_plan(counts=(-1, 3)).key


# ---------------------------------------------------------------------------
# The four flavours: kill, resume, compare with an uninterrupted twin
# ---------------------------------------------------------------------------

#: ``store -> StoredRun``.  The three sweeps are one plan class under
#: three builders; chaos has no ``--store`` flag yet, and needs none to
#: be stored, killed and resumed.
FLAVOURS = {
    "campaign": lambda store: run_stored_campaign(store, tiny_crawl()),
    "attack-sweep": lambda store: run_stored(store, attack_plan()),
    "variant-matrix": lambda store: run_stored(store, variants_plan()),
    "chaos": lambda store: run_stored(store, chaos_plan()),
}


def _assert_resumed_equals_fresh(flavour, tmp_path, run):
    """``run(store_dir, crash_after=None) -> exit code`` executes the
    flavour; kill it after unit 0, resume it, run an uninterrupted twin
    in a second store, and require identical content digests."""
    interrupted = tmp_path / "interrupted"
    uninterrupted = tmp_path / "uninterrupted"

    assert run(interrupted, crash_after=0) == CRASH_EXIT_CODE
    store = RunStore(interrupted)
    (manifest,) = store.manifests()
    assert manifest.status == "running"
    assert manifest.completed_snapshots == 1
    assert manifest.result_digest is None
    blobs_at_kill = len(store.blobs)

    # The same invocation resumes after the last durable unit...
    assert run(interrupted) == 0
    resumed = store.load_manifest(manifest.run_id)
    assert resumed.status == "complete"
    assert resumed.completed_snapshots == resumed.snapshots_total
    assert resumed.snapshots[0] == manifest.snapshots[0]

    # ...and an uninterrupted twin lands on the same content: every
    # unit blob and the result.  (Not the campaign's carried state: a
    # restored runner's later checkpoints are equal in content but not
    # in bytes to a never-restored one's, here as before this runner.)
    assert run(uninterrupted) == 0
    fresh = RunStore(uninterrupted).load_manifest(manifest.run_id)
    units, _, result_digest = _digests(fresh)
    assert _digests(resumed)[0] == units
    assert resumed.result_digest == result_digest
    assert None not in units + [result_digest]
    # What a reader is served is content too: the views a resumed run
    # stored are the uninterrupted run's (none, for a sweep).
    assert manifest.views == {}
    assert resumed.views == fresh.views
    assert sorted(fresh.views) == (
        ["campaign_series.csv", "summary.json"] if flavour == "campaign" else []
    )
    if fresh.checkpoint is None:
        # a stateless plan stores each unit once and nothing else
        assert blobs_at_kill == 1
        assert len(store.blobs) == len(units) + 1

    # Both are now cache hits on equal results.
    again_a = FLAVOURS[flavour](interrupted)
    again_b = FLAVOURS[flavour](uninterrupted)
    assert again_a.cached and again_b.cached
    if flavour == "campaign":
        # the user-facing artifact: byte-identical CSV exports
        path_a = export_campaign_series(again_a.result, tmp_path / "a.csv")
        path_b = export_campaign_series(again_b.result, tmp_path / "b.csv")
        assert path_a.read_bytes() == path_b.read_bytes()
        # ...which is the stored view, byte for byte: one renderer
        assert path_a.read_bytes() == store.get_blob(
            resumed.views["campaign_series.csv"]
        )
    elif flavour == "variant-matrix":
        assert again_a.result.retention_table(
            along="churn"
        ) == again_b.result.retention_table(along="churn")
    else:
        assert (
            again_a.result.degradation_table()
            == again_b.result.degradation_table()
        )


@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_resume_in_process(flavour, tmp_path, monkeypatch):
    """The kill-and-resume pin at tier-1 speed: same store code, the
    crash hook's ``os._exit`` swapped for an exception."""
    monkeypatch.setattr(os, "_exit", _kill)

    def run(store, crash_after=None):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        if crash_after is not None:
            monkeypatch.setenv(CRASH_ENV, str(crash_after))
        try:
            FLAVOURS[flavour](store)
        except _Killed as killed:
            return killed.args[0]
        finally:
            monkeypatch.delenv(CRASH_ENV, raising=False)
        return 0

    _assert_resumed_equals_fresh(flavour, tmp_path, run)


def test_campaign_checkpointed_with_bare_address_tables_resumes(
    tmp_path, crash_hook
):
    """Tables held bare addresses until they held last-seen records, and
    ``CHECKPOINT_FORMAT`` did not move: a partial campaign written back
    then has this run key and must resume to this result.  The old shape
    is rebuilt by hand on the restored runner — every honest table and,
    the one that outlives a snapshot, the flooder's pool."""
    store = RunStore(tmp_path)
    crash_hook(0, lambda: run_stored_campaign(store, tiny_crawl()))
    (manifest,) = store.manifests()
    runner = load_checkpoint(
        store.get_blob(manifest.checkpoint.digest), expect_kind="campaign-runner"
    )
    scenario = runner.scenario
    servers = list(scenario.servers.values()) + scenario.flooders
    assert any(flooder.table for flooder in scenario.flooders)
    for server in servers:
        server.table = [record.addr for record in server.table]
    manifest.checkpoint = CheckpointRecord(
        digest=store.put_blob(
            dump_checkpoint(
                runner,
                kind="campaign-runner",
                meta={"snapshot_index": 0, "run_id": manifest.run_id},
            )
        ),
        snapshot_index=0,
    )
    store.save_manifest(manifest)

    resumed = run_stored_campaign(store, tiny_crawl())
    assert resumed.resumed_from == 1
    units, _, result_digest = _digests(resumed.manifest)
    assert units == _CAMPAIGN_UNITS
    assert result_digest == PINS["campaign"][2]


_CHILD_SCRIPT = """
import sys
from tests.test_stored_plan import FLAVOURS
FLAVOURS[sys.argv[1]](sys.argv[2])
"""


@pytest.mark.slow
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
def test_kill_and_resume(flavour, tmp_path):
    """The acceptance pin: a real ``os._exit`` mid-run in a child
    process (the moral ``kill -9``), resume in a second, compare with a
    third that was never interrupted."""

    def run(store, crash_after=None):
        env = dict(os.environ)
        env.pop(CRASH_ENV, None)
        if crash_after is not None:
            env[CRASH_ENV] = str(crash_after)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, flavour, str(store)],
            env=env, capture_output=True, text=True, timeout=600,
            cwd=str(ROOT),
        )
        if crash_after is None and proc.returncode != 0:
            raise AssertionError(f"child failed: {proc.stderr}")
        return proc.returncode

    _assert_resumed_equals_fresh(flavour, tmp_path, run)


# ---------------------------------------------------------------------------
# Literal pins: what the single runner must not have moved
# ---------------------------------------------------------------------------

#: Key and result digest of three small runs.  The campaign's result
#: digest and unit blobs were computed with the hand-written runner
#: ``run_stored`` replaced (commit 37e6c5e) and have not moved since.
#: The two sweep rows were re-keyed once, when the attack sweep and the
#: variant matrix became condition lists on one ``sync-sweep`` plan (old
#: kind, key and result digest in CHANGES.md).  Every key, the sweeps'
#: result digests and ``_SWEEP_CELLS`` moved once more when an empty
#: plan or policy stopped having a ``None`` spelling (old values in
#: CHANGES.md): the configs changed spelling, and a sweep result embeds
#: its configs; ``_SWEEP_MEASUREMENTS`` is the proof that nothing
#: measured moved.  A run-key payload, a result class's pickled state,
#: ``MANIFEST_FORMAT`` or ``CHECKPOINT_FORMAT`` changing moves these —
#: say so when it does.
PINS = {
    "campaign": (
        lambda store: run_stored_campaign(store, tiny_crawl()),
        "a2890dec5e745add77243e5ce5b44ac53c45cfcb1131b20ca973ebb3c3620897",
        "ea814f3123c231f4bb28c63f0cd2f48792db017a79146d3dadf541a5802b837f",
    ),
    "attack-sweep": (
        lambda store: run_stored(
            store,
            attack_plan(counts=(0, 1, 2, 3, 4), seeds=(7, 8), flooders=4),
        ),
        "ee839c3b189b43c24c4b244f7e0c0e8472ae75e3f725646ba711dd18b2029832",
        "a27023c319cccf8d2f0799ed0d6493d4e33b4b8715bd89113e352101f74dedb0",
    ),
    "variant-matrix": (
        lambda store: run_stored(store, variants_plan(churn_levels=(2.0, 6.0))),
        "b8dd23ca98c5ea373324eb279df7f314fdd56701e59f374e7b63cfc692b33118",
        "b220ba179cf57a2d1709e1dfdf66d61b92953e3cc3b9b8faffe5f08342b8ca89",
    ),
}

#: The campaign's unit blobs and final runner checkpoint are the one
#: place the runner writes what its predecessor wrote, byte for byte.
#: The checkpoint moved three times since (old values in CHANGES.md):
#: the runner's state changed shape — server tables hold shared
#: last-seen records, a stopped server holds none, dead socket pairs
#: are unlinked; then ``Simulator`` state lost its
#: always-``None`` ``perf`` entry; then the scenario's config lost its
#: ``None`` plans and it holds a built ``AddrPolicy`` — while the unit
#: blobs, which are measurements, did not.
_CAMPAIGN_UNITS = [
    "5b03d378a91b08057cf55fd085220ded6988e8802341b26e10589012a95b7315",
    "d1568e950eed3322fe686f7c29f95e264dcfe064c1bc52ff662f63bc363ab027",
    "63c12901e5ee696bef13a845ec14b780997018973367a4cd9de6e6e9f7ca6151",
]
_CAMPAIGN_CHECKPOINT = (
    "3dc1ab33fcd5d48a4143a9b397954fc836a4d13b6f130696a8aaa304f7adf937"
)

#: The campaign's stored views.  The CSV's digest is the sha256 of the
#: file ``export_campaign_series`` wrote for this run at commit 9eccb42,
#: before the CSV was rendered in memory and stored at all; the summary
#: is canonical JSON of the four result-derived ``/result`` fields.
_CAMPAIGN_VIEWS = {
    "campaign_series.csv": (
        "df9a325ac949c0cb95fd09134a99973f02f7bd3db1363e45931d21f1be84cbc5"
    ),
    "summary.json": (
        "4f4b397b5c845dc1fa3095c7f175305136b8835192d2b601d2ca170a16f8d68f"
    ),
}

#: ``sha256(dump_checkpoint(cell.sweep, kind="x", aliasing=False))`` of
#: every cell of the two pinned sweeps.  Each per-seed result carries
#: its config, so these move with a config's spelling; what the cells
#: measured is ``_SWEEP_MEASUREMENTS``.
_SWEEP_CELLS = {
    "attack-sweep": [
        "5c415295efb817a6b9d1ac54bd41904e6f9c523ed30ac92f9bb9098dc153467f",
        "9e52c75797eec5ecc8b7630a80715cebc036cb12e6d68329823e051e095e2f09",
        "d29a9830f763b5a929958651cfd69b2e321ffa1c37a30366b03ec96a1c560221",
        "032377fb68f0cd341c6f282a484fe9ba0584f4baae5753f7ec98f207494c39fa",
        "93fe5ebc748572a31586a1ab9a374b469d912f55b6e27d8fd6b521420fa3e3fe",
    ],
    "variant-matrix": [
        "5deb068194979d0009781fdfbc610dace21d59ea40faba453c30632dc3ab0b21",
        "6fba5d4309897bb0e4a05326070039edca2fa2cff25fd721f4b0b21e5ded027c",
        "330b3c033b4cd4ca8c1cd92b4d56d3f481a75b20ca783611b2909e5073aeb357",
        "b30e2a233b8a7bc485ab72d5598c0648c983851540cdd32b76ea59c84c907a2b",
    ],
}


@pytest.mark.slow
@pytest.mark.parametrize("flavour", sorted(PINS))
def test_keys_and_result_digests_did_not_move(flavour, tmp_path):
    run, key, result_digest = PINS[flavour]
    stored = run(tmp_path)
    manifest = stored.manifest
    assert manifest.key == key
    assert manifest.run_id == f"{manifest.kind}-{key[:12]}"
    assert manifest.result_digest == result_digest
    if flavour == "campaign":
        units, checkpoint, _ = _digests(manifest)
        assert units == _CAMPAIGN_UNITS
        assert checkpoint == _CAMPAIGN_CHECKPOINT
        assert manifest.views == _CAMPAIGN_VIEWS
    else:
        assert manifest.kind == "sync-sweep" and manifest.checkpoint is None
        assert manifest.views == {}
        assert [
            hashlib.sha256(
                dump_checkpoint(cell.sweep, kind="x", aliasing=False)
            ).hexdigest()
            for cell in stored.result.cells
        ] == _SWEEP_CELLS[flavour]


#: What each seed of the two pinned sweeps *measured*, cell by cell:
#: ``_measured(result)`` of every per-seed ``SyncCampaignResult``.  The
#: result embeds its config, so a re-spelled config moves
#: ``_SWEEP_CELLS`` and the result digests; these must not move with it.
_SWEEP_MEASUREMENTS = {
    "attack-sweep": [
        [
            "b338b08e79aba2d889f36782113f02c76c0959eb9d367c03108da0c713706613",
            "2bafefa272380d12947da955a0ffec637b6ec613a914b9ca23f6a46c76c14416",
        ],
        [
            "7d667d5527d2a0b36da2f428a09db3e74db19fbe545379029796fe291cfc4586",
            "8d5ea7670eae7fe7594708836caae1ccee005b933335a5fa8db216e2bbf5da5e",
        ],
        [
            "822c4a9c24151cd1cf1da57e90f2ee215ef1bb44f9554208a17d071ffd379b14",
            "5365f2c5832bbd8d177987df250e205ecaa6dc08134ba864059a151169c55e07",
        ],
        [
            "dee8d36a4f78701fe681ae6ee10ab00792067811f80bb54560ea1478f39b2915",
            "5648cc63edf4f0561b7a1c270967d95ef7f023caa84ea2f025dfedd0b5a03a01",
        ],
        [
            "acd297c6dda8cdf1368a4f1861faa53a20ed1211b65fd7a5c706e56b8cbde92d",
            "4fb0c2711301b121146b5aa4e6413cb96a7e51ae75b5d71719d2ade1d1de8260",
        ],
    ],
    # The tiny world syncs alike under both variants; the pin is that
    # it still does.
    "variant-matrix": [
        ["ecdf2a4f43aa8f7bc61f6b2ced0072bb1fb38d854d5217e5ab228253bfface63"],
        ["021e8e1f6c4008c807489f4aa6667e5fe45712cbe7da622e0e7016fb0c19bf19"],
        ["ecdf2a4f43aa8f7bc61f6b2ced0072bb1fb38d854d5217e5ab228253bfface63"],
        ["021e8e1f6c4008c807489f4aa6667e5fe45712cbe7da622e0e7016fb0c19bf19"],
    ],
}


def _measured(result) -> str:
    """sha256 of one campaign's measurement, without its config."""
    return hashlib.sha256(
        json.dumps(
            [
                result.sync_samples,
                result.sync_departures_per_10min,
                result.total_departures,
                result.truncated,
                result.fault_stats,
                result.attack_stats,
            ],
            sort_keys=True,
        ).encode()
    ).hexdigest()


@pytest.mark.slow
@pytest.mark.parametrize("flavour", sorted(_SWEEP_MEASUREMENTS))
def test_sweep_measurements_did_not_move(flavour, tmp_path):
    stored = PINS[flavour][0](tmp_path)
    assert [
        [_measured(result) for result in cell.sweep.per_seed]
        for cell in stored.result.cells
    ] == _SWEEP_MEASUREMENTS[flavour]
