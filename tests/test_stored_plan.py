"""The one resumable work-unit runner (``repro.store.plan``).

Three layers, cheapest first:

* **The runner, fast.**  ``run_stored`` driven by two toy plans that
  simulate nothing — one stateless (resume reloads unit outputs), one
  state-carrying (resume reloads carried state) — through a crash at
  every unit index, ``force``, config drift, wrong kind, wrong result
  type, a manifest that disagrees with its blobs, and a bad hook value.
* **Stores a previous layout wrote.**  A partial sweep whose manifest
  points at the retired ``*-partial`` blobs fails once, by name; a
  complete run of each kind is still a cache hit.
* **The flavours, once each.**  Campaign, attack sweep and variant
  matrix through the same kill → resume → compare-with-fresh body, in
  process and in real subprocesses; and a literal pin of the keys and
  result digests the runner must not move.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import List

import pytest

from repro.adversary.plan import AttackerSpec, AttackPlan
from repro.core import (
    AttackSweepPlan,
    VariantMatrixPlan,
    run_attack_sweep,
    run_stored_attack_sweep,
    run_stored_variant_matrix,
    run_variant_matrix,
)
from repro.core.attack_experiments import attack_sweep_key
from repro.core.export import export_campaign_series
from repro.core.pipeline import CampaignResult
from repro.errors import CheckpointError, ConfigurationError, StoreError
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
    run_stored,
    run_stored_campaign,
)

from .test_adversary import flood_plan, tiny_campaign as tiny_sync

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
# Stores written under the previous layout
# ---------------------------------------------------------------------------


def tiny_crawl() -> LongitudinalConfig:
    return LongitudinalConfig(seed=13, scale=0.01, snapshots=3, campaign_days=1.0)


def _old_layout_plans():
    """(plan, an empty result of its type) for the three flavours; the
    sweeps checkpointed their whole partial result under ``*-partial``."""
    attack = AttackSweepPlan(flood_plan(3, 2000), tiny_sync(), (0, 3), [7], workers=1)
    matrix = VariantMatrixPlan(
        ["baseline", "improved"], tiny_sync(), churn_levels=(2.0,),
        fidelities=("hybrid",), seeds=[7], workers=1,
    )
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
            assert f"'{kind}-partial'" in message
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

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((), "at least one attacker count"),
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
        run = (
            partial(run_stored_attack_sweep, tmp_path)
            if stored
            else run_attack_sweep
        )
        with pytest.raises(ConfigurationError, match=message):
            run(plan, tiny_sync(), counts=counts, seeds=[7], workers=1)
        assert RunStore(tmp_path).manifests() == []

    @pytest.mark.parametrize(
        "axes, message",
        [
            (dict(variants=[]), "at least one policy variant"),
            (dict(variants=["no-such-variant"]), "no-such-variant"),
            (dict(churn_levels=()), "at least one churn level"),
            (dict(churn_levels=(-1.0,)), "must be >= 0"),
            (dict(fidelities=()), "at least one fidelity"),
        ],
    )
    def test_variant_matrix(self, tmp_path, stored, axes, message):
        axes = {"variants": ["baseline"], **axes}
        run = (
            partial(run_stored_variant_matrix, tmp_path)
            if stored
            else run_variant_matrix
        )
        with pytest.raises(ValueError, match=message):
            run(base=tiny_sync(), seeds=[7], workers=1, **axes)
        assert RunStore(tmp_path).manifests() == []


def test_negative_attacker_count_never_reaches_a_key():
    with pytest.raises(ConfigurationError, match="must be >= 0"):
        attack_sweep_key(flood_plan(3, 2000), tiny_sync(), (-1, 3), [7])


# ---------------------------------------------------------------------------
# The three flavours: kill, resume, compare with an uninterrupted twin
# ---------------------------------------------------------------------------


def _campaign(store):
    return run_stored_campaign(store, tiny_crawl())


def _attack_sweep(store):
    return run_stored_attack_sweep(
        store, flood_plan(3, 2000), tiny_sync(), counts=(0, 3), seeds=[7], workers=1
    )


def _variant_matrix(store):
    return run_stored_variant_matrix(
        store, ["baseline", "improved"], tiny_sync(), churn_levels=(2.0,),
        fidelities=("hybrid",), seeds=[7], workers=1,
    )


FLAVOURS = {
    "campaign": _campaign,
    "attack-sweep": _attack_sweep,
    "variant-matrix": _variant_matrix,
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
    elif flavour == "attack-sweep":
        assert (
            again_a.result.degradation_table()
            == again_b.result.degradation_table()
        )
    else:
        assert (
            again_a.result.retention_table() == again_b.result.retention_table()
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

#: Key and result digest of three small runs, computed with the three
#: hand-written runners this module's subject replaced (commit 37e6c5e).
#: A run-key payload, a result class's pickled state, ``MANIFEST_FORMAT``
#: or ``CHECKPOINT_FORMAT`` changing moves these — say so when it does.
PINS = {
    "campaign": (
        lambda store: run_stored_campaign(store, tiny_crawl()),
        "a5f1f96a24cfe771c55724ebcf19bb6a8ed1baf396f1105dfd6302bf1758de33",
        "ea814f3123c231f4bb28c63f0cd2f48792db017a79146d3dadf541a5802b837f",
    ),
    "attack-sweep": (
        lambda store: run_stored_attack_sweep(
            store, flood_plan(4, 2000), tiny_sync(),
            counts=(0, 1, 2, 3, 4), seeds=[7, 8], workers=1,
        ),
        "93bd33998de13fe17a668d5b08820727ad19a3a206929664bf047cb9611d25f9",
        "8034b7efb8ec1768d0fa9e5e04b473b9b23c0d76ee75daa3436e453ad43bafe5",
    ),
    "variant-matrix": (
        lambda store: run_stored_variant_matrix(
            store, ["baseline", "improved"], tiny_sync(),
            churn_levels=(2.0, 6.0), fidelities=("hybrid",), seeds=[7],
            workers=1,
        ),
        "0d233acc9534494f74257f1e4537eb9618bb938d3302d8e928e52a7f02d1453c",
        "d0f7a7019e440e2a56facb58a48be41ff5577493620e7ad6a02712c4e76d65dc",
    ),
}

#: The campaign's unit blobs and final runner checkpoint are the one
#: place the runner writes what its predecessor wrote, byte for byte.
_CAMPAIGN_UNITS = [
    "5b03d378a91b08057cf55fd085220ded6988e8802341b26e10589012a95b7315",
    "d1568e950eed3322fe686f7c29f95e264dcfe064c1bc52ff662f63bc363ab027",
    "63c12901e5ee696bef13a845ec14b780997018973367a4cd9de6e6e9f7ca6151",
]
_CAMPAIGN_CHECKPOINT = (
    "ae4f3f0bc748fba5d79ed080a536e329d46fed31464e42cfab7da15c8ab61aa4"
)


@pytest.mark.slow
@pytest.mark.parametrize("flavour", sorted(PINS))
def test_keys_and_result_digests_did_not_move(flavour, tmp_path):
    run, key, result_digest = PINS[flavour]
    manifest = run(tmp_path).manifest
    assert manifest.key == key
    assert manifest.run_id == f"{flavour}-{key[:12]}"
    assert manifest.result_digest == result_digest
    if flavour == "campaign":
        units, checkpoint, _ = _digests(manifest)
        assert units == _CAMPAIGN_UNITS
        assert checkpoint == _CAMPAIGN_CHECKPOINT
    else:
        assert manifest.checkpoint is None
