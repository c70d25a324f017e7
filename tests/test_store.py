"""Tests for the run store: blobs, checkpoints, manifests, resume.

The runner itself, and the subprocess kill-and-resume acceptance pin
for all three stored flavours, are in ``tests/test_stored_plan.py``.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.bitcoin.peer import Peer
from repro.core.pipeline import CampaignResult, SnapshotResult
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    SimulationError,
    StoreError,
)
from repro.netmodel.scenario import (
    LongitudinalConfig,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.simnet.simulator import Simulator
from repro.simnet.transport import Socket
from repro.store import (
    CHECKPOINT_FORMAT,
    BlobStore,
    CheckpointRecord,
    RunManifest,
    RunStore,
    SnapshotRecord,
    CRASH_ENV,
    CampaignPlan,
    dump_checkpoint,
    load_checkpoint,
    read_header,
    run_key,
    run_stored,
    run_stored_campaign,
    sha256_hex,
)

from repro.store.runstore import TEMP_FILE_MAX_AGE_S

from .conftest import make_addr, traced_peak
from .reference_pickler import format_1_blob


class TestBlobStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"hello world")
        assert digest == sha256_hex(b"hello world")
        assert store.get(digest) == b"hello world"
        assert digest in store
        assert len(store) == 1

    def test_put_is_idempotent(self, tmp_path):
        store = BlobStore(tmp_path)
        a = store.put(b"data")
        b = store.put(b"data")
        assert a == b
        assert len(store) == 1

    def test_get_missing_raises(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(StoreError):
            store.get("0" * 64)

    def test_corrupt_blob_detected(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"payload")
        path = store._path(digest)
        path.write_bytes(b"tampered")
        with pytest.raises(StoreError):
            store.get(digest)

    def test_delete_and_totals(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = store.put(b"xyz")
        assert store.total_bytes() == 3
        assert store.delete(digest)
        assert digest not in store
        assert not store.delete(digest)


class TestStreamedCheckpoint:
    """``RunStore.put_checkpoint`` streams the pickle into a temp file
    and frames the blob from disk; ``load_checkpoint`` reads the payload
    where it lies."""

    @pytest.mark.parametrize("aliasing", [True, False])
    def test_frames_what_the_bytes_api_frames(self, tmp_path, aliasing):
        store = RunStore(tmp_path)
        shared = ["x"] * 3
        # Large enough that the pickler writes many frames.
        obj = {"a": shared, "b": shared, "n": list(range(100_000))}
        frame = {"kind": "t", "meta": {"index": 1}, "aliasing": aliasing}
        blob = dump_checkpoint(obj, **frame)
        digest = store.put_checkpoint(obj, **frame)
        assert digest == sha256_hex(blob)
        assert store.get_blob(digest) == blob
        assert store.put_checkpoint(obj, **frame) == digest
        assert len(store.blobs) == 1
        assert list(store.blobs.temp_files()) == []

    def test_heals_a_corrupt_blob(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put_checkpoint([1, 2, 3], kind="t")
        store.blobs._path(digest).write_bytes(b"tampered")
        assert store.put_checkpoint([1, 2, 3], kind="t") == digest
        assert load_checkpoint(store.get_blob(digest), expect_kind="t") == [
            1, 2, 3,
        ]

    def test_a_large_bytes_attribute_is_never_copied(self, tmp_path):
        """The pickler hands a large ``bytes`` straight to the hashing
        writer and the file, and the blob is framed from disk in
        chunks.  Framing it in memory copied it twice (the pickle
        buffer, then the joined blob)."""
        state = {"words": os.urandom(8 << 20), "position": 7}
        RunStore(tmp_path / "warm").put_checkpoint([0], kind="t")
        store = RunStore(tmp_path / "store")
        digest, peak = traced_peak(
            lambda: store.put_checkpoint(state, kind="t")
        )
        assert peak < len(state["words"]) // 4, peak
        assert store.blobs.size_bytes(digest) > len(state["words"])

    def test_a_load_holds_no_copy_of_the_payload(self):
        """The loaded ``bytes`` is one payload's worth; a slice of the
        blob to hash and unpickle would be a second."""
        blob = dump_checkpoint({"words": os.urandom(8 << 20)}, kind="t")
        loaded, peak = traced_peak(
            lambda: load_checkpoint(blob, expect_kind="t")
        )
        assert peak < 1.25 * len(loaded["words"]), peak


class TestCheckpointFraming:
    def test_roundtrip(self):
        blob = dump_checkpoint({"a": [1, 2]}, kind="test", meta={"k": 1})
        header = read_header(blob)
        assert header["kind"] == "test"
        assert header["meta"] == {"k": 1}
        assert load_checkpoint(blob, expect_kind="test") == {"a": [1, 2]}

    def test_wrong_kind_rejected(self):
        blob = dump_checkpoint(1, kind="alpha")
        with pytest.raises(CheckpointError):
            load_checkpoint(blob, expect_kind="beta")

    def test_bad_magic_rejected(self):
        blob = dump_checkpoint(1, kind="t")
        with pytest.raises(CheckpointError):
            load_checkpoint(b"NOTMAGIC" + blob[8:])

    def test_truncated_payload_rejected(self):
        blob = dump_checkpoint(list(range(100)), kind="t")
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[:-5])

    def test_flipped_payload_bit_rejected(self):
        blob = bytearray(dump_checkpoint(list(range(100)), kind="t"))
        blob[-1] ^= 0xFF
        with pytest.raises(CheckpointError):
            load_checkpoint(bytes(blob))

    def test_sets_pickle_canonically(self):
        # Equal state, different insertion histories.  The sets are
        # chosen so the histories *provably* iterate differently (two
        # elements colliding in an 8-slot table keep insertion order),
        # else equal bytes would prove nothing about canonical order.
        txs_a, txs_b = _same_set_two_orders(0, 8)
        blocks_a, blocks_b = _same_set_two_orders(1, 9)
        first, second = _colliding_addrs()
        addrs_a, addrs_b = _same_set_two_orders(first, second)

        def peer(txs, blocks):
            sock = Socket(None, make_addr(1), make_addr(2), False, 0.0)
            one = Peer(sock, 0.0)
            one.known_txs = txs
            one.known_blocks = blocks
            return one

        def snap(addrs):
            return SnapshotResult(
                index=0, when=1.0, source_stats=None, connected=addrs,
                dns_only_connected=0, unreachable=set(addrs),
                new_unreachable=0, responsive=set(), new_responsive=0,
                addr_composition=None, detection=None,
            )

        for kind, a, b in (
            ("simulator", peer(txs_a, blocks_a), peer(txs_b, blocks_b)),
            ("snapshot-result", snap(addrs_a), snap(addrs_b)),
            ("campaign-result",
             CampaignResult(cumulative_unreachable=addrs_a),
             CampaignResult(cumulative_unreachable=addrs_b)),
        ):
            blob = dump_checkpoint(a, kind=kind)
            assert blob == dump_checkpoint(b, kind=kind)
            # a snapshot holds its sorted tuples live, a result rebuilds
            # its sets: either way the loaded object writes the same bytes
            loaded = load_checkpoint(blob, expect_kind=kind)
            assert dump_checkpoint(loaded, kind=kind) == blob
        restored = load_checkpoint(
            dump_checkpoint(peer(txs_a, blocks_a), kind="t"), expect_kind="t"
        )
        assert type(restored.known_txs) is set
        assert restored.known_txs == {0, 8}
        assert restored.known_blocks == {1, 9}

    def test_format_1_refused_by_name(self):
        blob = format_1_blob({"a": 1}, kind="t")
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(blob, expect_kind="t")
        assert "format 1" in str(excinfo.value)
        assert f"format {CHECKPOINT_FORMAT}" in str(excinfo.value)
        with pytest.raises(CheckpointError, match="format 1"):
            read_header(blob)


def _same_set_two_orders(first, second):
    """``{first, second}`` built in both insertion orders; asserts the
    two really do iterate differently."""
    a = set()
    a.add(first)
    a.add(second)
    b = set()
    b.add(second)
    b.add(first)
    assert a == b
    assert list(a) != list(b), "these elements do not collide"
    return a, b


def _colliding_addrs():
    """Two NetAddrs landing on the same slot of an 8-slot set table."""
    first = make_addr(0)
    for index in range(1, 64):
        other = make_addr(index)
        if hash(other) & 7 == hash(first) & 7:
            return first, other
    raise AssertionError("no colliding address in 64 tries")


class TestRunKey:
    def test_deterministic_and_sensitive(self):
        base = dict(kind="campaign", config={"x": 1}, seed=3,
                    snapshots_total=5)
        key = run_key(**base)
        assert key == run_key(**base)
        assert key != run_key(**{**base, "seed": 4})
        assert key != run_key(**{**base, "snapshots_total": 6})
        assert key != run_key(**{**base, "config": {"x": 2}})

    def test_checkpoint_format_is_part_of_the_key(self, monkeypatch):
        # A build that cannot read a store's blobs must miss them.
        base = dict(kind="campaign", config={"x": 1}, seed=3,
                    snapshots_total=5)
        key = run_key(**base)
        monkeypatch.setattr("repro.store.manifest.CHECKPOINT_FORMAT", 1)
        assert run_key(**base) != key

    def test_equal_configs_key_equally_on_cli_and_serve_paths(self):
        """Key identity: equal configs share one key, and an HTTP
        submission lands on the key the CLI computes — one cache."""
        from repro.serve.submission import parse_submission

        config = LongitudinalConfig(seed=1, scale=0.002, snapshots=2)
        twin = LongitudinalConfig(seed=1, scale=0.002, snapshots=2)
        key = CampaignPlan(config).key
        assert key == CampaignPlan(twin).key
        assert key != CampaignPlan(
            LongitudinalConfig(seed=2, scale=0.002, snapshots=2)
        ).key
        assert CampaignPlan(config).run_id == f"campaign-{key[:12]}"
        spec = parse_submission(
            {"scenario": {"seed": 1, "scale": 0.002, "snapshots": 2}}
        )
        assert [plan.key for plan in spec.plans] == [key]


#: A manifest exactly as the pre-single-scheduler code wrote it (PR 12's
#: ``RunManifest.to_json``): a top-level ``"engine"`` field, and the
#: scenario config still carrying ``LongitudinalConfig.engine``.
_LEGACY_MANIFEST_JSON = """{
  "checkpoint": {
    "digest": "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee",
    "snapshot_index": 0
  },
  "code_version": "78617f2",
  "config": {
    "campaign": {},
    "scenario": {
      "engine": null,
      "scale": 0.01,
      "seed": 13
    }
  },
  "created_at": 1.0,
  "engine": "@ENGINE@",
  "format": 1,
  "key": "0123456789abcccccccccccccccccccccccccccccccccccccccccccccccccccc",
  "kind": "campaign",
  "result_digest": "@RESULT@",
  "run_id": "campaign-0123456789ab",
  "seed": 13,
  "snapshots": [
    {
      "digest": "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd",
      "index": 0,
      "truncated": false,
      "when": 10.0
    }
  ],
  "snapshots_total": 3,
  "status": "complete",
  "updated_at": 2.0
}
"""


class TestRunStore:
    def _manifest(self, run_id="campaign-abc", key="k1"):
        return RunManifest(
            run_id=run_id, key=key, kind="campaign", seed=1,
            snapshots_total=2, config={"scenario": {}},
        )

    def test_manifest_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = self._manifest()
        manifest.snapshots.append(
            SnapshotRecord(index=0, when=10.0, digest="d" * 64)
        )
        store.save_manifest(manifest)
        loaded = store.load_manifest("campaign-abc")
        assert loaded == manifest
        assert store.has_run("campaign-abc")
        assert store.index()["campaign-abc"]["key"] == "k1"

    def test_index_is_scanned_and_never_written(self, tmp_path):
        """The listing is read from ``runs/``; a commit writes its one
        manifest and nothing beside it."""
        store = RunStore(tmp_path)
        store.save_manifest(self._manifest())
        assert "campaign-abc" in store.index()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["objects", "runs"]
        assert store.delete_run("campaign-abc")
        assert store.index() == {}

    def test_gc_removes_only_unreferenced(self, tmp_path):
        store = RunStore(tmp_path)
        kept = store.put_blob(b"referenced")
        dropped = store.put_blob(b"garbage")
        manifest = self._manifest()
        manifest.snapshots.append(
            SnapshotRecord(index=0, when=1.0, digest=kept)
        )
        store.save_manifest(manifest)
        dry = store.gc(dry_run=True)
        assert dropped in dry["removed"] and kept not in dry["removed"]
        assert dropped in store.blobs  # dry run deletes nothing
        report = store.gc()
        assert report["removed"] == [dropped]
        assert kept in store.blobs and dropped not in store.blobs

    def test_gc_reclaims_stale_temp_files_only(self, tmp_path):
        """A writer killed mid-write leaves its ``.tmp-*`` file behind;
        gc removes one older than any live write, and leaves a fresh
        one to its writer."""
        store = RunStore(tmp_path)
        shard = store.blobs.objects_dir / "ab"
        shard.mkdir()
        fresh = store.blobs.objects_dir / ".tmp-live.blob"
        fresh.write_bytes(b"y" * 100)
        stale = [shard / ".tmp-orphan.blob", store.runs_dir / ".tmp-x.json"]
        then = fresh.stat().st_mtime - TEMP_FILE_MAX_AGE_S - 60
        for path in stale:
            path.write_bytes(b"x" * 5000)
            os.utime(path, (then, then))
        kept = store.put_blob(b"referenced")
        manifest = self._manifest()
        manifest.snapshots.append(SnapshotRecord(index=0, when=1.0, digest=kept))
        store.save_manifest(manifest)

        dry = store.gc(dry_run=True)
        assert (dry["temp_files"], dry["temp_bytes"]) == (2, 10_000)
        assert all(path.exists() for path in stale)
        report = store.gc()
        assert (report["temp_files"], report["temp_bytes"]) == (2, 10_000)
        assert not any(path.exists() for path in stale)
        assert fresh.exists()
        assert report["removed"] == [] and report["kept"] == 1
        assert store.gc()["temp_files"] == 0

    def test_gc_reclaims_a_stale_temp_file_in_the_root(self, tmp_path):
        """Older ``repro serve`` builds saved a tenant ledger through a
        ``.tmp-tenants-*`` file in the store root: one killed mid-save
        left it there, and gc takes it by the same age rule."""
        store = RunStore(tmp_path)
        fresh = store.root / ".tmp-tenants-live.json"
        fresh.write_bytes(b"{}")
        stale = store.root / ".tmp-tenants-x.json"
        stale.write_bytes(b"x" * 300)
        os.utime(stale, (0, 0))
        report = store.gc()
        assert (report["temp_files"], report["temp_bytes"]) == (1, 300)
        assert not stale.exists() and fresh.exists()

    def test_diff_reports_config_drift(self, tmp_path):
        store = RunStore(tmp_path)
        a = self._manifest(run_id="campaign-a", key="ka")
        b = self._manifest(run_id="campaign-b", key="kb")
        b.seed = 2
        b.config = {"scenario": {"seed": 2}}
        store.save_manifest(a)
        store.save_manifest(b)
        report = store.diff("campaign-a", "campaign-b")
        assert "seed" in report["fields"]
        assert "scenario" in report["config"]

    @pytest.mark.parametrize("engine", ["wheel", "heap"])
    def test_manifest_written_before_engine_removal_stays_readable(
        self, tmp_path, engine
    ):
        """Run keys once included the scheduler backend and manifests
        recorded it; a store written then must still list, show and gc."""
        store = RunStore(tmp_path)
        kept = store.put_blob(b"old result")
        dropped = store.put_blob(b"garbage")
        text = _LEGACY_MANIFEST_JSON.replace("@ENGINE@", engine).replace(
            "@RESULT@", kept
        )
        manifest = RunManifest.from_json(text)
        assert not hasattr(manifest, "engine")
        assert "engine" not in manifest.to_dict()
        assert manifest.completed_snapshots == 1
        assert manifest.checkpoint.snapshot_index == 0

        (store.runs_dir / f"{manifest.run_id}.json").write_text(text)
        assert [m.run_id for m in store.manifests()] == [manifest.run_id]
        assert store.load_manifest(manifest.run_id) == manifest
        assert store.index()[manifest.run_id]["key"] == manifest.key
        assert "engine" not in store.index()[manifest.run_id]
        assert store.diff(manifest.run_id, manifest.run_id)["fields"] == {}
        assert store.gc(dry_run=True)["removed"] == [dropped]
        assert store.get_blob(manifest.result_digest) == b"old result"

    def test_views_are_an_additive_manifest_field(self, tmp_path):
        """A manifest written before the field existed loads with no
        views; one written with them round-trips and pins their blobs."""
        assert '"views"' not in _LEGACY_MANIFEST_JSON
        manifest = RunManifest.from_json(
            _LEGACY_MANIFEST_JSON.replace("@RESULT@", "a" * 64)
        )
        assert manifest.views == {} and manifest.format == 1
        before = manifest.referenced_digests()
        manifest.views = {"summary.json": "b" * 64, "series.csv": "c" * 64}
        again = RunManifest.from_json(manifest.to_json())
        assert again == manifest and again.to_dict()["views"] == manifest.views
        assert sorted(again.referenced_digests()) == sorted(
            before + ["b" * 64, "c" * 64]
        )

    def test_invalid_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(StoreError):
            store.load_manifest("../escape")


class TestSimulatorSnapshot:
    def test_restore_replays_identically(self):
        original = ProtocolScenario(
            ProtocolConfig(seed=31, n_reachable=10, n_responsive=4,
                           n_silent=4, pre_mined_blocks=5),
        )
        original.sim.run_for(120.0)
        blob = original.sim.snapshot()
        header = read_header(blob)
        assert header["kind"] == "simulator"
        assert header["meta"]["now"] == original.sim.now

        restored = Simulator.restore(blob)
        a = original.sim.run_for(600.0)
        b = restored.run_for(600.0)
        assert int(a) == int(b)
        assert original.sim.now == restored.now
        assert original.sim.scheduler.fired == restored.scheduler.fired

    def test_round_trip_at_200_full_nodes(self):
        """Snapshot mid-run under churn at a size the paper cares about
        (the Python pickler recursed out from 60 warmed nodes up), with a
        connection caught half-closed; restore; continue both."""
        scenario = ProtocolScenario(
            ProtocolConfig(seed=17, n_reachable=200, churn_per_10min=20.0,
                           pre_mined_blocks=3),
        )
        sim = scenario.sim
        sim.register("scenario", scenario)
        scenario.start(warmup=120.0)
        # Open a half-closed window: one end closed, the FIN in flight.
        closer = sim.network.open_sockets(scenario.running_nodes()[0].addr)[0]
        told = closer._peer
        closer.close()
        assert not closer.open and told.open and told._peer is closer

        before = _socket_table(sim.network)
        assert len(before) > 2000
        assert any(not row[3] for row in before)  # the closed end is there
        restored = Simulator.restore(sim.snapshot())
        assert _socket_table(restored.network) == before

        a = sim.run_for(120.0)
        b = restored.run_for(120.0)
        assert int(a) == int(b) > 10_000
        assert sim.now == restored.now
        assert sim.scheduler.fired == restored.scheduler.fired
        assert _sync_digest(restored.components["scenario"]) == _sync_digest(
            scenario
        )
        assert len(scenario.churn.departures) > 0

    def test_restore_rejects_wrong_kind(self):
        blob = dump_checkpoint({"not": "a simulator"}, kind="other")
        with pytest.raises((CheckpointError, SimulationError)):
            Simulator.restore(blob)


def _socket_table(network):
    """Every socket with an open end, and its peer: who it is, whether
    it is open, and that ``_peer`` points at the other end of *its* pair.
    (A pair with both ends closed has left the table; nothing reads the
    ``_peer`` of a closed socket.)"""
    rows = []
    for socks in network._sockets_by_addr.values():
        for sock in socks:
            for end in (sock, sock._peer):
                rows.append((
                    end.local_addr, end.remote_addr, end.is_inbound,
                    end.open, end._peer.local_addr, end._peer._peer is end,
                ))
    assert all(row[5] for row in rows)
    return rows


def _sync_digest(scenario):
    return (
        [(node.addr, node.chain.height, node.outbound_count)
         for node in scenario.running_nodes()],
        scenario.sync_fraction(),
        scenario.sim.network.messages_delivered,
    )


def _tiny_config():
    return LongitudinalConfig(
        seed=13, scale=0.01, snapshots=3, campaign_days=1.0
    )


class TestStoredCampaign:
    @pytest.mark.parametrize("snapshots", [0, 4])
    def test_plan_refuses_snapshots_its_scenario_lacks(self, snapshots):
        """A plan that constructs can run: a unit count beyond the
        scenario's snapshot schedule used to die at that unit, leaving
        a manifest every resume failed on again."""
        with pytest.raises(ConfigurationError, match="between 1 and"):
            CampaignPlan(_tiny_config(), snapshots=snapshots)
        assert CampaignPlan(_tiny_config(), snapshots=3).units == 3

    def test_cache_hit_skips_simulation(self, tmp_path):
        config = _tiny_config()
        first = run_stored_campaign(tmp_path, config)
        assert not first.cached
        assert first.manifest.status == "complete"
        second = run_stored_campaign(tmp_path, config)
        assert second.cached
        assert second.manifest.run_id == first.manifest.run_id
        assert (
            [len(s.connected) for s in second.result.snapshots]
            == [len(s.connected) for s in first.result.snapshots]
        )

    def test_force_reexecutes(self, tmp_path):
        config = _tiny_config()
        run_stored_campaign(tmp_path, config)
        again = run_stored_campaign(tmp_path, config, force=True)
        assert not again.cached

    def test_force_heals_a_corrupt_result_blob(self, tmp_path):
        """A flipped byte in a stored result fails every read by name;
        re-running under ``force`` rewrites the blob, so reads succeed
        again instead of failing for good."""
        config = _tiny_config()
        first = run_stored_campaign(tmp_path, config)
        store = RunStore(tmp_path)
        digest = first.manifest.result_digest
        path = store.blobs._path(digest)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="corrupt on disk"):
            store.blobs.get(digest)
        again = run_stored_campaign(tmp_path, config, force=True)
        assert again.manifest.result_digest == digest
        assert sha256_hex(store.blobs.get(digest)) == digest
        assert run_stored_campaign(tmp_path, config).cached

    def test_resume_wrong_config_rejected(self, tmp_path):
        config = _tiny_config()
        first = run_stored_campaign(tmp_path, config)
        other = LongitudinalConfig(
            seed=14, scale=0.01, snapshots=3, campaign_days=1.0
        )
        with pytest.raises(StoreError):
            run_stored_campaign(
                tmp_path, other, resume=first.manifest.run_id
            )

    def test_a_complete_run_pins_no_state(self, tmp_path):
        """The last unit's write is the completion write: a complete
        campaign points at no state blob, and the state blobs its
        earlier units wrote are gone — each was deleted once the next
        manifest stopped naming it — leaving ``gc`` nothing to do."""
        stored = run_stored_campaign(tmp_path, _tiny_config())
        manifest = stored.manifest
        store = RunStore(tmp_path)
        assert manifest.checkpoint is None
        assert store.load_manifest(manifest.run_id).checkpoint is None
        kept = {record.digest for record in manifest.snapshots}
        kept |= {manifest.result_digest, *manifest.views.values()}
        assert set(manifest.referenced_digests()) == kept
        assert len(kept) == 3 + 1 + 2
        assert set(store.blobs.digests()) == kept
        assert store.gc(dry_run=True)["removed"] == []

    def test_each_state_blob_replaces_the_last(self, tmp_path, monkeypatch):
        """While a campaign runs, the store holds one state blob: the
        one its saved manifest names."""
        from repro.store import plan as plan_module

        seen = []
        save = plan_module._save

        def spy(store, manifest, superseded):
            save(store, manifest, superseded)
            outputs = {record.digest for record in manifest.snapshots}
            outputs |= {manifest.result_digest, *manifest.views.values()}
            states = sorted(set(store.blobs.digests()) - outputs)
            checkpoint = manifest.checkpoint
            seen.append(
                (states, None if checkpoint is None else checkpoint.digest)
            )

        monkeypatch.setattr(plan_module, "_save", spy)
        run_stored_campaign(tmp_path, _tiny_config())
        # the opening save, after units 0 and 1, the completion write
        assert len(seen) == 4
        assert seen[0] == ([], None) and seen[-1] == ([], None)
        for states, checkpoint in seen[1:-1]:
            assert states == [checkpoint]
        assert seen[1][1] != seen[2][1]

    def test_manifest_records_per_snapshot_outputs(self, tmp_path):
        config = _tiny_config()
        stored = run_stored_campaign(tmp_path, config)
        manifest = stored.manifest
        assert manifest.completed_snapshots == 3
        assert [s.index for s in manifest.snapshots] == [0, 1, 2]
        whens = [s.when for s in manifest.snapshots]
        assert whens == sorted(whens)
        assert [s.when for s in stored.result.snapshots] == whens
        store = RunStore(tmp_path)
        for record in manifest.snapshots:
            snap = load_checkpoint(
                store.get_blob(record.digest), expect_kind="snapshot-result"
            )
            assert snap.index == record.index


class _Killed(Exception):
    """Stands in for the hard exit of the crash hook."""


def _kill(code):
    raise _Killed(code)


class TestResumeInProcess:
    """The kill-and-resume pin at tier-1 speed: same store code, the
    crash hook's ``os._exit`` swapped for an exception."""

    def test_resumed_digests_match_fresh(self, tmp_path, monkeypatch):
        config = _tiny_config()
        fresh = run_stored_campaign(tmp_path / "fresh", config).manifest

        monkeypatch.setenv(CRASH_ENV, "0")
        monkeypatch.setattr(os, "_exit", _kill)
        with pytest.raises(_Killed):
            run_stored_campaign(tmp_path / "killed", config)
        monkeypatch.delenv(CRASH_ENV)
        resumed = run_stored_campaign(tmp_path / "killed", config)
        assert resumed.resumed_from == 1 and not resumed.cached

        # A restored object whose attribute names are not interned the
        # way a fresh one's are pickles to different memo references:
        # equal result, different digest.  These would catch it.
        assert [s.digest for s in resumed.manifest.snapshots] == [
            s.digest for s in fresh.snapshots
        ]
        assert resumed.manifest.result_digest == fresh.result_digest


def _previous_layout_state(data):
    """``data`` (a campaign state blob) as the previous layout wrote it:
    the same runner, its scenario also holding an object of the since
    deleted ``repro.bitcoin.policy.variants.StandardAddrPolicy``."""
    import sys
    import types

    header = read_header(data)
    runner = load_checkpoint(data, expect_kind=header["kind"])
    names = ("repro.bitcoin.policy", "repro.bitcoin.policy.variants")
    for name in names:
        sys.modules[name] = types.ModuleType(name)
    cls = type("StandardAddrPolicy", (), {"__module__": names[-1]})
    sys.modules[names[-1]].StandardAddrPolicy = cls
    try:
        runner.scenario.addr_policy = cls()
        return dump_checkpoint(
            runner, kind=header["kind"], meta=header["meta"]
        )
    finally:
        for name in names:
            del sys.modules[name]


class TestPreviousLayoutState:
    """A partial campaign whose state blob names a class this build no
    longer has fails by name — through the runner and on the CLI — and
    ``--force`` starts it over."""

    ARGV = ["campaign", "--scale", "0.002", "--snapshots", "2", "--seed", "7"]

    @pytest.fixture
    def old_partial(self, tmp_path, monkeypatch):
        from repro.cli import main

        root = tmp_path / "store"
        monkeypatch.setenv(CRASH_ENV, "0")
        monkeypatch.setattr(os, "_exit", _kill)
        with pytest.raises(_Killed):
            main([*self.ARGV, "--store", str(root)])
        monkeypatch.delenv(CRASH_ENV)
        store = RunStore(root)
        (manifest,) = store.manifests()
        fresh = manifest.checkpoint.digest
        manifest.checkpoint = CheckpointRecord(
            digest=store.put_blob(
                _previous_layout_state(store.get_blob(fresh))
            ),
            snapshot_index=0,
        )
        store.save_manifest(manifest)
        store.blobs.delete(fresh)
        return store, manifest

    @staticmethod
    def _names_the_class(message):
        assert "'campaign-runner'" in message
        assert "repro.bitcoin.policy" in message
        assert "another checkpoint layout" in message
        assert "--force" in message

    def test_run_stored_refuses_by_name(self, old_partial):
        store, old = old_partial
        plan = CampaignPlan(
            LongitudinalConfig(scale=0.002, snapshots=2, seed=7)
        )
        assert plan.run_id == old.run_id
        blobs = sorted(store.blobs.digests())
        for resume in (None, old.run_id):
            with pytest.raises(CheckpointError) as excinfo:
                run_stored(store, plan, resume=resume)
            self._names_the_class(str(excinfo.value))
        # nothing written, nothing deleted
        assert sorted(store.blobs.digests()) == blobs
        assert store.load_manifest(old.run_id).to_json() == old.to_json()

    def test_cli_prints_one_line_and_force_starts_over(
        self, old_partial, capsys
    ):
        from repro.cli import main

        store, old = old_partial
        root = ["--store", str(store.root)]
        for extra in ([], ["--resume", old.run_id]):
            assert main([*self.ARGV, *root, *extra]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            self._names_the_class(err)
        assert main([*self.ARGV, *root, "--force"]) == 0
        assert f"stored as run {old.run_id}" in capsys.readouterr().out
        assert store.load_manifest(old.run_id).status == "complete"
        assert store.gc(dry_run=True)["removed"] == []


class TestRetiredFormat:
    """A store written by a format-1 build: a clean miss, one named
    failure where it is asked for by name, never a loop."""

    @pytest.fixture
    def old_store(self, tmp_path):
        store = RunStore(tmp_path)
        manifest = RunManifest(
            run_id="campaign-0123456789ab",
            key="0123456789ab" + "c" * 52,
            kind="campaign", seed=13, snapshots_total=3,
            config={"scenario": {}, "campaign": {}},
            status="complete",
            checkpoint=CheckpointRecord(
                digest=store.put_blob(
                    format_1_blob("a runner", kind="campaign-runner")
                ),
                snapshot_index=2,
            ),
            result_digest=store.put_blob(
                format_1_blob("a result", kind="campaign-result")
            ),
        )
        store.save_manifest(manifest)
        return store, manifest

    def test_same_config_is_a_clean_miss(self, old_store):
        store, old = old_store
        stored = run_stored_campaign(store, _tiny_config())
        assert not stored.cached and stored.resumed_from is None
        assert stored.manifest.run_id != old.run_id
        # the old run is still listed, shown and kept by gc
        assert set(store.index()) == {old.run_id, stored.manifest.run_id}
        assert store.load_manifest(old.run_id).status == "complete"
        assert not set(store.gc()["removed"]) & set(old.referenced_digests())
        assert store.get_blob(old.result_digest)

    def test_resume_fails_once_naming_both_formats(self, old_store):
        store, old = old_store
        for _ in range(2):  # and again: nothing was written or retried
            with pytest.raises(CheckpointError) as excinfo:
                run_stored_campaign(
                    store, _tiny_config(), resume=old.run_id
                )
            assert "format 1" in str(excinfo.value)
            assert f"format {CHECKPOINT_FORMAT}" in str(excinfo.value)
        assert [m.run_id for m in store.manifests()] == [old.run_id]
        assert store.load_manifest(old.run_id).to_dict() == old.to_dict()

    @pytest.mark.parametrize("kind", ["attack-sweep", "variant-matrix"])
    def test_sweep_runners_refuse_by_name_too(self, tmp_path, kind, capsys):
        """Runs of the two retired sweep *kinds* (every sweep is a
        ``sync-sweep`` now), partial and complete: still listed, shown,
        diffed and kept by gc; a clean miss for the same experiment; one
        named failure when resumed by name, and nothing written."""
        from repro.adversary.plan import AttackerSpec, AttackPlan
        from repro.cli import main
        from repro.core import (
            Axis,
            ConditionSweepPlan,
            SyncCampaignConfig,
            conditions,
        )

        store = RunStore(tmp_path)
        unit = "level" if kind == "attack-sweep" else "cell"
        old_runs = []
        for tag, complete in (("0123456789ab", False), ("ba9876543210", True)):
            old = RunManifest(
                run_id=f"{kind}-{tag}", key=tag + "c" * 52,
                kind=kind, seed=7, snapshots_total=1, config={},
                status="complete" if complete else "running",
                snapshots=[
                    SnapshotRecord(
                        index=0, when=0.0, digest=store.put_blob(
                            dump_checkpoint(
                                f"a {unit} of {tag}", kind=f"{kind}-{unit}",
                                meta={"index": 0}, aliasing=False,
                            )
                        ),
                    )
                ] if complete else [],
                result_digest=store.put_blob(
                    dump_checkpoint(
                        "a result", kind=f"{kind}-result", aliasing=False
                    )
                ) if complete else None,
            )
            store.save_manifest(old)
            old_runs.append(old)
        blobs = sorted(store.blobs.digests())
        manifests = [m.to_json() for m in store.manifests()]

        base = SyncCampaignConfig(
            n_reachable=8, duration=300.0, warmup=150.0,
            pre_mined_blocks=10, sample_period=100.0, poll_spread=60.0, seed=7,
        )
        if kind == "attack-sweep":
            flood = AttackPlan(
                attackers=(AttackerSpec(kind="addr_flooder", count=2),)
            )
            points = conditions(base, Axis.attackers(flood, (0,)))
        else:
            points = conditions(
                base, Axis.variant(["baseline"]), Axis.churn((2.0,)),
                Axis.faults(),
            )
        plan = ConditionSweepPlan(kind, points, [7], workers=1)

        for old in old_runs:
            for _ in range(2):  # and again: nothing was written or retried
                with pytest.raises(StoreError) as excinfo:
                    run_stored(store, plan, resume=old.run_id)
                assert str(excinfo.value) == (
                    f"run {old.run_id!r} is a {kind!r} run"
                )
        assert sorted(store.blobs.digests()) == blobs
        assert [m.to_json() for m in store.manifests()] == manifests

        root = ["--store", str(tmp_path)]
        partial, complete = (old.run_id for old in old_runs)
        assert main(["store", "ls", *root]) == 0
        listed = capsys.readouterr().out
        assert partial in listed and complete in listed and kind in listed
        assert main(["store", "show", complete, *root]) == 0
        assert old_runs[1].result_digest in capsys.readouterr().out
        assert main(["store", "gc", "--dry-run", *root]) == 0
        assert "would remove 0 unreferenced" in capsys.readouterr().out
        assert main(["store", "diff", partial, complete, *root]) == 0
        assert "status: 'running' -> 'complete'" in capsys.readouterr().out

        # The same experiment is a clean miss: it runs, under a new id.
        fresh = run_stored(store, plan)
        assert not fresh.cached and fresh.resumed_from is None
        assert fresh.manifest.run_id.startswith("sync-sweep-")
        assert set(store.index()) == {partial, complete, fresh.manifest.run_id}
        assert not set(store.gc()["removed"]) & set(blobs)

    def test_load_campaign_result_refuses_by_name(self, old_store):
        store, old = old_store
        with pytest.raises(CheckpointError, match="format 1.*format 2"):
            CampaignPlan.load_result(store, old)


class TestReadOnlyStore:
    """A read-only store root surfaces ReadOnlyStoreError, not raw
    OSError — the serving layer maps it to 503 (retryable), not 500."""

    @staticmethod
    def _deny_mkstemp(monkeypatch):
        import tempfile

        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", refuse)

    def test_blob_put_surfaces_read_only(self, tmp_path, monkeypatch):
        from repro.errors import ReadOnlyStoreError
        from repro.store.blobs import BlobStore

        blobs = BlobStore(tmp_path / "store")
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="not writable"):
            blobs.put(b"payload")

    def test_manifest_save_surfaces_read_only(self, tmp_path, monkeypatch):
        from repro.errors import ReadOnlyStoreError

        store = RunStore(tmp_path / "store")
        manifest = RunManifest(
            run_id="campaign-feedfeedfeed", kind="campaign",
            key="feed" * 16, config={}, seed=1, snapshots_total=1,
        )
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="not writable"):
            store.save_manifest(manifest)

    def test_read_only_error_is_a_store_error(self):
        from repro.errors import ReadOnlyStoreError

        assert issubclass(ReadOnlyStoreError, StoreError)

    def test_run_stored_campaign_surfaces_read_only(
        self, tmp_path, monkeypatch
    ):
        from repro.errors import ReadOnlyStoreError

        config = LongitudinalConfig(
            seed=5, scale=0.002, snapshots=2, campaign_days=1.0
        )
        self._deny_mkstemp(monkeypatch)
        with pytest.raises(ReadOnlyStoreError, match="cannot"):
            run_stored_campaign(tmp_path / "store", config)

    def test_unrelated_oserror_passes_through(self, tmp_path, monkeypatch):
        import tempfile

        from repro.errors import ReadOnlyStoreError
        from repro.store.blobs import BlobStore

        blobs = BlobStore(tmp_path / "store")

        def explode(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", explode)
        with pytest.raises(OSError) as excinfo:
            blobs.put(b"payload")
        assert not isinstance(excinfo.value, ReadOnlyStoreError)
        assert excinfo.value.errno == errno.ENOSPC
