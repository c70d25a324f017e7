"""Smoke tests: every CLI subcommand runs end-to-end at tiny scale.

These guard the argument wiring, not the science — each command gets the
smallest world that exercises its full code path, runs through
``main(argv)`` exactly as a shell invocation would, and must exit 0 with
its headline table on stdout.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import run_connection_success, warm_world
from repro.store import RunStore

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture
def tiny_store(tmp_path):
    """A store holding one completed two-snapshot campaign."""
    root = tmp_path / "store"
    code = main(
        [
            "campaign", "--scale", "0.002", "--snapshots", "2",
            "--seed", "7", "--store", str(root),
        ]
    )
    assert code == 0
    from repro.store import RunStore

    store = RunStore(root)
    (manifest,) = store.manifests()
    return root, manifest.run_id


class TestParserWiring:
    def test_store_group_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_store_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["store", "ls"],
            ["store", "show", "campaign-abc"],
            ["store", "gc", "--dry-run"],
            ["store", "diff", "campaign-a", "campaign-b"],
        ):
            args = parser.parse_args(argv)
            assert args.command == "store"
            assert callable(args.func)

    def test_campaign_store_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--store", "st", "--resume", "campaign-abc"]
        )
        assert args.store == "st"
        assert args.resume == "campaign-abc"

    def test_campaign_engine_flag_is_gone(self, capsys):
        """There is one scheduler; selecting one is an argparse error."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["campaign", "--engine", "heap"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestCampaignSmoke:
    def test_campaign_runs(self, capsys):
        code = main(["campaign", "--scale", "0.002", "--snapshots", "2"])
        assert code == 0
        assert "Campaign" in capsys.readouterr().out

    def test_campaign_sweep_runs(self, capsys):
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seeds", "2", "--workers", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign sweep" in out
        assert "mean over 2 seeds" in out

    def test_campaign_store_cache_hit(self, tiny_store, capsys):
        root, run_id = tiny_store
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seed", "7", "--store", str(root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"cache hit: run {run_id} is complete" in out

    def test_campaign_force_reexecutes(self, tiny_store, capsys):
        root, run_id = tiny_store
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seed", "7", "--store", str(root), "--force"]
        )
        assert code == 0
        assert f"stored as run {run_id}" in capsys.readouterr().out

    def test_campaign_resume_wrong_config_fails_loudly(
        self, tiny_store, capsys
    ):
        root, run_id = tiny_store
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seed", "8", "--store", str(root), "--resume", run_id]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot resume") and err.count("\n") == 1
        assert "different run key" in err


class TestStoreFlags:
    """``--store/--resume/--force`` are one option group with one rule,
    whichever command carries them."""

    COMMANDS = {
        "campaign": ["campaign"],
        "attack": ["attack", "--plan", "plan.json"],
        "chaos": ["chaos", "--faults", "plan.json"],
        "sync": ["sync"],
        "variants": ["variants", "--variants", "baseline"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_parse_everywhere(self, command):
        args = build_parser().parse_args(
            self.COMMANDS[command]
            + ["--store", "st", "--resume", "some-run", "--force"]
        )
        assert (args.store, args.resume, args.force) == (
            "st", "some-run", True
        )

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("flag", [["--resume", "some-run"], ["--force"]])
    def test_resume_and_force_require_store(self, command, flag, capsys):
        assert main(self.COMMANDS[command] + flag) == 2
        assert "require --store" in capsys.readouterr().err

    def test_campaign_sweep_cannot_resume_one_run(self, tiny_store, capsys):
        """``--seeds N`` stores one run per seed; naming one to resume
        used to be silently ignored."""
        root, run_id = tiny_store
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seed", "7", "--seeds", "2", "--store", str(root),
             "--resume", run_id]
        )
        assert code == 2
        assert "one run" in capsys.readouterr().err


class TestBadInput:
    """A malformed plan file or a config the command refuses is one
    ``error:`` line and exit 2 — not a traceback."""

    @pytest.mark.parametrize(
        "command, plan, says",
        [
            (["chaos", "--faults"], None, "is not a readable JSON file"),
            (["chaos", "--faults"], "{nope", "is not a readable JSON file"),
            (["chaos", "--faults"],
             '{"faults": [{"kind": "drop", "probability": "0.5"}]}',
             'faults[0].probability must be a number, got "0.5"'),
            # Small enough that the run the parent made of it ends.
            (["attack", "--counts", "1", "--nodes", "8", "--hours", "0.1",
              "--seeds", "1", "--workers", "1", "--plan"],
             '{"attackers": [{"kind": "addr_flooder", "count": true}]}',
             "attackers[0].count must be an integer, got true"),
            (["attack", "--plan"], EXAMPLES / "attackplan_flood.json",
             "73 reachable-tier attackers exceed the network size "
             "(40 reachable nodes)"),
        ],
        ids=["missing-file", "corrupt-json", "string-probability",
             "bool-count", "flood-at-default-counts"],
    )
    def test_is_an_error_line_not_a_traceback(
        self, tmp_path, capsys, command, plan, says
    ):
        path = tmp_path / "plan.json"
        if isinstance(plan, str):
            path.write_text(plan)
        elif plan is not None:
            path = plan
        assert main(command + [str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err, err


class TestStoreSmoke:
    def test_ls(self, tiny_store, capsys):
        root, run_id = tiny_store
        assert main(["store", "ls", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "complete" in out

    def test_ls_empty(self, tmp_path, capsys):
        assert main(["store", "ls", "--store", str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show(self, tiny_store, capsys):
        root, run_id = tiny_store
        assert main(["store", "show", run_id, "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "result_digest" in out
        assert "snapshot" in out
        # one line per stored view: name, digest prefix, size
        store = RunStore(root)
        views = store.load_manifest(run_id).views
        assert sorted(views) == ["campaign_series.csv", "summary.json"]
        for name, digest in views.items():
            size = store.blobs.size_bytes(digest)
            assert f"{name} {digest[:16]}... ({size} bytes)" in out

    def test_gc(self, tiny_store, capsys):
        root, _ = tiny_store
        assert main(["store", "gc", "--dry-run", "--store", str(root)]) == 0
        assert "would remove" in capsys.readouterr().out
        assert main(["store", "gc", "--store", str(root)]) == 0
        assert "removed" in capsys.readouterr().out
        # a live run's views are pinned like its result
        store = RunStore(root)
        (manifest,) = store.manifests()
        assert len(manifest.views) == 2
        assert all(digest in store.blobs for digest in manifest.views.values())
        # after gc the stored result must still load (cache hit path)
        code = main(
            ["campaign", "--scale", "0.002", "--snapshots", "2",
             "--seed", "7", "--store", str(root)]
        )
        assert code == 0

    def test_diff_self(self, tiny_store, capsys):
        root, run_id = tiny_store
        assert main(
            ["store", "diff", run_id, run_id, "--store", str(root)]
        ) == 0
        out = capsys.readouterr().out
        assert "identical run parameters" in out
        assert "final results identical" in out


@pytest.mark.slow
class TestProtocolCommandsSmoke:
    def test_sync_runs(self, capsys):
        code = main(["sync", "--nodes", "12", "--hours", "0.4", "--seed", "3"])
        assert code == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_relay_runs(self, capsys):
        code = main(["relay", "--nodes", "10", "--hours", "0.5"])
        assert code == 0
        assert "block relay mean" in capsys.readouterr().out

    def test_conn_runs(self, capsys):
        """Fig. 7 runs on a fresh warm world, not on the one Fig. 6
        already advanced."""
        assert main(["conn", "--nodes", "15", "--runs", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        fresh = run_connection_success(warm_world(5, 15), runs=1)
        [run] = fresh.runs
        assert lines[-1].split() == ["1", str(run.attempts), str(run.successes)]
        [rate] = [line for line in lines if "connection success rate" in line]
        assert rate.split()[-2] == f"{fresh.overall_rate:.3g}"


class TestVariantsWiring:
    def test_variants_flags_parse(self):
        args = build_parser().parse_args(
            ["variants", "--variants", "baseline,improved",
             "--churn", "2,6",
             "--store", "st", "--resume", "sync-sweep-abc", "--force"]
        )
        assert args.command == "variants"
        assert args.variants == "baseline,improved"
        assert args.resume == "sync-sweep-abc"
        assert args.force is True
        assert callable(args.func)

    def test_attack_mitigations_takes_optional_variant(self):
        parser = build_parser()
        base = ["attack", "--plan", "plan.json"]
        assert parser.parse_args(base).mitigations is None
        assert parser.parse_args(base + ["--mitigations"]).mitigations == (
            "improved"
        )
        assert parser.parse_args(
            base + ["--mitigations", "churn-resilient"]
        ).mitigations == "churn-resilient"

    def test_variants_resume_requires_store(self, capsys):
        code = main(
            ["variants", "--variants", "baseline",
             "--resume", "sync-sweep-abc"]
        )
        assert code == 2


@pytest.mark.slow
class TestVariantsSmoke:
    def test_variants_runs_and_caches(self, tmp_path, capsys):
        root = tmp_path / "store"
        argv = [
            "variants", "--variants", "baseline,unreachable-relay",
            "--churn", "2,6",
            "--nodes", "10", "--hours", "0.3", "--seeds", "1",
            "--workers", "1", "--store", str(root),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "retention" in out
        assert "unreachable-relay" in out
        assert "stored as run sync-sweep-" in out
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out


@pytest.mark.slow
class TestAttackSmoke:
    def test_attack_stores_resumes_by_name_and_forces(self, tmp_path, capsys):
        """``attack --store`` names its run, so ``--resume`` can address
        it and ``--force`` can redo it — as on ``variants``."""
        from pathlib import Path

        plan = Path(__file__).resolve().parent.parent / "examples"
        argv = [
            "attack", "--plan", str(plan / "attackplan_flood.json"),
            "--counts", "0,2", "--nodes", "10", "--hours", "0.2",
            "--seeds", "1", "--workers", "1",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "attackers" in out
        run_id = out.split("stored as run ")[1].split()[0]
        assert run_id.startswith("sync-sweep-")
        assert main(argv + ["--resume", run_id]) == 0
        assert f"cache hit: run {run_id}" in capsys.readouterr().out
        assert main(argv + ["--force"]) == 0
        assert f"stored as run {run_id}" in capsys.readouterr().out


@pytest.mark.slow
class TestChaosSmoke:
    def test_chaos_stores_then_caches(self, tmp_path, capsys):
        from pathlib import Path

        plan = Path(__file__).resolve().parent.parent / "examples"
        argv = [
            "chaos", "--faults", str(plan / "faultplan_partition.json"),
            "--intensities", "0,1", "--nodes", "8", "--hours", "0.2",
            "--seeds", "1", "--workers", "1",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "intensity" in out
        run_id = out.split("stored as run ")[1].split()[0]
        assert run_id.startswith("sync-sweep-")
        assert main(argv) == 0
        assert f"cache hit: run {run_id}" in capsys.readouterr().out


def _lose(monkeypatch, lost):
    """Make every campaign whose config satisfies ``lost`` fail."""
    from repro.core import parallel

    real = parallel._run_sync_config

    def run(config):
        if lost(config):
            raise RuntimeError("boom")
        return real(config)

    monkeypatch.setattr(parallel, "_run_sync_config", run)


_TINY_SWEEP = ["--nodes", "8", "--hours", "0.12", "--seeds", "1",
               "--workers", "1"]


@pytest.mark.slow
class TestSweepFailures:
    """A cell with no completed seed is a ``-``, never a crash; a stored
    cell that lost a seed is an ``error:`` line and exit 1; a campaign
    too short to sample twice is refused before anything runs."""

    def test_sync_leaves_an_empty_arm_out(self, monkeypatch, capsys):
        import warnings

        _lose(monkeypatch, lambda config: config.churn_per_10min == 14.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sync", *_TINY_SWEEP]) == 0
        out = capsys.readouterr().out
        assert (
            "WARNING: sync campaign '2020' completed no seed — left out of "
            "the table and the KDE"
        ) in out
        assert "mean sync 2020 (%)   61.9         -      -" in out
        densities = out.split("kernel densities")[1].splitlines()[1:-1]
        assert [line.split()[0] for line in densities] == ["2019"]

    def test_chaos_prints_a_dash_for_an_empty_level(self, monkeypatch, capsys):
        import warnings

        _lose(monkeypatch, lambda config: len(config.faults) > 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(
                ["chaos", "--faults", str(EXAMPLES / "faultplan_partition.json"),
                 "--intensities", "0,1", *_TINY_SWEEP]
            ) == 0
        rows = capsys.readouterr().out.split("-------\n")[1].splitlines()
        assert rows[1].split() == ["1", "-", "-", "-", "1", "0"]

    def test_a_stored_cell_that_lost_a_seed_is_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        argv = ["sync", *_TINY_SWEEP, "--store", str(tmp_path)]
        _lose(monkeypatch, lambda config: config.churn_per_10min == 14.0)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "year=2020: seeds [21]" in err
        monkeypatch.undo()
        assert main(argv) == 0
        assert "from arm 1/2" in capsys.readouterr().out

    def test_too_short_to_sample_twice_is_refused_and_not_stored(
        self, tmp_path, capsys
    ):
        argv = [
            "attack", "--plan", str(EXAMPLES / "attackplan_flood.json"),
            "--counts", "0,2", "--nodes", "10", "--hours", "0.05",
            "--seeds", "1", "--workers", "1", "--store", str(tmp_path),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: duration 180s is too short"), err
        assert RunStore(tmp_path).manifests() == []

    def test_mitigations_are_stored_as_their_own_run(self, tmp_path, capsys):
        from .test_sweep_stdout import _FLOOD

        plan = tmp_path / "flood.json"
        plan.write_text(_FLOOD)
        store = tmp_path / "store"
        argv = ["attack", "--plan", str(plan), "--counts", "0,2",
                "--mitigations", *_TINY_SWEEP, "--store", str(store)]

        def lines(prefix):
            return [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith(prefix)
            ]

        assert main(argv) == 0
        stored = lines("stored as run ")
        runs = [line.split()[3] for line in stored]
        assert len(set(runs)) == 2
        assert sorted(m.run_id for m in RunStore(store).manifests()) == sorted(
            runs
        )
        assert main(argv) == 0
        assert len(lines("cache hit: run ")) == 2
        assert main(argv + ["--force"]) == 0
        assert lines("stored as run ") == stored
        # --resume names the count sweep; the mitigation sweep, its key
        assert main(argv + ["--resume", runs[0]]) == 0
        assert [line.split()[3] for line in lines("cache hit: run ")] == runs
