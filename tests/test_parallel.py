"""Multi-seed runner: parallel execution must merge identically to
sequential, because ``Pool.map`` preserves seed order and every run is a
pure function of its seed."""

from __future__ import annotations

import pytest

from repro.core.condition_sweep import ConditionSweepPlan, churn_conditions
from repro.core.parallel import default_workers, run_multi_seed, seed_range
from repro.core.sync_experiments import SyncCampaignConfig

#: Small enough to run two full sweeps in a test, large enough to churn.
TINY = SyncCampaignConfig(
    n_reachable=8,
    churn_per_10min=3.0,
    pre_mined_blocks=15,
    sample_period=120.0,
    poll_spread=80.0,
    warmup=150.0,
    duration=600.0,
    seed=5,
)


def _square(seed: int) -> int:
    return seed * seed


def fig1(seeds, workers=1):
    """The Fig. 1 contrast over ``seeds``: ``{year: SyncSweepResult}``."""
    result = ConditionSweepPlan(
        "fig1", churn_conditions(TINY), seeds, workers=workers
    ).run()
    return {cell.labels["year"]: cell.sweep for cell in result.cells}


class TestRunMultiSeed:
    def test_results_in_seed_order(self):
        assert run_multi_seed(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_parallel_results_in_seed_order(self):
        assert run_multi_seed(_square, [3, 1, 2], workers=2) == [9, 1, 4]

    def test_single_seed_runs_inline(self):
        assert run_multi_seed(_square, [7], workers=8) == [49]

    def test_seed_range(self):
        assert seed_range(10, 3) == [10, 11, 12]
        with pytest.raises(ValueError):
            seed_range(10, 0)

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert default_workers(8) == 1
        monkeypatch.setenv("REPRO_WORKERS", "64")
        assert default_workers(3) == 3  # capped by task count


class TestSyncSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        """One arm of the two-seed contrast."""
        return fig1([5, 6])["2019"]

    def test_parallel_equals_sequential(self):
        seeds = [5, 6]
        sequential, parallel = fig1(seeds, workers=1), fig1(seeds, workers=2)
        for year in ("2019", "2020"):
            seq, par = sequential[year], parallel[year]
            assert seq.seeds == par.seeds == seeds
            # Bit-identical per-seed results and merged sample stream.
            assert seq.sync_samples == par.sync_samples
            for a, b in zip(seq.per_seed, par.per_seed):
                assert a.sync_samples == b.sync_samples
                assert (
                    a.sync_departures_per_10min == b.sync_departures_per_10min
                )
                assert a.total_departures == b.total_departures
            assert seq.mean == par.mean
            assert (
                seq.sync_departures_per_10min == par.sync_departures_per_10min
            )

    def test_merge_is_seed_ordered_concatenation(self, sweep):
        expected = sweep.per_seed[0].sync_samples + sweep.per_seed[1].sync_samples
        assert sweep.sync_samples == expected

    def test_seeds_actually_vary_the_runs(self, sweep):
        a, b = sweep.per_seed
        assert a.config.seed == 5 and b.config.seed == 6

    def test_density_over_pooled_samples(self, sweep):
        estimate = sweep.density()
        assert estimate.count == len(sweep.sync_samples)


class TestContrastSweep:
    def test_labels_and_churn_levels(self):
        sweep = fig1([5])
        assert set(sweep) == {"2019", "2020"}
        assert sweep["2019"].per_seed[0].config.churn_per_10min == 5.0
        assert sweep["2020"].per_seed[0].config.churn_per_10min == 14.0

    def test_single_seed_matches_direct_run(self):
        from repro.core.sync_experiments import run_sync_campaign
        from dataclasses import replace

        sweep = fig1([5])
        direct = run_sync_campaign(replace(TINY, churn_per_10min=5.0, seed=5))
        assert sweep["2019"].sync_samples == direct.sync_samples
