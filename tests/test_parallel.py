"""Multi-seed runners: parallel execution must merge identically to
sequential, because results are assembled in seed (input) order and
every run is a pure function of its seed."""

from __future__ import annotations

import pytest

from repro.core.condition_sweep import ConditionSweepPlan, churn_conditions
from repro.core.parallel import run_plans, seed_range
from repro.core.sync_experiments import SyncCampaignConfig
from repro.store import RunStore, StoredPlan

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


class _Square(StoredPlan):
    """One unit: the square of the plan's seed."""

    kind = "square"
    unit_kind = "square-unit"
    result_kind = "square-result"
    result_type = int
    units = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def config(self):
        return {}

    def run_unit(self, state, index):
        return self.seed * self.seed

    def finish(self, state, outs):
        return outs[0]


def _squares(*seeds):
    return [_Square(seed) for seed in seeds]


def fig1(seeds, workers=1):
    """The Fig. 1 contrast over ``seeds``: ``{year: SyncSweepResult}``."""
    result = ConditionSweepPlan(
        "fig1", churn_conditions(TINY), seeds, workers=workers
    ).run()
    return {cell.labels["year"]: cell.sweep for cell in result.cells}


class TestRunMultiSeed:
    def test_results_in_seed_order(self):
        run = run_plans(_squares(3, 1, 2), workers=1)
        assert run.results == [9, 1, 4]
        assert run.labels == [3, 1, 2]

    def test_parallel_results_in_seed_order(self):
        assert run_plans(_squares(3, 1, 2), workers=2).results == [9, 1, 4]

    def test_single_seed_runs_inline(self):
        assert run_plans(_squares(7), workers=8).results == [49]

    def test_seed_range(self):
        assert seed_range(10, 3) == [10, 11, 12]
        with pytest.raises(ValueError):
            seed_range(10, 0)

    def test_stored_plans_hand_back_provenance_only(self, tmp_path):
        """Through a store a worker returns ``(cached, resumed_from)``
        and leaves the result where it wrote it; a re-run is a cache
        hit per plan."""
        first = run_plans(_squares(3, 1), store=tmp_path, workers=2)
        assert first.results == [(False, None), (False, None)]
        again = run_plans(_squares(3, 1), store=tmp_path, workers=1)
        assert again.results == [(True, None), (True, None)]
        store = RunStore(tmp_path)
        assert [
            plan.load_result(store, store.load_manifest(plan.run_id))
            for plan in _squares(3, 1)
        ] == [9, 1]


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
