"""Fig. 1 under conditions (``repro.core.condition_sweep``).

The sweep once, the axes once:

* **The plan.**  ``ConditionSweepPlan`` over a two-condition list:
  ``run()`` (one fan-out) equals the per-unit path ``run_stored`` takes,
  one worker equals two, and a seed that fails lands on its own cell.
  A cell that lost every seed reads ``None`` (and ``-`` on the CLI);
  under ``run_stored`` a cell that lost any seed is never committed.
* **The two pivots**, on hand-built cells: no simulation, every
  ``None`` case of ``degradation_table`` / ``retention_table``.
* **The axes.**  A bad axis fails while the condition list is built —
  before a plan, a key or a manifest exists — through ``plan.run()``
  and ``run_stored`` alike (the attack-count and variant-matrix axes
  are ``tests/test_stored_plan.py::TestOneValidation``'s); each preset
  lands where the builder it replaced did; and the year axis carries
  every ``SyncCampaignConfig`` field.
* **The two CI smokes**, run by name from ``attack-smoke`` and
  ``variant-smoke``: the shipped flood degrades sync monotonically, and
  a stored mini matrix is a cache hit with an equal retention table.

Kill / resume of every flavour (chaos included) and the literal key,
result and per-cell digest pins are in ``tests/test_stored_plan.py``.
"""

from __future__ import annotations

import dataclasses
import warnings
from functools import partial
from pathlib import Path

import pytest

from repro.adversary.plan import AttackerSpec, AttackPlan
from repro.bitcoin.config import PolicyConfig
from repro.core import (
    Axis,
    Condition,
    ConditionCell,
    ConditionSweepPlan,
    ConditionSweepResult,
    SyncCampaignConfig,
    SyncCampaignResult,
    SyncSweepResult,
    conditions,
)
from repro.core import parallel
from repro.core.decode import decode_file
from repro.core.sync_experiments import protocol_config
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    ScenarioError,
    SupervisionError,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.store import RunStore, run_stored

from .test_adversary import flood_plan, tiny_campaign
from .test_parallel import TINY

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

DROP = FaultPlan(faults=(FaultSpec(kind="drop", probability=0.3),))


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


def toy_plan(workers=1) -> ConditionSweepPlan:
    return ConditionSweepPlan(
        "toy", conditions(TINY, Axis.year(2.0, 6.0)), [5, 6], workers=workers
    )


def samples(result: ConditionSweepResult):
    return [
        (cell.labels, cell.sweep.seeds, cell.sweep.sync_samples)
        for cell in result.cells
    ]


class TestPlan:
    @pytest.fixture(scope="class")
    def one_fanout(self):
        return toy_plan().run()

    def test_cells_follow_conditions(self, one_fanout):
        assert one_fanout.name == "toy"
        assert [cell.labels for cell in one_fanout.cells] == [
            {"year": "2019"}, {"year": "2020"},
        ]
        assert [
            cell.sweep.per_seed[0].config.churn_per_10min
            for cell in one_fanout.cells
        ] == [2.0, 6.0]
        assert one_fanout.cell(year="2020") is one_fanout.cells[1]
        assert one_fanout.cell(year="2021") is None
        assert one_fanout.axis("year") == ["2019", "2020"]

    def test_one_fanout_equals_one_per_unit(self, one_fanout):
        plan = toy_plan()
        per_unit = plan.finish(
            None, [plan.run_unit(None, index) for index in range(plan.units)]
        )
        assert per_unit == one_fanout

    def test_two_workers_equal_one(self, one_fanout):
        assert samples(toy_plan(workers=2).run()) == samples(one_fanout)

    def test_a_failed_seed_lands_on_its_own_cell(self, one_fanout, monkeypatch):
        real = parallel.run_sync_campaign

        def flaky(config):
            if (config.churn_per_10min, config.seed) == (6.0, 5):
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(parallel, "run_sync_campaign", flaky)
        clean, hurt = toy_plan().run().cells
        assert (clean.sweep.failed_seeds, clean.sweep.seeds) == ([], [5, 6])
        assert (hurt.sweep.failed_seeds, hurt.sweep.seeds) == ([5], [6])
        assert clean.sweep == one_fanout.cells[0].sweep
        assert hurt.sweep.per_seed == one_fanout.cells[1].sweep.per_seed[1:]

    def test_a_cell_with_no_completed_seed_reads_none(self, monkeypatch):
        real = parallel.run_sync_campaign

        def lost(config):
            if config.churn_per_10min == 6.0:
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(parallel, "run_sync_campaign", lost)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = toy_plan().run()
            rows = result.degradation_table(year="2019")
            against_the_lost = result.degradation_table(year="2020")
        assert rows[1] == {
            "year": "2020", "mean_sync": None, "median_sync": None,
            "delta_vs_baseline": None, "failed_seeds": [5, 6],
            "retried_seeds": [],
        }
        assert rows[0]["delta_vs_baseline"] == 0.0
        assert [row["delta_vs_baseline"] for row in against_the_lost] == [
            None, None,
        ]
        with pytest.raises(ConfigurationError, match="no axis 'churn'"):
            result.retention_table(along="churn")

    def test_a_stored_cell_that_lost_a_seed_is_not_committed(
        self, one_fanout, tmp_path, monkeypatch
    ):
        real = parallel.run_sync_campaign

        def flaky(config):
            if (config.churn_per_10min, config.seed) == (6.0, 5):
                raise RuntimeError("boom")
            return real(config)

        monkeypatch.setattr(parallel, "run_sync_campaign", flaky)
        with pytest.raises(SupervisionError, match=r"year=2020: seeds \[5\]"):
            run_stored(tmp_path, toy_plan())
        partial_run = RunStore(tmp_path).load_manifest(toy_plan().run_id)
        assert partial_run.status == "running"
        assert partial_run.completed_snapshots == 1
        assert partial_run.result_digest is None
        # the crash is over: the same plan retries just the lost cell
        monkeypatch.setattr(parallel, "run_sync_campaign", real)
        resumed = run_stored(tmp_path, toy_plan())
        assert resumed.resumed_from == 1 and not resumed.cached
        assert resumed.result == one_fanout

    def test_stored_equals_unstored_and_hits_its_cache(
        self, one_fanout, tmp_path
    ):
        stored = run_stored(tmp_path, toy_plan())
        assert stored.result == one_fanout
        assert stored.manifest.kind == "sync-sweep"
        assert stored.manifest.run_id == toy_plan().run_id
        assert stored.manifest.completed_snapshots == 2
        again = run_stored(tmp_path, toy_plan())
        assert again.cached and again.result == one_fanout

    def test_key_covers_name_labels_configs_and_seeds(self):
        points = conditions(TINY, Axis.year())
        key = ConditionSweepPlan("a", points, [5]).key
        assert key == ConditionSweepPlan(
            "a", conditions(TINY, Axis.year()), [5]
        ).key
        relabelled = [
            Condition({"era": c.labels["year"]}, c.config) for c in points
        ]
        assert len(
            {
                key,
                ConditionSweepPlan("b", points, [5]).key,
                ConditionSweepPlan("a", points, [6]).key,
                ConditionSweepPlan("a", points[:1], [5]).key,
                ConditionSweepPlan("a", relabelled, [5]).key,
                ConditionSweepPlan(
                    "a", conditions(TINY, Axis.year(4.0)), [5]
                ).key,
            }
        ) == 6

    def test_an_empty_plan_is_refused(self):
        with pytest.raises(ConfigurationError, match="no conditions"):
            ConditionSweepPlan("empty", [], [5])
        with pytest.raises(ConfigurationError, match="at least one seed"):
            ConditionSweepPlan("seedless", conditions(TINY, Axis.year()), [])


# ---------------------------------------------------------------------------
# The two pivots, on hand-built cells
# ---------------------------------------------------------------------------


def cell(mean=None, failed=(), **labels) -> ConditionCell:
    """A one-seed cell whose pooled mean is ``mean`` (no seed: it failed)."""
    per_seed = [] if mean is None else [
        SyncCampaignResult(
            sync_samples=[mean - 10.0, mean + 10.0],
            sync_departures_per_10min=0.0,
            total_departures=0,
            config=SyncCampaignConfig(),
            fault_stats={"messages_dropped": 3, "messages_delayed": 0},
        )
    ]
    return ConditionCell(
        labels=labels,
        sweep=SyncSweepResult(
            seeds=[1] * len(per_seed), per_seed=per_seed,
            failed_seeds=list(failed),
        ),
    )


class TestDegradationTable:
    def test_delta_is_against_the_selected_cell(self):
        result = ConditionSweepResult(
            "t", [cell(60.0, level=0), cell(45.0, level=1, failed=[9])]
        )
        assert result.degradation_table(level=0) == [
            {"level": 0, "mean_sync": 60.0, "median_sync": 60.0,
             "delta_vs_baseline": 0.0, "failed_seeds": [],
             "retried_seeds": []},
            {"level": 1, "mean_sync": 45.0, "median_sync": 45.0,
             "delta_vs_baseline": -15.0, "failed_seeds": [9],
             "retried_seeds": []},
        ]
        assert [
            row["delta_vs_baseline"]
            for row in result.degradation_table(level=1)
        ] == [15.0, 0.0]

    @pytest.mark.parametrize("baseline", [{}, {"level": 7}])
    def test_no_baseline_no_deltas(self, baseline):
        result = ConditionSweepResult("t", [cell(60.0, level=1)])
        (row,) = result.degradation_table(**baseline)
        assert row["delta_vs_baseline"] is None and row["mean_sync"] == 60.0

    def test_totals_sum_over_seeds(self):
        one = cell(60.0, level=1)
        one.sweep.per_seed *= 2
        assert one.totals("fault_stats") == {
            "messages_dropped": 6, "messages_delayed": 0,
        }
        assert one.totals("attack_stats") == {}
        assert one.tag == "level=1"


class TestRetentionTable:
    def test_groups_differ_only_along_the_axis(self):
        result = ConditionSweepResult(
            "t",
            [
                cell(80.0, variant="a", churn=2.0, tier="x"),
                cell(40.0, variant="a", churn=6.0, tier="x"),
                cell(60.0, variant="b", churn=2.0, tier="x"),
                cell(45.0, variant="b", churn=6.0, tier="x"),
            ],
        )
        assert result.retention_table(along="churn") == [
            {"variant": "a", "tier": "x",
             "mean_sync": {"2": 80.0, "6": 40.0}, "retention": 0.5},
            {"variant": "b", "tier": "x",
             "mean_sync": {"2": 60.0, "6": 45.0}, "retention": 0.75},
        ]
        # the other pivot of the same cells: one group per churn level
        assert [
            (row["churn"], row["mean_sync"])
            for row in ConditionSweepResult(
                "t", [cell(80.0, churn=2.0, n=1), cell(60.0, churn=2.0, n=3)]
            ).retention_table(along="n")
        ] == [(2.0, {"1": 80.0, "3": 60.0})]

    def test_highest_over_lowest_whatever_the_order(self):
        result = ConditionSweepResult(
            "t",
            [cell(30.0, churn=9.0), cell(60.0, churn=1.0), cell(50.0, churn=4.0)],
        )
        (row,) = result.retention_table(along="churn")
        assert row["retention"] == 0.5
        assert list(row["mean_sync"]) == ["9", "1", "4"]

    @pytest.mark.parametrize(
        "cells",
        [
            [cell(80.0, v="a", churn=2.0)],  # one level
            [cell(80.0, v="a", churn=2.0), cell(None, v="a", churn=6.0)],
            [cell(None, v="a", churn=2.0), cell(40.0, v="a", churn=6.0)],
            [cell(0.0, v="a", churn=2.0), cell(40.0, v="a", churn=6.0)],
        ],
        ids=["one-level", "missing-high", "missing-low", "zero-denominator"],
    )
    def test_retention_is_none(self, cells):
        (row,) = ConditionSweepResult("t", cells).retention_table(along="churn")
        assert row["retention"] is None
        assert len(row["mean_sync"]) == len(cells)

    def test_a_group_with_no_completed_cell_has_no_row(self):
        result = ConditionSweepResult(
            "t",
            [
                cell(80.0, v="a", churn=2.0), cell(40.0, v="a", churn=6.0),
                cell(None, v="b", churn=2.0), cell(None, v="b", churn=6.0),
            ],
        )
        assert [row["v"] for row in result.retention_table(along="churn")] == ["a"]


# ---------------------------------------------------------------------------
# The axes
# ---------------------------------------------------------------------------

#: A reachable-tier cohort: over-sized counts exceed the network.
_REACHABLE = AttackPlan(
    attackers=(AttackerSpec(kind="addr_flooder", count=13, tier="reachable"),)
)


@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize(
    "conditions, error, message",
    [
        (lambda: conditions(tiny_campaign(), Axis.intensity(DROP, ())),
         ConfigurationError, "axis 'intensity' has no levels"),
        (lambda: conditions(tiny_campaign(), Axis.intensity(DROP, (0.0, -1.0))),
         FaultInjectionError, "must be >= 0"),
        (lambda: conditions(tiny_campaign(), Axis.condition(_REACHABLE)),
         ConfigurationError, "exceed"),
        (lambda: conditions(
            tiny_campaign(), Axis.condition(flood_plan(), "no-such-variant")),
         ValueError, "no-such-variant"),
        # There is one node-tier model, so no fidelity axis: a
        # hand-built one names the field the sweep's config lacks.
        (lambda: conditions(
            tiny_campaign(), Axis.condition(flood_plan(), "unreachable-relay"),
            Axis("fidelity", [("full", {"fidelity": "full"})])),
         ConfigurationError, "no field 'fidelity'"),
        (lambda: conditions(
            tiny_campaign(), Axis.variant(["baseline"]),
            Axis("fidelity", [("fulll", {"fidelity": "fulll"})])),
         ConfigurationError, "no field 'fidelity'"),
        (lambda: conditions(
            dataclasses.replace(tiny_campaign(), n_reachable=1), Axis.year()),
         ScenarioError, "at least two reachable nodes"),
        (lambda: [], ConfigurationError, "no conditions"),
    ],
    ids=[
        "empty-intensities", "negative-intensity", "oversized-mitigation",
        "unknown-mitigation", "light-tier-mitigation-under-full",
        "unknown-fidelity", "one-node-network", "no-conditions",
    ],
)
def test_a_bad_axis_fails_in_the_builder(
    tmp_path, stored, conditions, error, message
):
    run = partial(run_stored, tmp_path) if stored else ConditionSweepPlan.run
    with pytest.raises(error, match=message):
        run(ConditionSweepPlan("sweep", conditions(), [7], workers=1))
    assert RunStore(tmp_path).manifests() == []


class TestBuilders:
    def test_churn_conditions_carry_every_field(self):
        """``replace``, not a hand copy: a field added to the config
        cannot be dropped on the way to Fig. 1."""
        default = SyncCampaignConfig()
        base = SyncCampaignConfig(
            n_reachable=11, churn_per_10min=1.0,
            block_interval=300.0, pre_mined_blocks=7, sample_period=90.0,
            poll_spread=30.0, warmup=120.0, duration=480.0, seed=99,
            max_events=10_000, faults=DROP, attack=flood_plan(),
            policies=PolicyConfig(variant="churn-resilient"),
        )
        names = [f.name for f in dataclasses.fields(SyncCampaignConfig)]
        assert all(
            getattr(base, name) != getattr(default, name) for name in names
        ), "give the new field a non-default value above"
        for condition, churn in zip(conditions(base, Axis.year()), (5.0, 14.0)):
            assert condition.config == dataclasses.replace(
                base, churn_per_10min=churn
            )

    def test_fault_axis(self):
        points = conditions(TINY, Axis.intensity(DROP, (0, 0.5, 2)))
        assert [c.labels for c in points] == [
            {"intensity": 0.0}, {"intensity": 0.5}, {"intensity": 2.0},
        ]
        assert [len(c.config.faults) for c in points] == [0, 1, 1]
        assert points[0].config == TINY
        assert [
            spec.probability
            for c in points[1:] for spec in c.config.faults.faults
        ] == [0.15, 0.6]

    def test_attack_axis_and_mitigations(self):
        plan, base = flood_plan(4), tiny_campaign()
        points = conditions(base, Axis.attackers(plan, (0, 2, 8)))
        assert [c.labels for c in points] == [
            {"attackers": 0}, {"attackers": 2}, {"attackers": 8},
        ]
        assert points[0].config == base
        assert [c.config.attack.total_count for c in points[1:]] == [2, 8]
        clean, attacked, mitigated = conditions(base, Axis.condition(plan))
        assert [c.labels["condition"] for c in (clean, attacked, mitigated)] == [
            "clean", "attacked", "mitigated",
        ]
        assert clean.config == base
        assert attacked.config == dataclasses.replace(base, attack=plan)
        assert mitigated.config == dataclasses.replace(
            attacked.config, policies=PolicyConfig.improved()
        )
        named = conditions(base, Axis.condition(plan, "churn-resilient"))[2]
        assert named.config.policies == PolicyConfig(variant="churn-resilient")

    def test_variant_cross_product_order_and_labels(self):
        points = conditions(
            tiny_campaign(),
            Axis.variant(["baseline", PolicyConfig(variant="improved")]),
            Axis.churn((2, 6)),
            Axis.faults((FaultPlan(), DROP)),
        )
        assert len(points) == 8
        assert [tuple(c.labels.values()) for c in points[:5]] == [
            ("baseline", 2.0, "none"),
            ("baseline", 2.0, "plan1:drop"),
            ("baseline", 6.0, "none"),
            ("baseline", 6.0, "plan1:drop"),
            ("tried-only+17d+block-prio", 2.0, "none"),
        ]
        last = points[-1]
        assert last.labels == {
            "variant": "tried-only+17d+block-prio", "churn": 6.0,
            "faults": "plan1:drop",
        }
        assert last.config == dataclasses.replace(
            tiny_campaign(), policies=PolicyConfig.improved(),
            churn_per_10min=6.0, faults=DROP,
        )

    def test_variant_lab_defaults_run_the_light_tier(self):
        """Every default variant is runnable, and each runs over the
        light cloud — the one with a light tier gets its assists."""
        points = conditions(
            tiny_campaign(), Axis.variant(), Axis.churn(), Axis.faults(),
        )
        assert {protocol_config(c.config).fidelity for c in points} == {"hybrid"}
        assert "unreachable-relay" in {c.labels["variant"] for c in points}


class TestAxis:
    """Each refusal in one place: the axis itself, or the config a point
    of it selects (``SyncCampaignConfig.validate`` via ``Condition``)."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Axis("churn", []), "axis 'churn' has no levels"),
            (lambda: Axis("era", [("x", {"churn": 2.0})]),
             "axis 'era': SyncCampaignConfig has no field 'churn'"),
            (lambda: conditions(TINY, Axis.year(), Axis.year()),
             r"an axis appears twice in \['year', 'year'\]"),
        ],
        ids=["no-levels", "unknown-field", "twice"],
    )
    def test_a_malformed_axis_is_refused_by_name(self, build, message):
        with pytest.raises(ConfigurationError, match=message):
            build()

    def test_negative_churn_is_refused_for_every_sweep(self):
        for axis in (Axis.churn((-1.0,)), Axis.year(-1.0)):
            with pytest.raises(
                ConfigurationError, match="churn_per_10min must be >= 0"
            ):
                conditions(TINY, axis)

    def test_a_campaign_the_monitor_cannot_sample_twice_is_refused(self):
        """Two samples need ``duration >= 2 x sample_period``: the
        shortest campaign that completes still runs, a second less is
        refused before anything simulates."""
        shortest = dataclasses.replace(TINY, duration=240.0, sample_period=120.0)
        (condition,) = conditions(shortest)
        assert len(parallel.run_sync_campaign(condition.config).sync_samples) == 2
        for config, message in (
            (dataclasses.replace(shortest, duration=239.0),
             "too short for two monitor samples"),
            (dataclasses.replace(shortest, sample_period=0.0),
             "sample_period must be positive"),
        ):
            with pytest.raises(ConfigurationError, match=message):
                Condition({}, config)


# ---------------------------------------------------------------------------
# The CI smokes (attack-smoke, variant-smoke run these by name)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_flood_degrades_sync_monotonically():
    """The shipped flood plan, scaled 0 -> 4 -> 8 attackers on the same
    two seeds: mean sync % strictly falls as the cohort grows, and the
    flooders actually flooded."""
    base = SyncCampaignConfig(n_reachable=16, duration=0.3 * 3600.0, seed=21)
    plan = decode_file(AttackPlan, EXAMPLES / "attackplan_flood.json")
    result = ConditionSweepPlan(
        "attack", conditions(base, Axis.attackers(plan, (0, 4, 8))), [21, 22],
        workers=2,
    ).run()
    rows = result.degradation_table(attackers=0)
    assert [row["attackers"] for row in rows] == [0, 4, 8]
    means = [row["mean_sync"] for row in rows]
    assert means[0] > means[1] > means[2], means
    assert all(not row["failed_seeds"] for row in rows), rows
    assert result.cells[0].totals("attack_stats") == {}
    for attacked in result.cells[1:]:
        assert attacked.totals("attack_stats")["addrs_flooded"] > 0


@pytest.mark.slow
def test_stored_matrix_is_a_cache_hit_with_equal_retention(tmp_path):
    """Two variants x two churn levels through the run store: every
    cell's sweep clean, then an identical invocation is a cache hit with
    the same retention table."""

    def matrix():
        return ConditionSweepPlan(
            "variants",
            conditions(
                tiny_campaign(), Axis.variant(["baseline", "improved"]),
                Axis.churn((2.0, 6.0)), Axis.faults(),
            ),
            [7, 8],
            workers=2,
        )

    first = run_stored(tmp_path, matrix())
    assert not first.cached
    assert len(first.result.cells) == 4
    for done in first.result.cells:
        assert not done.sweep.failed_seeds, done
    table = first.result.retention_table(along="churn")
    assert len(table) == 2
    assert all(row["retention"] is not None for row in table), table
    second = run_stored(tmp_path, matrix())
    assert second.cached, "identical invocation must cache-hit"
    assert second.result.retention_table(along="churn") == table
