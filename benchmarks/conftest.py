"""Shared fixtures for the per-figure benchmark harnesses.

Several figures read different projections of the same 60-day crawl
campaign (Figs. 3, 4, 5, 8, 12, 13, Table I, the ADDR composition), so the
campaign is executed once per session; likewise the Fig. 10/11 relay
experiment and the warm protocol world used by Figs. 6/7 and the resync
measurement.

Scale knobs (environment variables):

``REPRO_BENCH_SCALE``      population scale of the crawl campaign (default 0.02)
``REPRO_BENCH_SNAPSHOTS``  crawl snapshots (default 30)
``REPRO_BENCH_FAST``       set to 1 to shrink the protocol experiments
"""

from __future__ import annotations

import os

import pytest

from repro.core import (
    Axis,
    CampaignRunner,
    ConditionSweepPlan,
    RelayExperimentConfig,
    SyncCampaignConfig,
    conditions,
    run_relay_experiment,
)
from repro.netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
BENCH_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_SNAPSHOTS", "30"))
FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


@pytest.fixture(scope="session")
def campaign():
    """The 60-day crawl campaign, run once (Figs. 3-5, 8, 12, 13, Table I)."""
    scenario = LongitudinalScenario(
        LongitudinalConfig(
            scale=BENCH_SCALE,
            snapshots=BENCH_SNAPSHOTS,
            seed=101,
            # The Fig. 8 distribution needs the full flooder cohort, not a
            # scale-rounded count of ~1; volumes stay scale-proportional.
            flooder_count=73,
        )
    )
    runner = CampaignRunner(scenario)
    result = runner.run()
    return scenario, result


@pytest.fixture(scope="session")
def relay_result():
    """The Fig. 10/11 measurement node run."""
    duration = 2 * 3600.0 if FAST else 4 * 3600.0
    return run_relay_experiment(
        RelayExperimentConfig(duration=duration, n_reachable=30, seed=11)
    )


@pytest.fixture(scope="session")
def warm_protocol():
    """A warmed-up live network for the Fig. 6/7 and resync experiments."""
    scenario = ProtocolScenario(
        ProtocolConfig(
            n_reachable=60,
            seed=5,
            block_interval=600.0,
            # Light live churn: standing nodes occasionally depart, so an
            # observer's connections drop and refill as in Fig. 6.
            churn_per_10min=3.0,
        )
    )
    scenario.start(warmup=1200.0)
    return scenario


@pytest.fixture(scope="session")
def sync_campaigns():
    """The Fig. 1 contrast (2019-like vs 2020-like churn), by year."""
    duration = 1.5 * 3600.0 if FAST else 3 * 3600.0
    base = SyncCampaignConfig(duration=duration, seed=21)
    result = ConditionSweepPlan(
        "fig1", conditions(base, Axis.year()), [base.seed]
    ).run()
    return {cell.labels["year"]: cell.sweep for cell in result.cells}
