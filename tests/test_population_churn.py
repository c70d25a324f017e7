"""Tests for the population generator and churn timelines."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.errors import ScenarioError
from repro.netmodel import calibration as cal
from repro.netmodel.asmap import PROFILES, ASUniverse
from repro.netmodel.churn import (
    PresenceTimeline,
    ReachableChurnConfig,
    build_reachable_timeline,
    build_unreachable_timeline,
)
from repro.netmodel.population import NodeClass, Population, PopulationConfig
from repro.store.checkpoint import PICKLE_PROTOCOL
from repro.units import DAYS

from .conftest import make_addr


@pytest.fixture
def population(rng):
    universe = ASUniverse(rng)
    return Population(rng, universe, PopulationConfig(scale=0.005))


class TestPopulationConfig:
    def test_counts_scale(self):
        config = PopulationConfig(scale=0.01)
        assert config.n_reachable == round(cal.CUMULATIVE_REACHABLE * 0.01)
        assert config.n_responsive == round(cal.CUMULATIVE_RESPONSIVE * 0.01)
        total_unreachable = config.n_responsive + config.n_silent
        assert total_unreachable == pytest.approx(
            cal.CUMULATIVE_UNREACHABLE * 0.01, rel=0.01
        )

    def test_invalid_scale(self):
        with pytest.raises(ScenarioError):
            PopulationConfig(scale=0.0).validate()

    def test_overrides(self):
        config = PopulationConfig(scale=1.0, cumulative_reachable=100)
        assert config.n_reachable == 100


class TestPopulation:
    def test_class_sizes(self, population):
        summary = population.summary()
        assert summary["reachable"] == population.config.n_reachable
        assert summary["responsive"] == population.config.n_responsive
        assert summary["silent"] == population.config.n_silent
        assert summary["fake"] == 0

    def test_addresses_unique_across_classes(self, population):
        all_addrs = (
            population.addresses(NodeClass.REACHABLE)
            + population.addresses(NodeClass.RESPONSIVE)
            + population.addresses(NodeClass.SILENT)
        )
        assert len(all_addrs) == len(set(all_addrs))

    def test_classify_ground_truth(self, population):
        for record in population.reachable[:10]:
            assert population.classify(record.addr) is NodeClass.REACHABLE
        for record in population.responsive[:10]:
            assert population.classify(record.addr) is NodeClass.RESPONSIVE
        assert population.classify(make_addr(60000)) is None

    def test_default_port_shares(self, rng):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.05))
        reachable_default = sum(
            1 for r in population.reachable if r.addr.port == 8333
        ) / len(population.reachable)
        unreachable_default = sum(
            1 for r in population.unreachable_records if r.addr.port == 8333
        ) / len(population.unreachable_records)
        assert reachable_default == pytest.approx(0.9578, abs=0.02)
        assert unreachable_default == pytest.approx(0.8854, abs=0.02)

    def test_critical_fraction(self, rng):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.05))
        critical = sum(1 for r in population.reachable if r.critical)
        share = critical / len(population.reachable)
        expected = cal.EXCLUDED_BITNODES / cal.BITNODES_ADDRS_PER_SNAPSHOT
        assert share == pytest.approx(expected, abs=0.02)

    def test_mint_fake_address(self, population):
        record = population.mint_fake_address()
        assert record.node_class is NodeClass.FAKE
        assert population.classify(record.addr) is NodeClass.FAKE
        assert record in population.fake

    def test_is_reachable_addr(self, population):
        assert population.is_reachable_addr(population.reachable[0].addr)
        assert not population.is_reachable_addr(population.silent[0].addr)


class TestPresenceTimeline:
    def test_interval_queries(self):
        timeline = PresenceTimeline(100.0)
        addr = make_addr(1)
        timeline.set_intervals(addr, [(10.0, 20.0), (50.0, 60.0)])
        assert not timeline.alive_at(addr, 5.0)
        assert timeline.alive_at(addr, 15.0)
        assert not timeline.alive_at(addr, 30.0)
        assert timeline.alive_at(addr, 55.0)

    def test_intervals_clipped_to_campaign(self):
        timeline = PresenceTimeline(100.0)
        addr = make_addr(1)
        timeline.set_intervals(addr, [(-10.0, 20.0), (90.0, 200.0)])
        assert timeline.intervals(addr) == [(0.0, 20.0), (90.0, 100.0)]

    def test_entirely_outside_interval_dropped(self):
        timeline = PresenceTimeline(100.0)
        addr = make_addr(1)
        timeline.set_intervals(addr, [(200.0, 300.0)])
        assert not timeline.ever_seen(addr)

    def test_alive_set(self):
        timeline = PresenceTimeline(100.0)
        a, b = make_addr(1), make_addr(2)
        timeline.set_intervals(a, [(0.0, 50.0)])
        timeline.set_intervals(b, [(40.0, 100.0)])
        assert timeline.alive_set([a, b], 45.0) == [a, b]
        assert timeline.alive_set([a, b], 10.0) == [a]


class TestReachableTimeline:
    def _build(self, rng, count=500, scale=0.02, **kwargs):
        universe = ASUniverse(rng)
        population = Population(
            rng, universe,
            PopulationConfig(scale=scale, cumulative_reachable=int(count / scale)),
        )
        config = ReachableChurnConfig(**kwargs)
        timeline = build_reachable_timeline(
            rng, population.reachable, config, cal.CAMPAIGN_DAYS, scale=scale
        )
        return population, config, timeline

    def test_always_on_stay_whole_campaign(self, rng):
        population, config, timeline = self._build(rng)
        horizon = cal.CAMPAIGN_DAYS * DAYS
        n_always = round(config.always_on * 0.02)
        for record in population.reachable[:n_always]:
            assert timeline.alive_at(record.addr, 0.0)
            assert timeline.alive_at(record.addr, horizon - 1.0)

    def test_initial_nodes_alive_at_start(self, rng):
        population, config, timeline = self._build(rng)
        n_initial = round(config.initial_alive * 0.02)
        alive_at_start = sum(
            1
            for record in population.reachable[:n_initial]
            if timeline.alive_at(record.addr, 0.0)
        )
        assert alive_at_start == n_initial

    def test_arrivals_spread_over_campaign(self, rng):
        population, config, timeline = self._build(rng)
        n_initial = round(config.initial_alive * 0.02)
        late = population.reachable[n_initial:]
        alive_at_start = sum(
            1 for record in late if timeline.alive_at(record.addr, 0.0)
        )
        assert alive_at_start == 0

    def test_network_size_roughly_stable(self, rng):
        population, config, timeline = self._build(rng)
        horizon = cal.CAMPAIGN_DAYS * DAYS
        sizes = [
            sum(
                1
                for record in population.reachable
                if timeline.alive_at(record.addr, t)
            )
            for t in (0.25 * horizon, 0.5 * horizon, 0.75 * horizon)
        ]
        initial = round(config.initial_alive * 0.02)
        for size in sizes:
            assert 0.6 * initial < size < 1.5 * initial

    def test_validation(self):
        with pytest.raises(ScenarioError):
            ReachableChurnConfig(retire_prob=0.0).validate()
        with pytest.raises(ScenarioError):
            ReachableChurnConfig(mean_session_days=0.0).validate()
        with pytest.raises(ScenarioError):
            ReachableChurnConfig(always_on=99, initial_alive=50).validate()


class TestUnreachableTimeline:
    def test_occupancy_matches_fraction(self, rng):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.01))
        fraction = 0.3
        timeline = build_unreachable_timeline(
            rng, population.silent, 60.0, fraction
        )
        horizon = 60.0 * DAYS
        occupancies = []
        for t in (0.3 * horizon, 0.5 * horizon, 0.7 * horizon):
            alive = sum(
                1
                for record in population.silent
                if timeline.alive_at(record.addr, t)
            )
            occupancies.append(alive / len(population.silent))
        mean_occ = sum(occupancies) / len(occupancies)
        assert fraction * 0.6 < mean_occ < fraction * 1.4

    def test_invalid_fraction(self, rng):
        with pytest.raises(ScenarioError):
            build_unreachable_timeline(rng, [], 60.0, 1.5)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=PICKLE_PROTOCOL))


class TestPickledColumns:
    """The population, the timelines and the AS universe pickle as packed
    columns and load equal to what was dumped, down to dict order."""

    def test_population(self, rng):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.005))
        trimmed = population.silent[-5:]
        assert population.trim_silent(5) == 5
        for _ in range(3):
            population.mint_fake_address()
        assert any(record.critical for record in population.reachable)

        loaded = _round_trip(population)
        for name in ("reachable", "responsive", "silent", "fake"):
            assert getattr(loaded, name) == getattr(population, name)
        assert list(loaded._by_addr.items()) == list(
            population._by_addr.items()
        )
        assert all(
            type(record.critical) is bool
            for record in loaded._by_addr.values()
        )
        assert not any(loaded.record(record.addr) for record in trimmed)
        assert loaded._reachable_ports == population._reachable_ports
        assert loaded._unreachable_ports == population._unreachable_ports
        # Its generator and universe went with it: it mints what the
        # original mints next.
        assert loaded.mint_fake_address() == population.mint_fake_address()
        assert loaded.summary() == population.summary()

    def test_timelines(self, rng):
        universe = ASUniverse(rng)
        population = Population(rng, universe, PopulationConfig(scale=0.01))
        timelines = [
            build_reachable_timeline(
                rng, population.reachable, ReachableChurnConfig(), 60.0,
                scale=0.01,
            ),
            build_unreachable_timeline(rng, population.silent, 60.0, 0.3),
        ]
        assert max(map(len, timelines[0]._intervals.values())) > 1
        for timeline in timelines:
            loaded = _round_trip(timeline)
            assert loaded.campaign_seconds == timeline.campaign_seconds
            assert list(loaded._intervals.items()) == list(
                timeline._intervals.items()
            )

    def test_universe_draws(self, rng):
        universe = ASUniverse(rng)
        for asn in (3320, 3320, 24940):
            universe.allocate_address(asn)
        loaded = _round_trip(universe)
        assert loaded._class_pairs == universe._class_pairs
        assert loaded._class_cumweights == universe._class_cumweights
        for name in PROFILES:
            mine, theirs = random.Random(7), random.Random(7)
            assert [loaded.sample_asn(name, mine) for _ in range(500)] == [
                universe.sample_asn(name, theirs) for _ in range(500)
            ]
        assert loaded.sample_asn("responsive") == universe.sample_asn(
            "responsive"
        )
        addr = loaded.allocate_address(3320)
        assert addr == universe.allocate_address(3320)
        assert loaded.asn_of(addr) == 3320
