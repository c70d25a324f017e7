"""Tests for the AS universe and Table-I hosting distributions."""

from __future__ import annotations

import random

import pytest

from repro.analysis.stats import k_to_cover
from repro.errors import ScenarioError
from repro.netmodel import calibration as cal
from repro.netmodel.asmap import (
    ASUniverse,
    HostingProfile,
    PROFILES,
    build_class_weights,
)


@pytest.fixture
def universe():
    return ASUniverse(random.Random(4))


class TestBuildClassWeights:
    @pytest.mark.parametrize("name", ["reachable", "unreachable", "responsive"])
    def test_head_matches_table1(self, name):
        profile = PROFILES[name]
        pairs = build_class_weights(profile)
        assert pairs[: len(profile.top)] == profile.top

    @pytest.mark.parametrize("name", ["reachable", "unreachable", "responsive"])
    def test_total_as_count(self, name):
        profile = PROFILES[name]
        assert len(build_class_weights(profile)) == profile.as_count

    @pytest.mark.parametrize(
        "name,target",
        [
            ("reachable", cal.AS_50PCT_REACHABLE),
            ("unreachable", cal.AS_50PCT_UNREACHABLE),
            ("responsive", cal.AS_50PCT_RESPONSIVE),
        ],
    )
    def test_k50_calibrated(self, name, target):
        pairs = build_class_weights(PROFILES[name])
        counts = {asn: weight for asn, weight in pairs}
        assert abs(k_to_cover(counts) - target) <= 2

    def test_mass_sums_to_100(self):
        pairs = build_class_weights(PROFILES["reachable"])
        assert sum(weight for _asn, weight in pairs) == pytest.approx(100.0)

    def test_tiny_as_count_rejected(self):
        profile = HostingProfile("bad", PROFILES["reachable"].top, 10, 5)
        with pytest.raises(ScenarioError):
            build_class_weights(profile)


class TestASUniverse:
    def test_sample_asn_unknown_class(self, universe):
        with pytest.raises(ScenarioError):
            universe.sample_asn("martians")

    def test_sampling_respects_head_weights(self, universe):
        rng = random.Random(8)
        draws = [universe.sample_asn("reachable", rng) for _ in range(4000)]
        share_3320 = draws.count(3320) / len(draws)
        # Table I: AS3320 hosts 8.08% of reachable nodes.
        assert 0.05 < share_3320 < 0.12

    def test_allocated_addresses_are_unique(self, universe):
        seen = set()
        for _ in range(500):
            asn = universe.sample_asn("unreachable")
            addr = universe.allocate_address(asn)
            assert addr not in seen
            seen.add(addr)

    def test_asn_roundtrip(self, universe):
        for _ in range(100):
            asn = universe.sample_asn("responsive")
            addr = universe.allocate_address(asn)
            assert universe.asn_of(addr) == asn

    def test_unknown_address_maps_to_none(self, universe):
        from repro.simnet.addresses import NetAddr

        assert universe.asn_of(NetAddr(ip=0xFFFF0001)) is None

    def test_as_gets_more_prefixes_when_full(self, universe):
        asn = universe.sample_asn("reachable")
        groups = set()
        # A /16 holds 65534 hosts; exceed it to force a second prefix.
        for _ in range(70000):
            groups.add(universe.allocate_address(asn).group16)
        assert len(groups) >= 2

    def test_class_distributions_overlap_partially(self, universe):
        top = {
            name: {asn for asn, _w in universe.class_distribution(name)[:20]}
            for name in ("reachable", "unreachable", "responsive")
        }
        common = top["reachable"] & top["unreachable"] & top["responsive"]
        # Table I: exactly 10 ASes common in the three top-20 lists.
        assert len(common) == 10
