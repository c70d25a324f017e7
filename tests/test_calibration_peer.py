"""Tests for the calibration constants' self-consistency and the Peer state."""

from __future__ import annotations

import pytest

from repro.bitcoin.messages import GetAddr, Ping
from repro.bitcoin.peer import Peer
from repro.netmodel import calibration as cal
from repro.simnet import Simulator
from repro.simnet.transport import Socket

from .conftest import make_addr


class TestCalibrationConsistency:
    def test_responsive_share_matches_counts(self):
        share = cal.CUMULATIVE_RESPONSIVE / cal.CUMULATIVE_UNREACHABLE
        assert share == pytest.approx(cal.RESPONSIVE_SHARE_CUMULATIVE, abs=0.01)

    def test_addr_shares_sum_to_one(self):
        assert cal.ADDR_REACHABLE_SHARE + cal.ADDR_UNREACHABLE_SHARE == pytest.approx(1.0)

    def test_unreachable_ratio_consistent(self):
        ratio = cal.CUMULATIVE_UNREACHABLE / cal.CUMULATIVE_REACHABLE
        assert ratio == pytest.approx(cal.UNREACHABLE_TO_REACHABLE_RATIO, rel=0.05)

    def test_daily_churn_rate_consistent(self):
        rate = cal.DAILY_CHURN_NODES / cal.CONNECTED_PER_SNAPSHOT
        assert rate == pytest.approx(cal.DAILY_CHURN_RATE, abs=0.005)

    def test_common_addrs_bounded_by_sources(self):
        assert cal.COMMON_ADDRS_PER_SNAPSHOT <= cal.DNS_ADDRS_PER_SNAPSHOT
        assert cal.COMMON_ADDRS_PER_SNAPSHOT <= cal.BITNODES_ADDRS_PER_SNAPSHOT

    def test_excluded_bounded(self):
        assert cal.EXCLUDED_COMMON <= min(cal.EXCLUDED_BITNODES, cal.EXCLUDED_DNS)

    @pytest.mark.parametrize(
        "top",
        [cal.TOP_AS_REACHABLE, cal.TOP_AS_UNREACHABLE, cal.TOP_AS_RESPONSIVE],
    )
    def test_table1_tops_sorted_descending(self, top):
        percents = [pct for _asn, pct in top]
        assert percents == sorted(percents, reverse=True)
        assert len(top) == 20
        assert sum(percents) < 100.0

    def test_table1_overlap_is_ten(self):
        sets = [
            {asn for asn, _p in top}
            for top in (
                cal.TOP_AS_REACHABLE,
                cal.TOP_AS_UNREACHABLE,
                cal.TOP_AS_RESPONSIVE,
            )
        ]
        assert len(sets[0] & sets[1] & sets[2]) == 10

    def test_sync_values_ordered(self):
        assert cal.SYNC_MEAN_2020 < cal.SYNC_MEAN_2019
        assert cal.SYNC_MEDIAN_2020 < cal.SYNC_MEDIAN_2019
        assert cal.SYNC_DEPARTURES_2019 < cal.SYNC_DEPARTURES_2020


class TestPeer:
    def _peer(self, inbound=False):
        sim = Simulator(seed=1)
        socket = Socket(
            sim.network, make_addr(1), make_addr(2), inbound, opened_at=0.0
        )
        return Peer(socket, connected_at=0.0)

    def test_direction_labels(self):
        assert self._peer(inbound=True).direction == "inbound"
        assert self._peer(inbound=False).direction == "outbound"

    def test_enqueue_order_default(self):
        peer = self._peer()
        first, second = GetAddr(), Ping()
        peer.enqueue_send(first)
        peer.enqueue_send(second)
        assert list(peer.send_queue) == [first, second]

    def test_enqueue_front_jumps_queue(self):
        """The §V priority path: blocks go ahead of pending replies."""
        peer = self._peer()
        queued, priority = GetAddr(), Ping()
        peer.enqueue_send(queued)
        peer.enqueue_send(priority, to_front=True)
        assert list(peer.send_queue) == [priority, queued]

    def test_initial_state(self):
        peer = self._peer()
        assert not peer.established
        assert peer.remote_height == -1
        assert not peer.pending_tx_invs
        assert not peer.blocks_in_flight
        assert not peer.sent_getaddr
        assert not peer.served_getaddr
