"""Further simnet details: periodic tasks, scheduler stress, probes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import ProbeBehavior, ProbeResult, Simulator

from .conftest import answer_with, make_addr


class TestSchedulerStress:
    @settings(max_examples=25, deadline=None)
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=80
        )
    )
    def test_events_always_fire_in_nondecreasing_time(self, delays):
        sim = Simulator(seed=0)
        fired_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fired_times.append(sim.now))
        sim.run()
        assert fired_times == sorted(fired_times)
        assert len(fired_times) == len(delays)

    @settings(max_examples=20, deadline=None)
    @given(
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=50),
    )
    def test_exactly_uncancelled_events_fire(self, cancel_mask):
        sim = Simulator(seed=0)
        fired = []
        handles = []
        for index, _cancel in enumerate(cancel_mask):
            handles.append(sim.schedule(1.0 + index, fired.append, index))
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        sim.run()
        expected = [i for i, cancel in enumerate(cancel_mask) if not cancel]
        assert fired == expected

    def test_deep_event_chains(self):
        sim = Simulator(seed=0)
        counter = {"n": 0}

        def chain():
            counter["n"] += 1
            if counter["n"] < 5000:
                sim.schedule(0.001, chain)

        sim.schedule(0.001, chain)
        sim.run()
        assert counter["n"] == 5000
        assert sim.now == pytest.approx(5.0, rel=0.01)


class TestProbeTimings:
    def test_fin_probe_fast_silent_probe_slow(self, sim):
        fin_addr, silent_addr = make_addr(1), make_addr(2)
        answer_with(sim, fin_addr, ProbeBehavior.FIN)
        arrivals = {}

        def record(name):
            def cb(result):
                arrivals[name] = (sim.now, result)

            return cb

        start = sim.now
        sim.network.probe(make_addr(9), fin_addr, record("fin"), timeout=5.0)
        sim.network.probe(make_addr(9), silent_addr, record("silent"), timeout=5.0)
        sim.run_for(10.0)
        fin_time, fin_result = arrivals["fin"]
        silent_time, silent_result = arrivals["silent"]
        assert fin_result is ProbeResult.FIN
        assert silent_result is ProbeResult.SILENT
        assert fin_time - start < 1.0
        assert silent_time - start == pytest.approx(5.0, abs=0.01)

    def test_paper_probe_validation_scenario(self, sim):
        """The paper validated Alg. 2 against three in-house unreachable
        nodes: all three answered FIN.  Reproduce exactly that."""
        in_house = [make_addr(i) for i in (1, 2, 3)]
        for addr in in_house:
            answer_with(sim, addr, ProbeBehavior.FIN)
        results = []
        for addr in in_house:
            sim.network.probe(make_addr(9), addr, results.append)
        sim.run_for(5.0)
        assert results == [ProbeResult.FIN] * 3


class TestRunUntilSemantics:
    def test_max_events_bound(self, sim):
        for index in range(10):
            sim.schedule(1.0, lambda: None)
        dispatched = sim.run_until(5.0, max_events=4)
        assert dispatched == 4
        assert sim.scheduler.pending >= 6
        # The clock must NOT have jumped past the undispatched events:
        # resuming the run dispatches them without time-ordering errors.
        assert sim.now == pytest.approx(1.0)
        sim.run_until(5.0)
        assert sim.now == 5.0
        assert sim.scheduler.pending == 0

    def test_quiescent_network_advances_cleanly(self, sim):
        sim.run_until(1000.0)
        assert sim.now == 1000.0
        assert sim.scheduler.fired == 0
