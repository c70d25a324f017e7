"""Tests for the top-level Simulator and periodic tasks."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simnet import Simulator


class TestSimulatorTime:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run_until(5.0)
        assert sim.now == 5.0

    def test_run_until_dispatches_due_events_only(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(9.0, fired.append, "late")
        sim.run_until(5.0)
        assert fired == ["early"]

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(9.0)

    def test_run_for(self, sim):
        sim.run_for(3.0)
        sim.run_for(4.0)
        assert sim.now == 7.0

    def test_run_drains_heap(self, sim):
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, fired.append, delay)
        count = sim.run_until(10.0)
        assert count == 3
        assert fired == [1.0, 2.0, 3.0]
        assert sim.scheduler.pending == 0

    def test_run_detects_runaway(self, sim):
        def forever():
            sim.schedule(0.0, forever)

        sim.schedule(0.0, forever)
        result = sim.run_until(1.0, max_events=100)
        assert result.truncated
        assert sim.now == 0.0

    def test_step(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        assert sim.step() is True
        assert sim.step() is False
        assert fired == [1]


class TestDeterminism:
    def test_same_seed_same_streams(self):
        a = Simulator(seed=7).random.stream("x")
        b = Simulator(seed=7).random.stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_different_streams(self):
        sim = Simulator(seed=7)
        a = sim.random.stream("x")
        b = sim.random.stream("y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_stream_is_cached(self):
        sim = Simulator(seed=7)
        assert sim.random.stream("x") is sim.random.stream("x")


class TestPeriodicTask:
    def test_fires_on_interval(self, sim):
        ticks = []
        sim.call_every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_delay(self, sim):
        ticks = []
        sim.call_every(10.0, lambda: ticks.append(sim.now), start_delay=1.0)
        sim.run_until(25.0)
        assert ticks == [1.0, 11.0, 21.0]

    def test_stop(self, sim):
        ticks = []
        task = sim.call_every(10.0, lambda: ticks.append(sim.now))
        sim.run_until(15.0)
        task.stop()
        sim.run_until(100.0)
        assert ticks == [10.0]

    def test_stop_from_inside_callback(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = sim.call_every(5.0, tick)
        sim.run_until(100.0)
        assert ticks == [5.0, 10.0]

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)


class TestComponentRegistry:
    def test_register_and_lookup(self, sim):
        sim.register("thing", 42)
        assert sim.components["thing"] == 42

    def test_duplicate_rejected(self, sim):
        sim.register("thing", 1)
        with pytest.raises(SimulationError):
            sim.register("thing", 2)
