"""Tests for the simulation clock and event scheduler."""

from __future__ import annotations

import pytest

from repro.errors import ClockError, SimulationError
from repro.simnet.clock import SimClock
from repro.simnet.events import Scheduler

INF = float("inf")


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_same_time_is_fine(self):
        clock = SimClock()
        clock.advance_to(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_cannot_move_backwards(self):
        clock = SimClock()
        clock.advance_to(10.0)
        with pytest.raises(ClockError):
            clock.advance_to(9.999)


class TestScheduler:
    def setup_method(self):
        self.clock = SimClock()
        self.sched = Scheduler(self.clock)
        self.fired = []

    def test_events_fire_in_time_order(self):
        self.sched.schedule(3.0, self.fired.append, "c")
        self.sched.schedule(1.0, self.fired.append, "a")
        self.sched.schedule(2.0, self.fired.append, "b")
        self.sched.run_until(INF)
        assert self.fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        for label in "abcde":
            self.sched.schedule(1.0, self.fired.append, label)
        self.sched.run_until(INF)
        assert self.fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        self.sched.schedule(7.5, lambda: None)
        assert self.sched.run_until(INF, 1) == (1, True)
        assert self.clock.now == 7.5

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            self.sched.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        self.clock.advance_to(10.0)
        with pytest.raises(SimulationError):
            self.sched.schedule_at(5.0, lambda: None)

    def test_cancel_prevents_firing(self):
        handle = self.sched.schedule(1.0, self.fired.append, "x")
        self.sched.schedule(2.0, self.fired.append, "y")
        handle.cancel()
        self.sched.run_until(INF)
        assert self.fired == ["y"]

    def test_cancel_is_idempotent(self):
        handle = self.sched.schedule(1.0, self.fired.append, "x")
        handle.cancel()
        handle.cancel()
        assert self.sched.run_until(INF) == (0, False)
        assert self.fired == []

    def test_events_can_schedule_events(self):
        def chain():
            self.fired.append("first")
            self.sched.schedule(1.0, self.fired.append, "second")

        self.sched.schedule(1.0, chain)
        self.sched.run_until(INF)
        assert self.fired == ["first", "second"]
        assert self.clock.now == 2.0

    def test_next_event_time_skips_cancelled(self):
        handle = self.sched.schedule(1.0, lambda: None)
        self.sched.schedule(2.0, lambda: None)
        handle.cancel()
        assert self.sched.next_event_time() == 2.0

    def test_run_until_on_empty_heap(self):
        assert self.sched.run_until(INF) == (0, False)
        assert self.sched.run_until(INF, 1) == (0, False)

    def test_fired_counter(self):
        self.sched.schedule(1.0, lambda: None)
        self.sched.schedule(2.0, lambda: None)
        self.sched.run_until(INF)
        assert self.sched.fired == 2

    def test_cancelled_event_drops_references(self):
        big = object()
        handle = self.sched.schedule(1.0, lambda x: None, big)
        handle.cancel()
        assert handle.args == ()
