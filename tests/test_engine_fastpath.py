"""Scheduler tests: oracle equivalence (regular queue, no-cancel lane and
due-now FIFO), live counters, truncated and predicate-stopped runs,
compaction, the pickled layout and periodic-task edges.

The production :class:`~repro.simnet.events.Scheduler` must be
*observationally identical* to the naive single-heap oracle in
``tests/reference_scheduler.py`` — same events, same order, same clock
positions — so the property tests run one generated program against
both and compare traces.
"""

from __future__ import annotations

import pickle
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import Simulator
from repro.simnet.clock import SimClock
from repro.simnet.events import Scheduler

from .reference_scheduler import ReferenceScheduler


def make_scheduler(**kwargs):
    return Scheduler(SimClock(), **kwargs)


# ---------------------------------------------------------------------------
# Oracle equivalence (property-based)
# ---------------------------------------------------------------------------
#: One program step: (op, value) interpreted by ``run_program``.
_ops = st.one_of(
    st.tuples(st.just("schedule"), st.floats(0.0, 120.0, allow_nan=False)),
    st.tuples(st.just("lane"), st.floats(0.0, 120.0, allow_nan=False)),
    st.tuples(st.just("lane_at"), st.floats(0.0, 120.0, allow_nan=False)),
    st.tuples(st.just("lane_now"), st.none()),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
    st.tuples(st.just("run_for"), st.floats(0.0, 30.0, allow_nan=False)),
    st.tuples(st.just("run_events"), st.integers(0, 8)),
    st.tuples(st.just("run_until_traced"), st.integers(0, 8)),
)

#: Tags at or above this mark follow-up events, which schedule nothing
#: further (keeps follow-ups from chaining forever).
_FOLLOW_UP = 100_000


def run_program(scheduler, program):
    """Interpret a (op, value) list; return the dispatch trace.

    The trace also holds each run's return value and, after every
    top-level op and inside the callbacks that schedule a zero-delay
    lane entry, the live count and the next event time."""
    trace = []
    handles = []
    clock = scheduler._clock

    def fire(tag):
        # The same callback serves both queues: a regular event passes
        # the tag as its one argument, a lane entry as its payload.
        trace.append((round(clock.now, 9), tag))
        if tag >= _FOLLOW_UP:
            return
        # Every firing of a top-level event schedules from inside the
        # callback, across both queues and in both directions.
        kind = tag % 4
        if kind == 0:
            handles.append(scheduler.schedule(0.75, fire, tag + _FOLLOW_UP))
        elif kind == 1:
            scheduler.lane_schedule(0.25, fire, tag + _FOLLOW_UP)
        elif kind == 2:
            # An immediate regular event: it must fire before every lane
            # entry already stored for a later time.  The zero-delay lane
            # entry after it has a higher seq at the same time, and goes
            # to the due-now FIFO.
            handles.append(scheduler.schedule(0.0, fire, tag + _FOLLOW_UP))
            scheduler.lane_schedule_at(clock.now, fire, tag + 2 * _FOLLOW_UP)
            scheduler.lane_schedule(0.0, fire, tag + 3 * _FOLLOW_UP)
            trace.append(("in", scheduler.pending, scheduler.next_event_time()))
        elif handles:
            handles[tag * 7 % len(handles)].cancel()

    tags = iter(range(_FOLLOW_UP))
    for op, value in program:
        if op == "schedule":
            handles.append(scheduler.schedule(value, fire, next(tags)))
        elif op == "lane":
            scheduler.lane_schedule(value, fire, next(tags))
        elif op == "lane_at":
            scheduler.lane_schedule_at(clock.now + value, fire, next(tags))
        elif op == "lane_now":
            scheduler.lane_schedule(0.0, fire, next(tags))
        elif op == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif op == "run_for":
            trace.append(scheduler.run_until(clock.now + value))
        elif op == "run_events":
            trace.append(scheduler.run_until(float("inf"), value))
        elif op == "run_until_traced":
            start = len(trace)
            trace.append(
                scheduler.run_until(
                    float("inf"), until=lambda: len(trace) - start >= value
                )
            )
        trace.append(("after", scheduler.pending, scheduler.next_event_time()))
    # Drain whatever remains so the full order is compared.
    scheduler.run_until(float("inf"), 100_000)
    return trace


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=40), st.sampled_from((64, 1)))
def test_scheduler_matches_reference_dispatch_order(program, compact_min):
    """Regular + lane traffic fires in the oracle's single-queue order.

    ``compact_min=1`` compacts on nearly every cancel, including cancels
    issued from inside a callback while the dispatch loop holds the heap.
    """
    scheduler = make_scheduler(compact_min=compact_min)
    reference = ReferenceScheduler(SimClock())
    assert run_program(scheduler, program) == run_program(reference, program)
    assert scheduler.fired == reference.fired
    assert scheduler.pending == reference.pending == 0
    assert scheduler.pending_raw == 0
    assert scheduler.scheduled_total == reference.scheduled_total
    assert scheduler.cancelled_total == reference.cancelled_total
    assert scheduler._clock.now == reference._clock.now


def test_lane_merges_with_regular_queue_by_time_then_seq():
    sched = make_scheduler()
    trace = []
    sched.lane_schedule(2.0, trace.append, "lane-2.0")
    sched.schedule(1.0, trace.append, "regular-1.0")
    sched.lane_schedule_at(1.0, trace.append, "lane-1.0")  # same time, later seq
    sched.schedule(1.0, trace.append, "regular-1.0-late")
    assert sched.pending == sched.pending_raw == 4
    assert sched.next_event_time() == 1.0
    assert sched.run_until(1.0) == (3, False)
    assert trace == ["regular-1.0", "lane-1.0", "regular-1.0-late"]
    assert sched.next_event_time() == 2.0
    assert sched.run_until(float("inf"), 1) == (1, True)
    assert sched.run_until(float("inf"), 1) == (0, False)
    assert trace[-1] == "lane-2.0"
    assert sched.fired == 4


def test_next_event_time_skips_cancelled_heads():
    sched = make_scheduler()
    first = sched.schedule(1.0, lambda: None)
    sched.schedule(3.0, lambda: None)
    first.cancel()
    assert sched.next_event_time() == 3.0
    assert sched.cancelled_pending == 0  # the dead head was dropped
    sched.lane_schedule(2.0, lambda _payload: None, None)
    assert sched.next_event_time() == 2.0


def test_zero_delay_lane_entries_queue_beside_the_heaps():
    sched = make_scheduler()
    clock = sched._clock
    trace = []

    def first(_payload):
        trace.append("first")
        sched.schedule(0.0, trace.append, "regular-now")
        sched.lane_schedule(0.0, trace.append, "fifo-a")
        sched.lane_schedule(0.0, trace.append, "fifo-b")
        # Stored: the regular event, the two FIFO entries, the lane
        # entry at 1.5; the FIFO is counted everywhere.
        assert sched.pending == sched.pending_raw == 4
        assert len(sched._fifo) == 2
        assert sched.next_event_time() == clock.now == 1.0

    sched.lane_schedule(1.0, first, None)
    sched.lane_schedule(1.5, trace.append, "lane-1.5")
    assert sched.run_until(1.0, 2) == (2, True)
    assert trace == ["first", "regular-now"]
    assert sched.pending == sched.pending_raw == 3
    assert sched.next_event_time() == 1.0
    assert sched.run_until(2.0) == (3, False)
    assert trace[2:] == ["fifo-a", "fifo-b", "lane-1.5"]
    assert sched.pending == sched.pending_raw == 0
    assert sched.next_event_time() is None


# ---------------------------------------------------------------------------
# The stop predicate
# ---------------------------------------------------------------------------
def test_until_is_tested_before_the_first_event_and_after_each():
    sched = make_scheduler()
    clock = sched._clock
    trace = []
    for when in (1.0, 2.0, 3.0):
        sched.schedule(when, trace.append, when)
    assert sched.run_until(10.0, until=lambda: True) == (0, True)
    assert trace == [] and clock.now == 0.0
    # A predicate stop leaves the clock at the last event fired.
    assert sched.run_until(10.0, until=lambda: clock.now >= 2.0) == (2, True)
    assert trace == [1.0, 2.0] and clock.now == 2.0
    assert sched.pending == 1
    # A predicate that never holds runs like no predicate.
    assert sched.run_until(10.0, until=lambda: False) == (1, False)


# ---------------------------------------------------------------------------
# The pickled layout
# ---------------------------------------------------------------------------
class _Chain:
    """Picklable callbacks: each regular event records itself and
    schedules a zero-delay lane entry and a later one."""

    def __init__(self, sched):
        self.sched = sched
        self.trace = []

    def regular(self, tag):
        self.trace.append((self.sched._clock.now, tag))
        if tag < _FOLLOW_UP:
            self.sched.lane_schedule(0.0, self.lane, tag + _FOLLOW_UP)
            self.sched.lane_schedule(0.5, self.lane, tag + 2 * _FOLLOW_UP)

    def lane(self, tag):
        self.trace.append((self.sched._clock.now, tag))


def _chain_world(sched):
    chain = _Chain(sched)
    for tag in range(6):
        sched.schedule(float(tag % 3), chain.regular, tag)
    # Zero-delay lane entries as every scheduler stored them before the
    # due-now FIFO: in the lane heap.
    sched.lane_schedule_at(0.0, chain.lane, 90)
    sched.lane_schedule_at(0.0, chain.lane, 91)
    return chain


def test_a_scheduler_pickled_without_the_fifo_dispatches_the_same():
    reference = _chain_world(ReferenceScheduler(SimClock()))
    reference.sched.run_until(float("inf"))

    chain = _chain_world(make_scheduler())
    del chain.sched._fifo  # the layout written before the FIFO existed
    blob = pickle.dumps(chain)
    assert b"_fifo" not in blob
    loaded = pickle.loads(blob)
    assert loaded.sched._fifo == deque()
    assert loaded.sched.pending_raw == loaded.sched.pending == 8
    loaded.sched.run_until(float("inf"))
    assert loaded.trace == reference.trace
    assert loaded.sched.fired == reference.sched.fired == 20


# ---------------------------------------------------------------------------
# Live counters: pending vs pending_raw
# ---------------------------------------------------------------------------
def test_pending_excludes_cancelled():
    sched = make_scheduler()
    handles = [sched.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sched.pending == sched.pending_raw == 10
    for handle in handles[:4]:
        handle.cancel()
    assert sched.pending == 6
    # Lazy cancellation: the raw count still includes stored corpses.
    assert sched.pending_raw >= sched.pending
    assert sched.cancelled_pending == sched.pending_raw - sched.pending

    sched.run_until(float("inf"))
    assert sched.pending == sched.pending_raw == 0
    assert sched.fired == 6


def test_cancel_is_idempotent_for_counters():
    sched = make_scheduler()
    handle = sched.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert sched.pending == 0
    assert sched.cancelled_total == 1


def test_cancel_after_fire_does_not_corrupt_counters():
    sched = make_scheduler()
    handle = sched.schedule(1.0, lambda: None)
    sched.run_until(float("inf"))
    assert sched.pending == 0
    handle.cancel()  # late cancel of an already-fired event
    assert sched.pending == 0
    assert sched.cancelled_total == 0


def test_simulator_repr_reports_live_pending():
    sim = Simulator(seed=1)
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
    for handle in handles[:3]:
        handle.cancel()
    assert "pending=2" in repr(sim)


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------
def test_compacts_when_dead_entries_dominate():
    sched = make_scheduler(compact_min=64)
    handles = [sched.schedule(5.0, lambda: None) for _ in range(200)]
    for handle in handles[:150]:
        handle.cancel()
    assert sched.compactions >= 1
    # Compaction reclaimed storage; only post-compaction corpses (fewer
    # than the threshold, since the dead counter resets) may linger.
    assert sched.pending == 50
    assert sched.pending_raw < 200
    assert sched.cancelled_pending == sched.pending_raw - sched.pending < 64
    sched.run_until(float("inf"))
    assert sched.fired == 50


def test_compaction_preserves_dispatch_order():
    compacting = make_scheduler(compact_min=8)
    reference = ReferenceScheduler(SimClock())
    program = []
    for i in range(100):
        program.append(("schedule", (i * 37 % 50) / 3.0))
        # Cancel aggressively so dead entries outnumber live ones and
        # the threshold (8) trips repeatedly mid-program.
        program.append(("cancel", i * 13))
        program.append(("cancel", i * 7 + 3))
        if i % 19 == 0:
            program.append(("run_events", 2))
    assert run_program(compacting, program) == run_program(reference, program)
    assert compacting.compactions >= 1


def test_compaction_from_inside_a_callback_keeps_the_loop_consistent():
    """A cancel issued by a running callback may compact the heap the
    dispatch loop is iterating; the rebuild must happen in place."""
    sched = make_scheduler(compact_min=1)
    trace = []

    def first():
        trace.append("first")
        doomed_a.cancel()
        doomed_b.cancel()  # dead (2) now outnumbers live (1): compacts

    sched.schedule(1.0, first)
    doomed_a = sched.schedule(2.0, trace.append, "doomed")
    doomed_b = sched.schedule(3.0, trace.append, "doomed")
    sched.schedule(4.0, trace.append, "survivor")
    sched.run_until(float("inf"))
    assert sched.compactions >= 1
    assert trace == ["first", "survivor"]
    assert sched.fired == 2
    assert sched.pending == sched.pending_raw == sched.cancelled_pending == 0


# ---------------------------------------------------------------------------
# run_until truncation
# ---------------------------------------------------------------------------
def test_run_until_truncated_flag():
    sim = Simulator(seed=1)
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    result = sim.run_until(100.0, max_events=4)
    assert result == 4  # still behaves as an int
    assert result.dispatched == 4
    assert result.truncated is True
    # Truncated: the clock stays at the last dispatched event, not 100.
    assert sim.now == 4.0

    result = sim.run_until(100.0)
    assert result.dispatched == 6
    assert result.truncated is False
    assert sim.now == 100.0


def test_run_until_not_truncated_at_exact_cap():
    """Hitting the cap exactly when the work runs out still reports
    truncated: the engine cannot know the next event would not qualify."""
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    result = sim.run_until(10.0, max_events=1)
    assert result.dispatched == 1
    assert result.truncated is True


def test_run_for_returns_run_result():
    sim = Simulator(seed=1)
    sim.schedule(0.5, lambda: None)
    result = sim.run_for(2.0)
    assert result.dispatched == 1
    assert result.truncated is False
    assert sim.now == 2.0


# ---------------------------------------------------------------------------
# PeriodicTask edges
# ---------------------------------------------------------------------------
def test_periodic_start_delay_zero_fires_immediately(sim):
    ticks = []
    sim.call_every(10.0, lambda: ticks.append(sim.now), start_delay=0.0)
    sim.run_until(25.0)
    assert ticks == [0.0, 10.0, 20.0]


def test_periodic_stop_before_first_fire(sim):
    ticks = []
    task = sim.call_every(10.0, lambda: ticks.append(sim.now))
    task.stop()
    sim.run_until(100.0)
    assert ticks == []
    assert sim.scheduler.pending == 0


def test_periodic_stop_leaks_no_handles(sim):
    task = sim.call_every(5.0, lambda: None)
    sim.run_until(12.0)
    assert sim.scheduler.pending == 1  # exactly the next firing
    task.stop()
    assert sim.scheduler.pending == 0
    task.stop()  # idempotent
    assert sim.scheduler.pending == 0
    sim.run_until(1000.0)
    assert sim.scheduler.fired == 2  # only the pre-stop firings


def test_periodic_stop_inside_callback_leaves_clean_heap(sim):
    ticks = []

    def tick():
        ticks.append(sim.now)
        task.stop()

    task = sim.call_every(5.0, tick)
    sim.run_until(100.0)
    assert ticks == [5.0]
    assert sim.scheduler.pending == 0
