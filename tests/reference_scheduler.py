"""The reference scheduler: a test oracle for ``repro.simnet.events``.

This is the seed engine, re-homed from ``src/`` and trimmed to what an
oracle needs: ONE binary heap of handle objects ordered by a Python
``__lt__`` on ``(when, seq)`` — no lane heap, no due-now FIFO, no
tuples, no compaction.  ``lane_schedule*`` are plain ``schedule*``, so
a world built on this class routes every event through the single
queue.  ``until`` is tested at the top of every turn of the loop.  It
is deliberately too slow and too simple to be wrong in the same way as
the production :class:`~repro.simnet.events.Scheduler`, which is the
point: the hypothesis program in ``test_engine_fastpath.py`` and the
scenario-level equivalence tests compare the two event for event.

There is no production seam for it: :func:`on_reference_scheduler`
patches the name ``repro.simnet.simulator`` constructs.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError


def on_reference_scheduler(monkeypatch, fn):
    """Run ``fn()`` with every new Simulator built on the oracle."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.simnet.simulator.Scheduler", ReferenceScheduler)
        return fn()


class ReferenceHandle:
    __slots__ = ("when", "seq", "callback", "args", "cancelled", "_sched")

    def __init__(self, when, seq, callback, args, sched):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sched = sched

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if self._sched is not None:  # still stored: it was live until now
            self._sched.pending -= 1
            self._sched.cancelled_total += 1
            self._sched = None

    def __lt__(self, other):
        return (self.when, self.seq) < (other.when, other.seq)


class ReferenceScheduler:
    def __init__(self, clock):
        self._clock = clock
        self._heap = []
        self._seq = 0
        self.fired = 0
        self.pending = 0
        self.scheduled_total = 0
        self.cancelled_total = 0

    def schedule_at(self, when, callback, *args):
        if when < self._clock.now:
            raise SimulationError(
                f"cannot schedule event at {when:.3f}, now is "
                f"{self._clock.now:.3f}"
            )
        handle = ReferenceHandle(when, self._seq, callback, args, self)
        self._seq += 1
        heapq.heappush(self._heap, handle)
        self.pending += 1
        self.scheduled_total += 1
        return handle

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._clock.now + delay, callback, *args)

    def lane_schedule(self, delay, fire, payload):
        self.schedule(delay, fire, payload)

    def lane_schedule_at(self, when, fire, payload):
        self.schedule_at(when, fire, payload)

    def next_event_time(self):
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].when if heap else None

    def run_until(self, when, max_events=None, *, until=None):
        dispatched = 0
        while dispatched != max_events:
            if until is not None and until():
                return dispatched, True
            head = self.next_event_time()
            if head is None or head > when:
                return dispatched, False
            event = heapq.heappop(self._heap)
            self._clock.advance_to(event.when)
            event._sched = None
            self.fired += 1
            self.pending -= 1
            event.callback(*event.args)
            dispatched += 1
        return dispatched, True
