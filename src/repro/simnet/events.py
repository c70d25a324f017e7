"""Event scheduling for the discrete-event simulator.

One :class:`Scheduler` implements the contract every figure depends on:
events fire in strict ``(time, sequence)`` order, which makes whole
simulations reproducible from a seed.  It keeps three queues and merges
them by ``(when, seq)`` in one dispatch loop:

* the **cancellable queue** — a heap of ``(when, seq, handle)`` tuples,
  one per :class:`EventHandle` returned by :meth:`Scheduler.schedule` /
  :meth:`Scheduler.schedule_at`.  Tuples keep heap comparisons in C.
* the **no-cancel lane** — a heap of bare ``(when, seq, fire, payload)``
  tuples from :meth:`Scheduler.lane_schedule` /
  :meth:`Scheduler.lane_schedule_at` for traffic that is never cancelled
  (message arrivals, handler passes, connect refusals and timeouts, probe
  answers — 85-99 % of all events on the paper's workloads).  No
  :class:`EventHandle` is allocated.
* the **due-now FIFO** — the lane's zero-delay entries (a node's
  handler-pass wake-up is a third to a half of a protocol world's
  events).  Each is stamped with the clock's time and the next sequence
  number, and neither ever goes back, so appending keeps the FIFO in
  ``(when, seq)`` order and a deque's O(1) ends replace a heap push and
  pop.

All three draw sequence numbers from one counter, so the queue an event
is stored in never changes *when* it fires.  ``tests/`` keeps a naive
single-heap oracle that the property suite compares this module against.

:meth:`Scheduler.run_until` is the only way to dispatch.  A caller that
runs until a condition holds — a measurement pass until it is done or
out of time — passes that condition as ``until``, and the loop tests it
after every event instead of the caller stepping one event at a time.

Cancellation is *lazy*: a cancelled event stays in the heap and is
skipped when it reaches the head.  This keeps ``cancel`` O(1), which
matters because protocol timers are cancelled far more often than they
fire.  The scheduler compacts the heap when dead entries outnumber live
ones, so a cancel-heavy workload (the crawl) cannot grow it without
bound, and a live-event counter makes :attr:`Scheduler.pending` report
live events only (the raw size stays available as
:attr:`Scheduler.pending_raw`).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..errors import SimulationError
from .clock import SimClock

#: Compact once at least this many cancelled entries are stored *and*
#: they outnumber the live ones.
DEFAULT_COMPACT_MIN = 64


class EventHandle:
    """A scheduled callback; returned by :meth:`Scheduler.schedule_at`.

    Hold on to the handle to :meth:`cancel` the event before it fires.
    """

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "_sched")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Owning scheduler while the event is stored there; cleared on
        #: dispatch so a late ``cancel`` cannot corrupt the live counter.
        self._sched: Optional["Scheduler"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references early so cancelled timers do not pin objects
        # (connections, nodes) in memory until they drain from the heap.
        self.callback = _noop
        self.args = ()
        sched = self._sched
        if sched is not None:
            # Counter bookkeeping inlined: cancel is one of the hottest
            # engine entry points (timers are cancelled far more often
            # than they fire).
            self._sched = None
            sched._live -= 1
            sched.cancelled_total += 1
            dead = sched._dead + 1
            sched._dead = dead
            if dead >= sched._compact_min and dead > sched._live:
                sched._compact()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(when={self.when:.3f}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed on cancellation."""


class Scheduler:
    """Deterministic ``(time, seq)``-ordered event queue for a SimClock."""

    def __init__(
        self, clock: SimClock, *, compact_min: int = DEFAULT_COMPACT_MIN
    ) -> None:
        self._clock = clock
        #: The cancellable queue: ``(when, seq, handle)`` tuples.
        self._heap: List[tuple] = []
        #: The no-cancel lane: ``(when, seq, fire, payload)`` tuples.
        self._lane_heap: List[tuple] = []
        #: The lane's zero-delay entries, in ``(when, seq)`` order.
        self._fifo: Deque[tuple] = deque()
        self._seq = 0
        self._fired = 0
        self._live = 0
        self._dead = 0
        self._compact_min = compact_min
        # Whole-run accounting (always on; one integer add per op).
        self.scheduled_total = 0
        self.cancelled_total = 0
        self.compactions = 0

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # setattr, as pickle's own BUILD does, so the names are interned.
        for name, value in state.items():
            setattr(self, name, value)
        if "_fifo" not in state:
            # Written before zero-delay entries had their own queue:
            # every one of them is in the lane heap.
            self._fifo = deque()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def fired(self) -> int:
        """Total number of events executed so far."""
        return self._fired

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled, not yet fired) events."""
        return self._live

    @property
    def pending_raw(self) -> int:
        """Stored entries including lazily cancelled ones."""
        return len(self._heap) + len(self._lane_heap) + len(self._fifo)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying the heap."""
        return self._dead

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``when``."""
        now = self._clock._now
        if when < now:
            raise SimulationError(
                f"cannot schedule event at {when:.3f}, now is {now:.3f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, callback, args)
        handle._sched = self
        heapq.heappush(self._heap, (when, seq, handle))
        self._live += 1
        self.scheduled_total += 1
        return handle

    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now.

        Body duplicates :meth:`schedule_at` rather than delegating: this
        is the busiest cancellable entry point, and ``delay >= 0``
        already guarantees the event is not in the past.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        when = self._clock._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, callback, args)
        handle._sched = self
        heapq.heappush(self._heap, (when, seq, handle))
        self._live += 1
        self.scheduled_total += 1
        return handle

    def lane_schedule(
        self, delay: float, fire: Callable[[Any], Any], payload: Any
    ) -> None:
        """Schedule ``fire(payload)`` on the no-cancel lane.

        The entry is a bare tuple instead of an :class:`EventHandle`, so
        it cannot be cancelled.  The sequence number comes from the
        shared counter, which is what guarantees the merged dispatch
        order matches a single queue.  A zero delay appends to the
        due-now FIFO instead of the lane heap.
        """
        seq = self._seq
        self._seq = seq + 1
        if delay:
            heapq.heappush(
                self._lane_heap, (self._clock._now + delay, seq, fire, payload)
            )
        else:
            self._fifo.append((self._clock._now, seq, fire, payload))
        self._live += 1
        self.scheduled_total += 1

    def lane_schedule_at(
        self, when: float, fire: Callable[[Any], Any], payload: Any
    ) -> None:
        """:meth:`lane_schedule` with an absolute fire time.

        The transport computes arrival times directly (latency plus the
        per-direction FIFO clamp), so the lane must take the exact float
        rather than a delay — ``now + (when - now)`` can differ in the
        last ulp.  Callers guarantee ``when >= now``.
        """
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._lane_heap, (when, seq, fire, payload))
        self._live += 1
        self.scheduled_total += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_until(
        self,
        when: float,
        max_events: Optional[int] = None,
        *,
        until: Optional[Callable[[], bool]] = None,
    ) -> Tuple[int, bool]:
        """The dispatch loop: fire every live event with time <= ``when``.

        Returns ``(dispatched, truncated)`` where ``truncated`` is True
        iff the loop stopped early: ``max_events`` was reached, or
        ``until()`` came true.  ``until`` is tested before the first
        event and after each dispatched one, never between the cancelled
        entries the loop drops.  The clock is advanced to each event's
        time but is *not* moved to ``when`` afterwards — that is the
        Simulator's job, because only the caller knows whether landing
        the clock there is meaningful.
        """
        if until is not None and until():
            return 0, True
        clock = self._clock
        heap = self._heap  # stable: compaction rewrites it in place
        lane = self._lane_heap
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        cap = -1 if max_events is None else max_events
        dispatched = 0
        while dispatched != cap:
            # Every head is O(1) to read, so the earliest is re-decided
            # after every callback; seq is unique, so the tuple
            # comparisons never reach the third element.
            if fifo:
                entry = fifo[0]
                # A FIFO head that sorts before both heap heads is the
                # earliest live event, cancelled heap head or not.
                if (not lane or entry < lane[0]) and (
                    not heap or entry < heap[0]
                ):
                    if entry[0] > when:
                        break
                    popleft()
                    clock._now = entry[0]
                    self._fired += 1
                    self._live -= 1
                    entry[2](entry[3])
                    dispatched += 1
                    if until is not None and until():
                        return dispatched, True
                    continue
                # Otherwise a heap head sorts before it, and the choice
                # between the two heaps below is the right one.
            if lane:
                entry = lane[0]
                # A lane head that sorts before the heap head is the
                # earliest live event whether or not that heap head was
                # cancelled, so the lane path never looks at handles.
                if not heap or entry < heap[0]:
                    if entry[0] > when:
                        break
                    heappop(lane)
                    # Heap order guarantees monotone event times, so
                    # write the clock directly instead of re-validating.
                    clock._now = entry[0]
                    self._fired += 1
                    self._live -= 1
                    entry[2](entry[3])
                    dispatched += 1
                    if until is not None and until():
                        return dispatched, True
                    continue
            elif not heap:
                break
            entry = heap[0]
            handle = entry[2]
            if handle.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > when:
                break
            heappop(heap)
            clock._now = entry[0]
            handle._sched = None
            self._fired += 1
            self._live -= 1
            handle.callback(*handle.args)
            dispatched += 1
            if until is not None and until():
                return dispatched, True
        else:
            return dispatched, True
        return dispatched, False

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        heads = [queue[0] for queue in (heap, self._lane_heap, self._fifo) if queue]
        return min(heads)[0] if heads else None

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop stored cancelled entries, rebuilding the heap in place."""
        heap = self._heap
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
