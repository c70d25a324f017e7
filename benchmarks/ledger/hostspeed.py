"""Host-speed sampling, so that a shared box's noise can be divided out.

On the 2-vCPU reference box the *same* pure-CPU loop takes anywhere
between 1x and 1.6x its best time from one second to the next (a
neighbour on the physical core), per vCPU and uncorrelated between
them.  Raw wall times of identical runs therefore spread 10-16 % (IQR
over median), which is wider than any bound worth gating on.

The sampler runs a small fixed reference workload on the measuring
thread itself — every ``period`` seconds from a ``SIGALRM`` handler, so
it also lands *inside* a single long call into the program — and times
it in thread CPU time, which stretches with the hardware slowdown but
not with preemption by another process.  ``slowdown = measured /
nominal``.  A timed interval is then reported twice: ``wall`` (elapsed
minus the sampler's own time) and ``quiet`` (each stretch between two
samples divided by the mean slowdown of the two), i.e. the seconds the
interval would have taken on this host running at its nominal speed.
On eight same-seed repeats per workload that took the IQR/median of the
timed region from 6-12 % (wall) to 2-4 % (quiet).

The handler touches no program state and draws no random numbers, so
simulated statistics are unaffected (fingerprints pin that).
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Tuple

_TABLE_SIZE = 100_000
_HEAP_SIZE = 8192
_ALU_ITERS = 60_000
_MEM_ITERS = 6_000

#: Thread-CPU seconds the two halves of the reference take on the
#: reference box at its best observed speed inside a workload (5.3e-8
#: and 1.3e-6 s per iteration; the second runs on a cache the workload
#: has just swept).  They only fix the scale of "quiet" seconds; a
#: comparison of two commits on one box never depends on them.
NOMINAL_ALU_S = _ALU_ITERS * 5.3e-8
NOMINAL_MEM_S = _MEM_ITERS * 1.3e-6


class HostSpeed:
    """Samples the host's slowdown; see the module docstring."""

    def __init__(self, period: float = 0.2) -> None:
        self.period = period
        #: (wall_start, wall_end, slowdown) per sample, in time order.
        self.samples: List[Tuple[float, float, float]] = []
        # Ints and tuples of ints only: the garbage collector does not
        # track them, so the reference adds nothing to the program's
        # collection passes.
        self._table = dict.fromkeys(range(_TABLE_SIZE), 0)
        self._heap = [(i * 0.001, (i * 7919) % _TABLE_SIZE) for i in range(_HEAP_SIZE)]
        heapq.heapify(self._heap)

    def sample(self, *_signal_args: object) -> None:
        """Run the reference once: an arithmetic half and a heap/dict
        half, because contention slows the two differently and the
        simulator is a mix of both (on same-seed repeats their plain
        mean steadied all three simulation workloads; either half alone
        left one of them up to twice as wide)."""
        wall_start = time.perf_counter()
        c0 = time.thread_time()
        acc = 0
        for i in range(_ALU_ITERS):
            acc += i * i % 7
        c1 = time.thread_time()
        heap, table = self._heap, self._table
        pop, push = heapq.heappop, heapq.heappush
        for _ in range(_MEM_ITERS):
            when, key = pop(heap)
            table[key] += 1
            push(heap, (when + 8.2, (key * 31 + 7) % _TABLE_SIZE))
        c2 = time.thread_time()
        slowdown = ((c1 - c0) / NOMINAL_ALU_S + (c2 - c1) / NOMINAL_MEM_S) / 2.0
        self.samples.append((wall_start, time.perf_counter(), slowdown))

    def start(self) -> None:
        """Sample now and then every ``period`` seconds (main thread only)."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def interval(self, t0: float, t1: float) -> Tuple[float, float]:
        """``(wall, quiet)`` seconds of ``[t0, t1]`` (``perf_counter``
        readings), both net of the sampler's own execution.  Needs a
        sample at or before ``t0`` and one at or after ``t1``."""
        wall = quiet = 0.0
        for (_, a_end, a_slow), (b_start, _, b_slow) in zip(
            self.samples, self.samples[1:]
        ):
            overlap = min(b_start, t1) - max(a_end, t0)
            if overlap > 0:
                wall += overlap
                quiet += overlap / ((a_slow + b_slow) / 2.0)
        return wall, quiet


class NoHostSpeed:
    """The stand-in for the traced pass, where reference samples would
    only pollute the profile: same surface, ``quiet`` equals ``wall``."""

    period = float("inf")

    def sample(self) -> None:
        pass

    start = stop = sample

    def interval(self, t0: float, t1: float) -> Tuple[float, float]:
        return t1 - t0, t1 - t0
