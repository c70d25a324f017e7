"""One bounded-concurrency measurement pass over a target list.

The GETADDR crawler (Algorithm 1, :mod:`~repro.core.getaddr`) and the
VER prober (Algorithm 2, :mod:`~repro.core.prober`) both work through
their targets inside the simulation, at most ``config.concurrency`` in
flight, until all are settled or a deadline passes.  :class:`BoundedPass`
is that driver: a subclass launches one target (``_launch``) and reports
its end (``_finished``).  A pass still busy at its deadline is aborted:
nothing stays pending, the subclass releases what it holds open
(``_release``) and ignores what lands later, so the result it returned
never changes again.
"""

from __future__ import annotations

from math import inf
from typing import Any, Iterable, List, Optional

from ..errors import ScenarioError
from ..simnet.addresses import NetAddr
from ..simnet.simulator import Simulator


class BoundedPass:
    """A pass over targets with at most ``config.concurrency`` in flight."""

    #: The config class a subclass builds when it is given none.
    config_type: type

    def __init__(
        self, sim: Simulator, addr: NetAddr, config: Optional[Any] = None
    ) -> None:
        self.sim = sim
        self.addr = addr
        self.config = config if config is not None else self.config_type()
        self.config.validate()
        self._pending: List[NetAddr] = []
        self._in_flight = 0
        self._result: Any = None
        self.done = False
        #: True when the last pass hit its deadline (or a quiet
        #: simulator) with work outstanding: its result is partial.
        self.aborted = False

    def _start(self, targets: Iterable[NetAddr], result: Any) -> Any:
        """Begin a pass whose outcomes fill ``result``; returns it.

        Refused while targets are in flight: those of a running pass, or
        of an aborted one whose late outcomes would land in this one."""
        if self._in_flight:
            raise ScenarioError(f"{type(self).__name__} has targets in flight")
        self.done = False
        self.aborted = False
        self._result = result
        self._pending = list(targets)
        self._fill()
        return result

    def _drive(self, max_seconds: float) -> Any:
        """Dispatch events until the pass ends or ``max_seconds`` of
        simulated time pass; abort what is still outstanding then.

        The stop test runs inside the dispatch loop, before the first
        event and after each one, so the event that reaches the deadline
        still fires, and a quiet simulator ends the pass too."""
        clock = self.sim.clock
        deadline = clock.now + max_seconds
        self.sim.scheduler.run_until(
            inf, until=lambda: self.done or clock._now >= deadline
        )
        if not self.done:
            self.aborted = True
            self.done = True
            self._pending.clear()
            self._release()
        return self._result

    def _fill(self) -> None:
        """Launch pending targets into free slots; the pass is done once
        nothing is pending or in flight."""
        pending = self._pending
        while pending and self._in_flight < self.config.concurrency:
            self._in_flight += 1
            self._launch(pending.pop())
        if not (pending or self._in_flight):
            self.done = True

    def _finished(self) -> None:
        """One launched target is settled: its slot takes the next."""
        self._in_flight -= 1
        self._fill()

    def _requeue(self, target: NetAddr) -> None:
        """Queue ``target`` for another launch, unless the pass was
        aborted."""
        if not self.aborted:
            self._pending.append(target)

    def _launch(self, target: NetAddr) -> None:
        """Start the work on one target; it ends in :meth:`_finished`."""
        raise NotImplementedError

    def _release(self) -> None:
        """Close what an aborted pass still holds open (nothing here)."""
