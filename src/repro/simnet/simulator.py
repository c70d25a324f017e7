"""The top-level discrete-event simulator.

A :class:`Simulator` bundles the clock, the event scheduler, the seeded
random streams, and the simulated network transport.  Everything else in
the library (Bitcoin nodes, churn processes, crawlers) is built on this
object and advances only when :meth:`run_until` / :meth:`run_for`
dispatch events.

There is one event engine (:class:`~repro.simnet.events.Scheduler`) and
one dispatch loop, its ``run_until``; code that runs until a condition
holds passes the condition to that loop (``until=``) rather than
stepping the simulator one event at a time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import SimulationError
from .clock import SimClock
from .events import EventHandle, Scheduler
from .latency import LatencyConfig, LatencyModel
from .rand import RandomStreams
from .transport import Network

_INF = float("inf")


# ----------------------------------------------------------------------
# Checkpoint state of set-holding classes
# ----------------------------------------------------------------------
def canonical_sets(
    *names: str, frozen: Tuple[str, ...] = ()
) -> Callable[[type], type]:
    """Class decorator: pickle the named set attributes as sorted tuples.

    A ``set``'s iteration order depends on its insertion history, so two
    *equal* sets — one grown live, one rebuilt by unpickling a
    checkpoint — pickle to different bytes, and content addressing would
    see two states where there is one.  A :meth:`Simulator.snapshot`
    (like every :mod:`repro.store` checkpoint) therefore never contains
    a raw set: every class that owns simulation or result state in one
    carries this decorator, which makes it pickle those attributes as
    sorted tuples and rebuild the sets on load.  Live objects are
    untouched (the attributes stay ``set``s); only the pickled form is
    canonical, which is what lets the checkpoint layer use the stock C
    pickler.  A set-holding class that is *not* decorated is caught by
    ``tests/test_checkpoint_inventory.py``, which walks every checkpoint
    kind with a reference pickler that records raw sets.

    ``names`` are ``set`` attributes, ``frozen`` are ``frozenset`` ones;
    elements must be mutually orderable (``NetAddr``s, ints).  Works for
    ``__dict__`` and ``__slots__`` classes alike.
    """
    rebuild: Dict[str, type] = {name: set for name in names}
    rebuild.update((name, frozenset) for name in frozen)

    def decorate(cls: type) -> type:
        slots = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
        )

        def __getstate__(self: Any) -> Dict[str, Any]:
            state = dict(getattr(self, "__dict__", ()))
            for name in slots:
                state[name] = getattr(self, name)
            for name in rebuild:
                state[name] = tuple(sorted(state[name]))
            return state

        def __setstate__(self: Any, state: Dict[str, Any]) -> None:
            # setattr, never ``__dict__.update(state)``: setattr interns
            # the attribute name the way pickle's own BUILD does.  An
            # un-interned key on a restored object changes the memo
            # back-references of the *next* dump — a resumed run's
            # checkpoint would equal an uninterrupted run's in value and
            # differ from it in bytes.
            for name, value in state.items():
                kind = rebuild.get(name)
                setattr(self, name, value if kind is None else kind(value))

        cls.__getstate__ = __getstate__
        cls.__setstate__ = __setstate__
        return cls

    return decorate


class RunResult(int):
    """Events-dispatched count that also says *why* the run stopped.

    Behaves as a plain ``int`` (the number of dispatched events) so
    existing callers keep working, and carries :attr:`truncated` so new
    callers can distinguish "the world quiesced up to the target time"
    from "the event cap cut the run short and the clock is stale".
    """

    truncated: bool

    def __new__(cls, dispatched: int, truncated: bool) -> "RunResult":
        obj = super().__new__(cls, dispatched)
        obj.truncated = truncated
        return obj

    @property
    def dispatched(self) -> int:
        """The number of events dispatched (same as ``int(self)``)."""
        return int(self)

    def __repr__(self) -> str:
        return f"RunResult(dispatched={int(self)}, truncated={self.truncated})"


class Simulator:
    """Clock + scheduler + RNG streams + network, under one seed."""

    def __init__(
        self,
        seed: int = 0,
        latency_config: Optional[LatencyConfig] = None,
    ) -> None:
        self.seed = int(seed)
        self.clock = SimClock()
        self.scheduler = Scheduler(self.clock)
        self.random = RandomStreams(self.seed)
        latency = LatencyModel(
            latency_config if latency_config is not None else LatencyConfig(),
            seed=self.seed,
            rng=self.random.stream("latency"),
        )
        self.network = Network(self.scheduler, self.clock, latency)
        #: Named components registered for introspection (nodes, services).
        self.components: Dict[str, Any] = {}
        # Fast-path aliases: shadow the class methods with the scheduler's
        # bound methods so the two busiest calls skip a wrapper frame.
        self.schedule = self.scheduler.schedule
        self.schedule_at = self.scheduler.schedule_at

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        return self.scheduler.schedule(delay, callback, *args)

    def schedule_at(self, when: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        return self.scheduler.schedule_at(when, callback, *args)

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until stopped."""
        return PeriodicTask(self, interval, callback, args, start_delay)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single earliest event.  False if none pending.

        Nothing in the library steps; the ledger's traced pass still
        names this method (``benchmarks/ledger/child.py``)."""
        return self.scheduler.run_until(_INF, 1)[0] > 0

    def run_until(self, when: float, max_events: Optional[int] = None) -> RunResult:
        """Dispatch events until the clock reaches ``when``.

        Returns a :class:`RunResult` — the number of events dispatched,
        with ``.truncated`` set when ``max_events`` stopped the run
        early.  Unless truncated, the clock always ends at exactly
        ``when`` even if the heap drains first, so periodic measurement
        code can rely on the final time; a truncated run leaves the
        clock at the last dispatched event because advancing it past
        undispatched events would corrupt time ordering.
        """
        if when < self.clock.now:
            raise SimulationError(
                f"run_until({when}) but clock is already at {self.clock.now}"
            )
        dispatched, truncated = self.scheduler.run_until(when, max_events)
        if not truncated:
            self.clock.advance_to(when)
        return RunResult(dispatched, truncated)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> RunResult:
        """Dispatch events for ``duration`` seconds of simulated time."""
        return self.run_until(self.clock.now + duration, max_events=max_events)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(
        self,
        plan: Any,
        asn_of: Optional[Callable[..., Any]] = None,
        node_provider: Optional[Callable[[], Any]] = None,
    ) -> Any:
        """Compile a :class:`~repro.faults.plan.FaultPlan` onto this run.

        Schedules the plan's activation windows on the ordinary event
        queue, installs the transport hook (when the plan is non-empty),
        and registers the resulting
        :class:`~repro.faults.injector.FaultInjector` as the ``"faults"``
        component so scenario code and reports can read its stats.
        ``asn_of`` enables AS-scoped fault matching; ``node_provider``
        enables crash faults.  Returns the injector.
        """
        # Imported lazily: repro.faults imports from repro.simnet, so a
        # top-level import here would be circular.
        from ..faults.injector import FaultInjector

        injector = FaultInjector(
            self, plan, asn_of=asn_of, node_provider=node_provider
        )
        self.register("faults", injector)
        return injector

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the complete simulation state to bytes.

        The payload captures everything a deterministic replay needs —
        the event queue, the clock, every seeded RNG stream at its
        current position, the network (open sockets, listeners,
        in-flight deliveries), and all registered components plus
        whatever the pending callbacks reach (nodes, addrman tables,
        churn processes).  :meth:`restore` rebuilds a simulator that
        dispatches the exact same event sequence as the original.
        """
        from ..store.checkpoint import dump_checkpoint

        return dump_checkpoint(
            self,
            kind="simulator",
            meta={
                "seed": self.seed,
                "now": self.clock.now,
                "fired": self.scheduler.fired,
                "pending": self.scheduler.pending,
            },
        )

    @classmethod
    def restore(cls, data: bytes) -> "Simulator":
        """Rebuild a simulator from a :meth:`snapshot` payload.

        Validates the checkpoint header (magic, format version, payload
        integrity) before unpickling; raises
        :class:`~repro.errors.SimulationError` on a corrupt or
        wrong-kind payload.
        """
        from ..store.checkpoint import load_checkpoint

        sim = load_checkpoint(data, expect_kind="simulator")
        if not isinstance(sim, cls):
            raise SimulationError(
                f"checkpoint does not contain a {cls.__name__}"
            )
        return sim

    # ------------------------------------------------------------------
    # Component registry
    # ------------------------------------------------------------------
    def register(self, name: str, component: Any) -> None:
        """Register a named component (node, seeder, monitor, ...)."""
        if name in self.components:
            raise SimulationError(f"component {name!r} already registered")
        self.components[name] = component

    def __repr__(self) -> str:
        return (
            f"Simulator(seed={self.seed}, now={self.clock.now:.1f}, "
            f"pending={self.scheduler.pending})"
        )


class PeriodicTask:
    """A repeating callback; create via :meth:`Simulator.call_every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        start_delay: Optional[float],
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._stopped = False
        first = interval if start_delay is None else start_delay
        self._handle = sim.schedule(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        if not self._stopped:
            self._handle = self._sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Stop the periodic task.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
