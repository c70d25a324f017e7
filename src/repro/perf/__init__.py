"""Engine performance instrumentation.

Attach a :class:`PerfRecorder` to a simulation to measure where engine
time goes: events per wall-clock second, heap depth, the cancel ratio,
and per-callback-type wall time.  Instrumentation is strictly opt-in —
when no recorder is attached the scheduler's dispatch loop pays one
``is None`` test per event and calls the callback directly.

Enable it per simulator::

    sim = Simulator(seed=7, perf=True)
    sim.run_for(3600.0)
    print(sim.perf.format_report())

or globally with ``REPRO_PERF=1`` in the environment.
"""

from .memory import MemorySample, live_object_count, read_memory
from .profiler import hotspot_rows, profile_to
from .recorder import PerfRecorder, perf_enabled_by_env

__all__ = [
    "MemorySample",
    "PerfRecorder",
    "hotspot_rows",
    "live_object_count",
    "perf_enabled_by_env",
    "profile_to",
    "read_memory",
]
