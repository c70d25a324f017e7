"""repro — a reproduction of *Root Cause Analyses for the Deteriorating
Bitcoin Network Synchronization* (Saad, Chen, Mohaisen; ICDCS 2021).

The library has four layers:

* :mod:`repro.simnet` — a deterministic discrete-event network simulator
  (clock, events, TCP-like transport with NAT semantics, latency model);
* :mod:`repro.bitcoin` — a behavioural rendering of Bitcoin Core v0.20.1:
  addrman, the connection loops, the round-robin message engine, BIP152
  compact blocks, and the paper's §V policy refinements;
* :mod:`repro.netmodel` — the population model calibrated to the paper's
  measurements (node classes, AS hosting, churn, oracles, flooders) plus
  the two scenario builders;
* :mod:`repro.core` — the paper's contribution: the Fig. 2 measurement
  pipeline and the root-cause analyses behind every figure and table.

Quick start::

    from repro.netmodel import ProtocolScenario, ProtocolConfig
    from repro.core import SyncMonitor

    scenario = ProtocolScenario(ProtocolConfig(n_reachable=100, seed=1))
    monitor = SyncMonitor(scenario, period=600.0)
    scenario.start(warmup=1800.0)
    scenario.sim.run_for(2 * 3600.0)
    print(f"mean sync: {sum(monitor.sync_percents()) / len(monitor.sync_percents()):.1f}%")
"""

from . import analysis, bitcoin, core, netmodel, simnet
from .errors import (
    AnalysisError,
    ChainError,
    ClockError,
    ConnectionClosedError,
    ProtocolError,
    ReproError,
    ScenarioError,
    SimulationError,
    TransportError,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "ChainError",
    "ClockError",
    "ConnectionClosedError",
    "ProtocolError",
    "ReproError",
    "ScenarioError",
    "SimulationError",
    "TransportError",
    "analysis",
    "bitcoin",
    "core",
    "netmodel",
    "simnet",
    "__version__",
]
