"""Discrete-event network simulation substrate.

This subpackage is the foundation every other layer builds on: a
deterministic event loop (:class:`Simulator`), simulated addresses and
TCP-like transport with NAT/firewall semantics, and a pairwise latency
model.  It knows nothing about Bitcoin.
"""

from .addresses import DEFAULT_PORT, NetAddr, TimestampedAddr
from .clock import SimClock
from .events import EventHandle, Scheduler
from .latency import LatencyConfig, LatencyModel
from .rand import RandomStreams, derive_seed
from .simulator import PeriodicTask, Simulator
from .transport import (
    DEFAULT_CONNECT_TIMEOUT,
    Network,
    ProbeBehavior,
    ProbeResult,
    Socket,
)

__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "DEFAULT_PORT",
    "EventHandle",
    "LatencyConfig",
    "LatencyModel",
    "NetAddr",
    "Network",
    "PeriodicTask",
    "ProbeBehavior",
    "ProbeResult",
    "RandomStreams",
    "Scheduler",
    "SimClock",
    "Simulator",
    "Socket",
    "TimestampedAddr",
    "derive_seed",
]
