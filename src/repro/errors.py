"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so a
caller can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An inconsistency in the discrete-event simulation core."""


class ClockError(SimulationError):
    """An attempt to move simulated time backwards."""


class TransportError(SimulationError):
    """An invalid operation on the simulated network transport."""


class ConnectionClosedError(TransportError):
    """Sending on (or otherwise using) a connection that is already closed."""


class AddressInUseError(TransportError):
    """Registering a listener on an address that already has one."""


class ProtocolError(ReproError):
    """A violation of the simulated Bitcoin wire protocol."""


class HandshakeError(ProtocolError):
    """A version handshake failed or a message arrived before VERACK."""


class ChainError(ReproError):
    """An inconsistency in a simulated blockchain (unknown parent etc.)."""


class ScenarioError(ReproError):
    """Invalid scenario configuration (e.g. negative population sizes)."""


class ConfigurationError(ReproError, ValueError):
    """A malformed harness setting (CLI flag, environment variable, plan file).

    Subclasses :class:`ValueError` as well so call sites that predate the
    taxonomy (``except ValueError``) keep working.
    """


class FaultInjectionError(ConfigurationError):
    """An invalid fault plan or a fault that cannot apply to this world.

    Raised at compile time (malformed :class:`~repro.faults.plan.FaultSpec`,
    a crash fault with no node provider) rather than mid-simulation: a
    fault plan either installs completely or not at all.  A malformed
    plan is a malformed setting, so a submission carrying one is a 400
    and a CLI run exits 2, like any other :class:`ConfigurationError`.
    """


class SupervisionError(ReproError):
    """Base class for supervised-runner failures."""


class SeedTaskError(SupervisionError):
    """One seed's task failed permanently under the supervised runner.

    Carries enough structure for partial-result reporting: which seed,
    how many attempts were made, and the terminal cause (``"crashed
    (exit code -9)"``, ``"hung past 30.0s timeout"``, or the task's own
    exception rendered as text).
    """

    def __init__(self, seed: object, attempts: int, cause: str) -> None:
        super().__init__(
            f"seed {seed!r} failed after {attempts} attempt(s): {cause}"
        )
        self.seed = seed
        self.attempts = attempts
        self.cause = cause


class AnalysisError(ReproError):
    """Invalid input to an analysis routine (e.g. empty sample set)."""


class StoreError(ReproError):
    """A run-store failure (missing blob, corrupt manifest, bad key)."""


class LintError(ReproError):
    """A static-analysis failure (bad config, unknown rule code)."""


class CheckpointError(StoreError):
    """A checkpoint payload is corrupt, truncated, or of the wrong kind."""


class ReadOnlyStoreError(StoreError):
    """A write against a store whose root refuses writes (EROFS/EACCES).

    Distinct from plain :class:`StoreError` so callers can tell "this
    deployment cannot accept writes right now" from "this store is
    corrupt": the serving layer maps it to *503 Service Unavailable*
    (retryable) instead of a generic 500.
    """


class ServeError(ReproError):
    """Base class for campaign-serving-layer failures."""


class ServiceBusyError(ServeError):
    """Submissions exceed the service's worker slots + queue budget.

    Carries ``retry_after`` (seconds), which the HTTP layer surfaces as
    a *429* response with a ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceededError(ServeError):
    """A tenant is over its run-count or stored-bytes quota (HTTP 403)."""
