"""Declarative fault plans.

A :class:`FaultPlan` is a seed-independent description of *what goes
wrong and when*: an ordered tuple of :class:`FaultSpec` records, each
naming a fault kind, an activation window on the simulation clock, a
:class:`FaultScope` selecting the affected slice of the address space,
and kind-specific magnitudes (drop probability, latency spike, reset
rate, crash downtime).

Plans are plain frozen dataclasses so they

* serialize through ``dataclasses.asdict`` into run-store keys — a
  campaign under a fault plan is a *different experiment* than the same
  campaign without it, and the content-addressed cache must see that;
* are their own JSON schema: a ``--faults plan.json`` file or a
  ``faults`` block in a submission is read by
  :func:`repro.core.decode.decode_file` /
  :func:`~repro.core.decode.decode`, and
  ``json.dumps(dataclasses.asdict(plan))`` writes one;
* scale coherently: :meth:`FaultPlan.scaled` multiplies every intensity
  axis (probabilities, rates, delays, partition durations, crash
  downtimes) by one factor, which is what the ``sync_under_faults``
  degradation sweep varies.

A plan says nothing about randomness: the same plan compiled onto two
simulators with different seeds produces different (but per-seed
deterministic) fault realisations, exactly like churn timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple, Type

from ..errors import ConfigurationError, FaultInjectionError

#: Bump on incompatible plan-file schema changes.
PLAN_FORMAT = 1

#: The fault kinds the injector implements.
KIND_DROP = "drop"
KIND_DUPLICATE = "duplicate"
KIND_DELAY = "delay"
KIND_RESET = "reset"
KIND_PARTITION = "partition"
KIND_CRASH = "crash"
FAULT_KINDS = (
    KIND_DROP,
    KIND_DUPLICATE,
    KIND_DELAY,
    KIND_RESET,
    KIND_PARTITION,
    KIND_CRASH,
)


@dataclass(frozen=True)
class FaultScope:
    """A slice of the address space: which addresses a fault applies to,
    or where an attack plan places its attackers.

    A scope is the union of three selectors: autonomous systems (matched
    through the scenario's :class:`~repro.netmodel.asmap.ASUniverse`),
    /16 netgroups (``addr.group16``), and literal ``"a.b.c.d:port"``
    addresses.  For a fault an empty scope matches *everything* — legal
    for link faults ("5% loss network-wide") but rejected for
    partitions, where the scope defines one side of the cut.  An
    attacker's explicit scope must not be empty
    (:class:`~repro.adversary.plan.AttackerSpec`).
    """

    asns: Tuple[int, ...] = ()
    prefixes: Tuple[int, ...] = ()
    addrs: Tuple[str, ...] = ()

    @property
    def empty(self) -> bool:
        return not (self.asns or self.prefixes or self.addrs)

    def validate(
        self,
        error: Type[ConfigurationError] = FaultInjectionError,
        owner: str = "",
    ) -> None:
        """Raise ``error`` (a fault spec's ``FaultInjectionError`` by
        default), its message prefixed by ``owner``, on the first
        malformed selector."""
        prefix = f"{owner}: " if owner else ""
        for asn in self.asns:
            if not isinstance(asn, int) or asn < 0:
                raise error(
                    f"{prefix}scope asn must be a non-negative int, got {asn!r}"
                )
        for group in self.prefixes:
            if not isinstance(group, int) or not 0 <= group <= 0xFFFF:
                raise error(
                    f"{prefix}scope prefix must be a /16 group in 0..65535, "
                    f"got {group!r}"
                )
        from ..simnet.addresses import NetAddr

        for text in self.addrs:
            try:
                NetAddr.parse(text)
            except (ValueError, TypeError) as exc:
                raise error(
                    f"{prefix}scope address {text!r} is not parseable: {exc}"
                ) from exc


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind, a window, a scope, and magnitudes.

    Field use by kind (unused fields must stay at their defaults):

    ``drop`` / ``duplicate``
        ``probability`` — per-message drop/duplication chance on links
        touching the scope.
    ``delay``
        ``delay`` — mean extra one-way latency (seconds) injected per
        message; ``jitter`` — fractional spread (uniform in ±jitter).
    ``reset``
        ``rate`` — abrupt connection closes per second, drawn over the
        open sockets touching the scope.
    ``partition``
        the scope is one side of the cut; messages crossing it are
        blackholed and new connections/probes across it time out.
    ``crash``
        nodes whose address matches the scope stop at ``start`` (losing
        chain and mempool when ``state_loss``), restarting after
        ``downtime`` seconds (``None`` = never).
    """

    kind: str
    start: float = 0.0
    #: Window length in seconds; ``None`` = until the end of the run.
    #: Ignored by ``crash`` (whose window is ``downtime``).
    duration: Optional[float] = None
    scope: FaultScope = field(default_factory=FaultScope)
    probability: float = 0.0
    delay: float = 0.0
    jitter: float = 0.0
    rate: float = 0.0
    downtime: Optional[float] = None
    state_loss: bool = True
    #: Label used for the fault's RNG stream and in stats/event logs;
    #: defaults to ``"<index>:<kind>"`` at compile time.
    name: str = ""

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r} (want one of {FAULT_KINDS})"
            )
        if self.start < 0:
            raise FaultInjectionError(f"fault start must be >= 0, got {self.start}")
        if self.duration is not None and self.duration <= 0:
            raise FaultInjectionError(
                f"fault duration must be positive (or null), got {self.duration}"
            )
        self.scope.validate()
        if self.kind in (KIND_DROP, KIND_DUPLICATE):
            if not 0.0 < self.probability <= 1.0:
                raise FaultInjectionError(
                    f"{self.kind} fault needs probability in (0, 1], got {self.probability}"
                )
        elif self.kind == KIND_DELAY:
            if self.delay <= 0:
                raise FaultInjectionError(
                    f"delay fault needs a positive delay, got {self.delay}"
                )
            if not 0.0 <= self.jitter < 1.0:
                raise FaultInjectionError(
                    f"delay jitter must be in [0, 1), got {self.jitter}"
                )
        elif self.kind == KIND_RESET:
            if self.rate <= 0:
                raise FaultInjectionError(
                    f"reset fault needs a positive rate, got {self.rate}"
                )
        elif self.kind == KIND_PARTITION:
            if self.scope.empty:
                raise FaultInjectionError(
                    "partition fault needs a non-empty scope (one side of the cut)"
                )
        elif self.kind == KIND_CRASH:
            if self.scope.empty:
                raise FaultInjectionError(
                    "crash fault needs a non-empty scope (which nodes crash)"
                )
            if self.downtime is not None and self.downtime < 0:
                raise FaultInjectionError(
                    f"crash downtime must be >= 0 (or null), got {self.downtime}"
                )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of faults, applied together to one run."""

    faults: Tuple[FaultSpec, ...] = ()
    format: int = PLAN_FORMAT

    def validate(self) -> None:
        if self.format != PLAN_FORMAT:
            raise FaultInjectionError(
                f"unsupported fault plan format {self.format!r} "
                f"(this build reads format {PLAN_FORMAT})"
            )
        for spec in self.faults:
            spec.validate()

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    # Intensity scaling (the degradation-sweep axis)
    # ------------------------------------------------------------------
    def scaled(self, intensity: float) -> "FaultPlan":
        """The same plan with every magnitude multiplied by ``intensity``.

        Probabilities clip at 1.0; rates, delays, partition durations,
        and crash downtimes scale linearly.  ``intensity == 0`` yields
        the empty plan (a clean baseline), ``intensity == 1`` the plan
        itself.
        """
        if intensity < 0:
            raise FaultInjectionError(
                f"fault intensity must be >= 0, got {intensity}"
            )
        if intensity == 0:
            return FaultPlan(faults=())
        scaled = []
        for spec in self.faults:
            if spec.kind in (KIND_DROP, KIND_DUPLICATE):
                spec = replace(
                    spec, probability=min(1.0, spec.probability * intensity)
                )
            elif spec.kind == KIND_DELAY:
                spec = replace(spec, delay=spec.delay * intensity)
            elif spec.kind == KIND_RESET:
                spec = replace(spec, rate=spec.rate * intensity)
            elif spec.kind == KIND_PARTITION:
                if spec.duration is not None:
                    spec = replace(spec, duration=spec.duration * intensity)
            elif spec.kind == KIND_CRASH:
                if spec.downtime is not None:
                    spec = replace(spec, downtime=spec.downtime * intensity)
            scaled.append(spec)
        return FaultPlan(faults=tuple(scaled))
