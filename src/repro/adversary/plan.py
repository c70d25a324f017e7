"""Declarative attack plans (the adversarial analogue of fault plans).

An :class:`AttackPlan` is a seed-independent description of *who
misbehaves, where, and how hard*: an ordered tuple of
:class:`AttackerSpec` records, each naming an attacker kind, a placement
(a :class:`~repro.faults.plan.FaultScope` over the asmap universe —
the one scope type fault plans use too — plus a reachable-vs-
unreachable tier), and kind-specific magnitudes (flood rate, eclipse
slot target, advertised height lead, spam batch size).

Plans are plain frozen dataclasses so they

* serialize through ``dataclasses.asdict`` into run-store keys — a
  campaign under an attack plan is a *different experiment* than the
  same campaign without one, and the content-addressed cache must see
  that;
* are their own JSON schema: a ``repro attack --plan plan.json`` file
  or an ``attack`` block in a submission is read by
  :func:`repro.core.decode.decode_file` /
  :func:`~repro.core.decode.decode`, and
  ``json.dumps(dataclasses.asdict(plan))`` writes one;
* sweep coherently: :meth:`AttackPlan.with_total` redistributes one
  total attacker count over the specs, which is what the Fig. 8
  degradation sweep varies.

A plan says nothing about randomness: compiled onto two simulators with
different seeds it produces different (but per-seed deterministic)
attacker placements and floods.  Each materialized attacker draws from
its own named RNG stream (``("adversary", <name>)``), so runs replay
bit-identically and adding an attacker never shifts another's draws.

Validation is **eager** and uses the shared error taxonomy: every
malformed plan raises :class:`~repro.errors.ConfigurationError` naming
the offending field when it is decoded or validated, never mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..faults.plan import FaultScope

#: Bump on incompatible plan-file schema changes.
ATTACK_FORMAT = 1

#: The attacker kinds the adversary package implements.
KIND_ADDR_FLOODER = "addr_flooder"
KIND_ECLIPSE = "eclipse"
KIND_SYNC_STALLER = "sync_staller"
KIND_INV_SPAMMER = "inv_spammer"
ATTACK_KINDS = (
    KIND_ADDR_FLOODER,
    KIND_ECLIPSE,
    KIND_SYNC_STALLER,
    KIND_INV_SPAMMER,
)

#: Placement tiers: reachable attackers listen (they are crawlable and
#: detectable, like the paper's 73); unreachable attackers only connect
#: out, hiding in the cloud Wang & Pustogarov describe.
TIERS = ("reachable", "unreachable")


@dataclass(frozen=True)
class AttackerSpec:
    """One attacker cohort: a kind, a count, a placement, magnitudes.

    Field use by kind (unused fields must stay at their defaults):

    ``addr_flooder``
        ``flood_volume`` — unique fabricated-address pool per attacker
        (0 = a :class:`~repro.netmodel.malicious.FloodVolumeModel`
        draw); ``flood_interval`` — seconds between unsolicited
        ≤10-address ADDR pushes (0 disables pushes, GETADDR responses
        still flood).
    ``eclipse``
        ``victim`` — the target's literal address ("" = pick the first
        standing reachable node at install time); ``connections`` —
        inbound slots *each* attacker holds on the victim.
    ``sync_staller``
        ``height_lead`` — blocks above its real tip the staller
        advertises; ``announce_interval`` — seconds between bogus
        inventory announcements.
    ``inv_spammer``
        ``spam_batch`` — bogus tx inventory items per announcement;
        ``spam_interval`` — seconds between announcements.
    """

    kind: str
    count: int = 1
    #: ``None`` = place by the hosting distribution (no scope).
    scope: Optional[FaultScope] = None
    tier: str = "unreachable"
    #: Activation time on the scenario clock (0 = from the start).
    start: float = 0.0
    # addr_flooder
    flood_volume: int = 0
    flood_interval: float = 30.0
    # eclipse
    victim: str = ""
    connections: int = 8
    # sync_staller
    height_lead: int = 1000
    announce_interval: float = 60.0
    # inv_spammer
    spam_batch: int = 8
    spam_interval: float = 20.0
    #: Label used for the attackers' RNG streams and in stats; defaults
    #: to ``"<index>:<kind>"`` at install time.
    name: str = ""

    def validate(self, index: int = 0) -> None:
        owner = f"attacker #{index}"
        if self.kind not in ATTACK_KINDS:
            raise ConfigurationError(
                f"{owner}: unknown attacker kind {self.kind!r} "
                f"(want one of {ATTACK_KINDS})"
            )
        if not isinstance(self.count, int) or self.count < 1:
            raise ConfigurationError(
                f"{owner}: count must be an int >= 1, got {self.count!r}"
            )
        if self.tier not in TIERS:
            raise ConfigurationError(
                f"{owner}: tier must be one of {TIERS}, got {self.tier!r}"
            )
        if self.start < 0:
            raise ConfigurationError(
                f"{owner}: start must be >= 0, got {self.start}"
            )
        if self.scope is not None:
            if self.scope.empty:
                raise ConfigurationError(
                    f"{owner}: scope is empty — an explicit scope must select "
                    "at least one asn, prefix, or address (omit the scope for "
                    "hosting-distribution placement)"
                )
            self.scope.validate(ConfigurationError, owner)
        if self.victim and self.kind != KIND_ECLIPSE:
            raise ConfigurationError(
                f"{owner}: victim is only meaningful for eclipse attackers"
            )
        if self.kind == KIND_ADDR_FLOODER:
            if self.flood_volume < 0:
                raise ConfigurationError(
                    f"{owner}: flood_volume must be >= 0 "
                    f"(0 = volume-model draw), got {self.flood_volume}"
                )
            if self.flood_interval < 0:
                raise ConfigurationError(
                    f"{owner}: flood_interval must be >= 0 "
                    f"(0 = no unsolicited pushes), got {self.flood_interval}"
                )
        elif self.kind == KIND_ECLIPSE:
            if self.connections < 1:
                raise ConfigurationError(
                    f"{owner}: connections must be >= 1, got {self.connections}"
                )
            if self.victim:
                from ..simnet.addresses import NetAddr

                try:
                    NetAddr.parse(self.victim)
                except (ValueError, TypeError) as exc:
                    raise ConfigurationError(
                        f"{owner}: victim {self.victim!r} is not parseable: {exc}"
                    ) from exc
                if self.scope is not None and self.victim in self.scope.addrs:
                    raise ConfigurationError(
                        f"{owner}: victim {self.victim!r} overlaps the "
                        "attacker placement scope — a node cannot eclipse "
                        "itself"
                    )
        elif self.kind == KIND_SYNC_STALLER:
            if self.height_lead < 1:
                raise ConfigurationError(
                    f"{owner}: height_lead must be >= 1, got {self.height_lead}"
                )
            if self.announce_interval <= 0:
                raise ConfigurationError(
                    f"{owner}: announce_interval must be positive, "
                    f"got {self.announce_interval}"
                )
        elif self.kind == KIND_INV_SPAMMER:
            if not 1 <= self.spam_batch <= 500:
                raise ConfigurationError(
                    f"{owner}: spam_batch must be in 1..500, got {self.spam_batch}"
                )
            if self.spam_interval <= 0:
                raise ConfigurationError(
                    f"{owner}: spam_interval must be positive, "
                    f"got {self.spam_interval}"
                )


@dataclass(frozen=True)
class AttackPlan:
    """An ordered collection of attacker cohorts applied to one run."""

    attackers: Tuple[AttackerSpec, ...] = ()
    format: int = ATTACK_FORMAT

    def validate(self) -> None:
        if self.format != ATTACK_FORMAT:
            raise ConfigurationError(
                f"unsupported attack plan format {self.format!r} "
                f"(this build reads format {ATTACK_FORMAT})"
            )
        for index, spec in enumerate(self.attackers):
            spec.validate(index)

    def validate_for(self, network_size: int) -> None:
        """Check the plan against a concrete network sizing.

        The reachable-tier attacker count is bounded by the standing
        network: more reachable attackers than reachable slots is a
        sizing mistake that would otherwise surface as a confusing
        address-allocation failure mid-run.
        """
        self.validate()
        reachable = sum(
            spec.count for spec in self.attackers if spec.tier == "reachable"
        )
        if reachable > network_size:
            raise ConfigurationError(
                f"attack plan count: {reachable} reachable-tier attackers "
                f"exceed the network size ({network_size} reachable nodes)"
            )

    def __len__(self) -> int:
        return len(self.attackers)

    @property
    def total_count(self) -> int:
        return sum(spec.count for spec in self.attackers)

    # ------------------------------------------------------------------
    # Count scaling (the degradation-sweep axis)
    # ------------------------------------------------------------------
    def with_total(self, total: int) -> "AttackPlan":
        """The same plan rescaled to ``total`` attackers overall.

        Counts are redistributed proportionally to the specs' declared
        counts (largest-remainder rounding, ties to the earliest spec);
        specs landing on zero are dropped.  ``total == 0`` yields the
        empty plan (a clean baseline).
        """
        if total < 0:
            raise ConfigurationError(
                f"attack plan count must be >= 0, got {total}"
            )
        if total == 0 or not self.attackers:
            return AttackPlan(attackers=())
        base = self.total_count
        shares = [spec.count * total / base for spec in self.attackers]
        counts = [int(share) for share in shares]
        remainders = sorted(
            range(len(shares)),
            key=lambda i: (counts[i] + 1 - shares[i], i),
        )
        for i in remainders[: total - sum(counts)]:
            counts[i] += 1
        scaled = tuple(
            replace(spec, count=count)
            for spec, count in zip(self.attackers, counts)
            if count > 0
        )
        return AttackPlan(attackers=scaled)
