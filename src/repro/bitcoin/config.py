"""Protocol constants and node configuration.

The defaults mirror Bitcoin Core v0.20.1, the version the paper inspected
(§IV-B, §IV-C): 8 outbound + 117 inbound slots, 2 feeler connections tried
every two minutes, addrman ``new``/``tried`` tables with the 30-day /
10-failure eviction rules, ADDR responses capped at 1000 addresses, and a
round-robin message handler.

:class:`PolicyConfig` names a protocol-policy variant — a row of
:data:`POLICY_VARIANTS`, listed by :func:`variant_names` — plus its
parameters; the three §V refinements are knobs of the
``baseline``/``improved`` family, set through ``params``.  Each knob is
read where its mechanism lives (``BitcoinNode``, ``LightCloud``, the
crawl model's gossip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


# ---------------------------------------------------------------------------
# Connection limits (paper §III-A, "Default Connection Limits")
# ---------------------------------------------------------------------------

#: Full-relay outbound connections a node maintains.
MAX_OUTBOUND = 8
#: Inbound slots of a reachable node (125 total minus 8 outbound).
MAX_INBOUND = 117
#: Interval between feeler-connection attempts (seconds).
FEELER_INTERVAL = 120.0

# ---------------------------------------------------------------------------
# Addrman (Bitcoin Core addrman.h)
# ---------------------------------------------------------------------------

ADDRMAN_NEW_BUCKET_COUNT = 1024
ADDRMAN_TRIED_BUCKET_COUNT = 256
ADDRMAN_BUCKET_SIZE = 64
#: Days after which an address we have not seen is evicted ("horizon").
ADDRMAN_HORIZON_DAYS = 30.0
#: Failed attempts after which a never-successful address is terrible.
ADDRMAN_RETRIES = 3
#: Failures over MIN_FAIL_DAYS after which a known address is terrible.
ADDRMAN_MAX_FAILURES = 10
ADDRMAN_MIN_FAIL_DAYS = 7.0
#: GETADDR responses return at most this many addresses...
ADDR_RESPONSE_MAX = 1000
#: ...and at most this percentage of the addrman contents.
ADDR_RESPONSE_MAX_PCT = 23

# ---------------------------------------------------------------------------
# Relay
# ---------------------------------------------------------------------------

#: Target block interval (Poisson mining process).
BLOCK_INTERVAL = 600.0
#: Maximum block ids in one inv reply to GETBLOCKS.
MAX_BLOCKS_IN_TRANSIT = 16
#: Maximum addresses forwarded from one unsolicited ADDR announcement.
ADDR_FORWARD_MAX = 10
#: Peers an unsolicited small ADDR announcement is forwarded to.
ADDR_FORWARD_FANOUT = 2


# ---------------------------------------------------------------------------
# Protocol-policy variants
# ---------------------------------------------------------------------------

#: Every variant, as its knob defaults.  Each row covers the three §V
#: knobs; the two related-work variants (PAPERS.md) add one knob each.
POLICY_VARIANTS: Dict[str, Dict[str, Any]] = {
    # Bitcoin Core v0.20.1 as the paper measured it: ADDR answered from
    # new+tried, 30-day tried horizon, arrival-order relay.
    "baseline": {
        "addr_from_tried_only": False,
        "tried_horizon_days": ADDRMAN_HORIZON_DAYS,
        "prioritize_block_relay": False,
    },
    # All three §V refinements: tried-only ADDR, 17-day tried horizon,
    # prioritized block relay.
    "improved": {
        "addr_from_tried_only": True,
        "tried_horizon_days": 17.0,
        "prioritize_block_relay": True,
    },
    # Franzoni & Daza: a deterministic fraction of unreachable
    # (light-tier) endpoints assists transaction propagation.
    "unreachable-relay": {
        "addr_from_tried_only": False,
        "tried_horizon_days": ADDRMAN_HORIZON_DAYS,
        "prioritize_block_relay": False,
        "assist_fraction": 0.25,
    },
    # Younis et al.: prioritized block relay plus tried-biased peer
    # selection, hardening propagation under churn.  ADDR serving and
    # the tried horizon stay at baseline, isolating what connection and
    # relay hardening alone recover.
    "churn-resilient": {
        "addr_from_tried_only": False,
        "tried_horizon_days": ADDRMAN_HORIZON_DAYS,
        "prioritize_block_relay": True,
        "tried_bias": 0.75,
    },
}


def variant_names() -> List[str]:
    """The variant names, sorted."""
    return sorted(POLICY_VARIANTS)


def _normalize(variant: str, knob: str, value: Any, default: Any) -> Any:
    """Type-check one knob against its default; stabilize numerics.

    Floats are coerced (``17`` and ``17.0`` must produce identical
    canonical JSON, hence identical store keys); bools are strict
    (a truthy int silently meaning "enabled" would fork cache keys).
    """
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ValueError(
                f"policy knob {knob!r} of variant {variant!r} expects a "
                f"bool, got {value!r}"
            )
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"policy knob {knob!r} of variant {variant!r} expects a "
                f"number, got {value!r}"
            )
        return float(value)
    return value


def resolve(
    name: str, params: Mapping[str, Any]
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Canonicalize ``(variant, params)``.

    Returns ``(canonical_variant, canonical_params, effective_knobs)``.
    Unknown variants, unknown knobs and values of the wrong type raise
    :class:`ValueError`.  Params equal to the variant's defaults are
    dropped.  Within the §V family the canonical *anchor* is chosen by
    effective knobs: all three refinements at their improved values →
    ``improved`` with empty params, anything else → ``baseline`` plus
    the knobs that differ from baseline.
    """
    defaults = POLICY_VARIANTS.get(name)
    if defaults is None:
        known = ", ".join(variant_names())
        raise ValueError(f"unknown policy variant {name!r} (known: {known})")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        known = ", ".join(sorted(defaults))
        raise ValueError(
            f"unknown policy params {unknown} for variant "
            f"{name!r} (known: {known})"
        )
    effective = dict(defaults)
    for knob, value in params.items():
        effective[knob] = _normalize(name, knob, value, defaults[knob])

    if name in ("baseline", "improved"):
        if effective == POLICY_VARIANTS["improved"]:
            return "improved", {}, effective
        defaults = POLICY_VARIANTS["baseline"]
        name = "baseline"
    canonical = {
        knob: value
        for knob, value in effective.items()
        if value != defaults[knob]
    }
    return name, canonical, effective


@dataclass(init=False)
class PolicyConfig:
    """A serializable reference to a protocol-policy variant.

    Canonical state is two fields — ``variant`` (a row of
    :data:`POLICY_VARIANTS`) and ``params`` (overrides of that row's
    knob defaults) — which is exactly what flows through
    :func:`dataclasses.asdict` into run-store and serve-submission keys.
    Construction canonicalizes eagerly (see :func:`resolve`), so two
    configs with equal behavior compare equal and key identically,
    whichever spelling built them (``params`` that add up to
    ``improved`` *are* ``improved``).

    Every knob is readable as a property off the effective knobs of the
    resolved variant.
    """

    #: Variant name (``repro.bitcoin.variant_names()``).
    variant: str = "baseline"
    #: Knob overrides; canonicalized to the non-default subset (a dict
    #: once constructed; ``None`` means no overrides).
    params: Optional[Dict[str, Any]] = field(default_factory=dict)

    def __init__(
        self,
        variant: str = "baseline",
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.variant, self.params, self._knobs = resolve(variant, params or {})

    # -- §V reads -------------------------------------------------------
    @property
    def addr_from_tried_only(self) -> bool:
        """§V "Refining the Addressing Protocol": tried-only GETADDR."""
        return self._knobs["addr_from_tried_only"]

    @property
    def tried_horizon_days(self) -> float:
        """§V "Refining the tried Table": eviction horizon in days."""
        return self._knobs["tried_horizon_days"]

    @property
    def prioritize_block_relay(self) -> bool:
        """§V "Prioritizing Block Relay": outbound-first, front-of-queue."""
        return self._knobs["prioritize_block_relay"]

    # -- related-work reads ---------------------------------------------
    @property
    def tried_bias(self) -> float:
        """Chance an outbound pick draws from the tried table (Core's
        fair coin, 0.5; ``churn-resilient`` leans toward proven peers)."""
        return self._knobs.get("tried_bias", 0.5)

    @property
    def assist_fraction(self) -> float:
        """Share of the light cloud relaying transactions
        (``unreachable-relay``; 0 everywhere else)."""
        return self._knobs.get("assist_fraction", 0.0)

    def label(self) -> str:
        """Short tag for benchmark tables, e.g. ``"tried-only+17d"``."""
        if self.variant in ("baseline", "improved"):
            parts = []
            if self.addr_from_tried_only:
                parts.append("tried-only")
            if self.tried_horizon_days != ADDRMAN_HORIZON_DAYS:
                parts.append(f"{self.tried_horizon_days:g}d")
            if self.prioritize_block_relay:
                parts.append("block-prio")
            return "+".join(parts) if parts else "baseline"
        extras = [
            f"{knob}={value:g}" if isinstance(value, float) else f"{knob}={value}"
            for knob, value in sorted(self.params.items())
        ]
        return "+".join([self.variant, *extras])

    @classmethod
    def improved(cls) -> "PolicyConfig":
        """All three §V refinements enabled."""
        return cls(variant="improved")


@dataclass
class NodeConfig:
    """Tunable parameters of a simulated Bitcoin node."""

    # --- connections ---
    max_outbound: int = MAX_OUTBOUND
    max_inbound: int = MAX_INBOUND
    #: Whether the node listens (reachable) or not (behind NAT).
    listen: bool = True
    feelers_enabled: bool = True
    #: Mean lifetime of an outbound connection before it drops
    #: spontaneously (peer-side eviction, NAT timeout, link failure).
    #: None disables.  The paper's Fig. 6 trace — connections oscillating
    #: 2-10 with a 6.67 mean — implies drops on this order.
    connection_lifetime_mean: "float | None" = None

    # --- addressing ---
    #: Send GETADDR on every new outbound connection (Core behaviour).
    getaddr_on_connect: bool = True
    #: Whether repeated GETADDR from the same peer is answered.  Core
    #: v0.20.1 ignores repeats, but the paper's crawler harvested tables
    #: through repeated requests across reconnects; the crawler reconnects,
    #: so both settings are observable.  Default False = Core behaviour.
    serve_repeated_getaddr: bool = False
    #: If set, this node sends GETADDR to every established peer on this
    #: period — the request load that queues ahead of blocks in
    #: vSendMessage (the §IV-C head-of-line scenario).  None disables.
    getaddr_repeat_interval: "float | None" = None

    # --- relay ---
    #: Mean of the Poisson tx-inv trickle timer for outbound peers.
    tx_inv_interval_outbound: float = 2.0
    #: Mean of the Poisson tx-inv trickle timer for inbound peers.
    tx_inv_interval_inbound: float = 5.0
    #: Fraction of peers negotiating high-bandwidth compact-block mode
    #: (by 2020 most of the network relayed blocks compactly).
    hb_compact_fraction: float = 0.85

    # --- measurement hooks ---
    #: Record (first-seen, per-peer relay-completion) times for blocks/txs.
    track_relay_times: bool = False
    #: Record every outbound connection attempt and its outcome.
    track_connection_attempts: bool = False

    # --- §V policies ---
    policies: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> None:
        if self.max_outbound < 0 or self.max_inbound < 0:
            raise ValueError("connection limits must be non-negative")
        if not 0 <= self.hb_compact_fraction <= 1:
            raise ValueError("hb_compact_fraction must be in [0, 1]")
        if self.policies.tried_horizon_days <= 0:
            raise ValueError("tried_horizon_days must be positive")


def unreachable_config(**overrides) -> NodeConfig:
    """Config for an unreachable (NAT'd) node: outbound-only, no inbound."""
    config = NodeConfig(listen=False, max_inbound=0, **overrides)
    config.validate()
    return config
