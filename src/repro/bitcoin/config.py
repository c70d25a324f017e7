"""Protocol constants and node configuration.

The defaults mirror Bitcoin Core v0.20.1, the version the paper inspected
(§IV-B, §IV-C): 8 outbound + 117 inbound slots, 2 feeler connections tried
every two minutes, addrman ``new``/``tried`` tables with the 30-day /
10-failure eviction rules, ADDR responses capped at 1000 addresses, and a
round-robin message handler.

:class:`PolicyConfig` names a registered protocol-policy variant plus its
parameters (see :mod:`repro.bitcoin.policy`); the three §V refinements
are knobs of the ``baseline``/``improved`` family, set through ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional


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


@dataclass(init=False)
class PolicyConfig:
    """A serializable reference to a registered protocol-policy variant.

    Canonical state is two fields — ``variant`` (a registry name) and
    ``params`` (overrides of that variant's knob defaults) — which is
    exactly what flows through :func:`dataclasses.asdict` into run-store
    and serve-submission keys.  Construction canonicalizes eagerly (see
    :func:`repro.bitcoin.policy.registry.resolve`), so two configs with
    equal behavior compare equal and key identically, whichever spelling
    built them (``params`` that add up to ``improved`` *are* ``improved``).

    The three §V refinements are readable as properties off the
    effective knobs of the resolved variant.
    """

    #: Registered variant name (``repro.bitcoin.policy.variant_names()``).
    variant: str = "baseline"
    #: Knob overrides; canonicalized to the non-default subset (a dict
    #: once constructed; ``None`` means no overrides).
    params: Optional[Dict[str, Any]] = field(default_factory=dict)

    def __init__(
        self,
        variant: str = "baseline",
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        # Deferred import: the registry's builtin variants read protocol
        # constants from this module.
        from .policy.registry import resolve

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
    #: TCP connect timeout for silent targets.
    connect_timeout: float = 5.0
    feeler_interval: float = FEELER_INTERVAL
    feelers_enabled: bool = True
    #: Mean lifetime of an outbound connection before it drops
    #: spontaneously (peer-side eviction, NAT timeout, link failure).
    #: None disables.  The paper's Fig. 6 trace — connections oscillating
    #: 2-10 with a 6.67 mean — implies drops on this order.
    connection_lifetime_mean: "float | None" = None

    # --- message handler (paper Fig. 9 / Alg. 3) ---
    #: CPU cost charged per processed message, by command (seconds).
    #: Anything absent falls back to ``node.DEFAULT_PROC_TIME``.
    proc_times: dict = field(
        default_factory=lambda: {
            "block": 0.060,
            "cmpctblock": 0.015,
            "blocktxn": 0.030,
            "addr": 0.004,
            "getaddr": 0.006,
            "tx": 0.002,
        }
    )

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
    #: PING keepalive period (Core pings every ~2 minutes).  None
    #: disables; the default keeps simulations lean since idle links
    #: never fail in-sim unless connection_lifetime_mean says so.
    ping_interval: "float | None" = None

    # --- relay ---
    #: Mean of the Poisson tx-inv trickle timer for outbound peers.
    tx_inv_interval_outbound: float = 2.0
    #: Mean of the Poisson tx-inv trickle timer for inbound peers.
    tx_inv_interval_inbound: float = 5.0
    #: Use BIP152 compact blocks with established peers.
    compact_blocks: bool = True
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
