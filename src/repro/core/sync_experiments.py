"""The Fig. 1 synchronization campaign: 2019-like vs 2020-like churn.

The paper's headline observation: with the reachable network size flat at
~10K, mean synchronization fell from 72.02% (Sep-Dec 2019) to 61.91%
(Jan-Apr 2020), and the only network parameter that moved was churn among
*synchronized* nodes (3.9 → 7.6 departures per 10 minutes).

This driver runs *one* live protocol network under a configurable churn
rate and measures synchronization exactly as Bitnodes does — periodic
sweeps with per-node poll staleness — yielding the sample series Fig. 1's
kernel densities are built from.  The contrast itself, and every other
reading of Fig. 1 under changing conditions (faults, attackers, policy
variants), is a condition list over this campaign:
:mod:`repro.core.condition_sweep`.

Time-scale compression: the simulated chain is short, so a replacement
node's catch-up takes minutes instead of days; the churn rate is raised
correspondingly (the dimensionless product churn_rate x catchup_time is
what sets the unsynchronized mass).  The 2019:2020 rate *ratio* is kept
at the paper's ~1:2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..adversary.plan import AttackPlan
from ..analysis import stats
from ..analysis.kde import DensityEstimate, kde
from ..bitcoin.config import NodeConfig, PolicyConfig
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..netmodel.scenario import ProtocolConfig, ProtocolScenario
from .sync_monitor import SyncMonitor


@dataclass
class SyncCampaignConfig:
    """One synchronization measurement campaign."""

    #: Standing reachable network size.
    n_reachable: int = 80
    #: Live churn: departures per 10 minutes (compressed; see module doc).
    churn_per_10min: float = 5.0
    block_interval: float = 600.0
    #: Historical chain replacements must download (compressed IBD).
    pre_mined_blocks: int = 600
    #: Bitnodes-style sweep period and per-node poll staleness.
    sample_period: float = 200.0
    poll_spread: float = 320.0
    warmup: float = 900.0
    duration: float = 3 * 3600.0
    seed: int = 21
    #: Optional event-count safety cap on the measurement run; when hit,
    #: the campaign is cut short and the result is marked truncated.
    max_events: Optional[int] = None
    #: Fault plan compiled onto the run (see ``repro.faults``; empty =
    #: fault-free).  Fault ``start`` times are relative to the scenario
    #: clock, which includes the warm-up period.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Attack plan (see ``repro.adversary``; empty = attack-free).
    #: Attacker ``start`` times follow the same scenario-clock convention
    #: as fault windows.  Part of run-store keys through ``asdict``.
    attack: AttackPlan = field(default_factory=AttackPlan)
    #: Node policies for the honest network: the §V mitigation knobs —
    #: tried-only ADDR responses, shortened tried horizon — applied when
    #: measuring attack mitigations.
    policies: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> None:
        """Refuse a campaign the monitor cannot sample twice (the
        departure rate needs two samples), then its live network."""
        if self.sample_period <= 0:
            raise ConfigurationError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        if self.duration < 2 * self.sample_period:
            raise ConfigurationError(
                f"duration {self.duration:g}s is too short for two monitor "
                f"samples: need >= {2 * self.sample_period:g}s"
            )
        protocol_config(self).validate()


@dataclass
class SyncCampaignResult:
    """The measured synchronization series and its derived statistics."""

    sync_samples: List[float]
    sync_departures_per_10min: float
    total_departures: int
    config: SyncCampaignConfig
    #: True when the event cap stopped the run before ``duration``
    #: elapsed — the sample series is shorter than requested.
    truncated: bool = False
    #: What the fault injector did (``FaultStats.as_dict()``); ``None``
    #: for fault-free campaigns (an empty plan installs no injector).
    fault_stats: Optional[Dict[str, int]] = None
    #: What the attackers did (``AttackForce.stats()``); ``None`` for
    #: attack-free campaigns (an empty plan installs no attackers).
    attack_stats: Optional[Dict[str, int]] = None

    @property
    def mean(self) -> float:
        return stats.mean(self.sync_samples)

    @property
    def median(self) -> float:
        return stats.median(self.sync_samples)

    def density(self) -> DensityEstimate:
        """KDE of the sync samples (one Fig. 1 curve)."""
        return kde(self.sync_samples)


def protocol_config(config: SyncCampaignConfig) -> ProtocolConfig:
    """The live network a campaign measures."""
    return ProtocolConfig(
        seed=config.seed,
        n_reachable=config.n_reachable,
        churn_per_10min=config.churn_per_10min,
        block_interval=config.block_interval,
        pre_mined_blocks=config.pre_mined_blocks,
        node_config=NodeConfig(policies=config.policies),
        faults=config.faults,
        attack=config.attack,
    )


def run_sync_campaign(
    config: Optional[SyncCampaignConfig] = None,
) -> SyncCampaignResult:
    """Run one campaign and return its synchronization distribution."""
    config = config if config is not None else SyncCampaignConfig()
    scenario = ProtocolScenario(protocol_config(config))
    scenario.start(warmup=config.warmup)
    monitor = SyncMonitor(
        scenario, period=config.sample_period, poll_spread=config.poll_spread
    )
    run = scenario.sim.run_for(config.duration, max_events=config.max_events)
    monitor.stop()
    departures = monitor.departure_stats()
    injector = scenario.fault_injector
    force = scenario.attack_force
    return SyncCampaignResult(
        sync_samples=monitor.sync_percents(),
        sync_departures_per_10min=monitor.departures_per_10min(),
        total_departures=departures.total_departures,
        config=config,
        truncated=run.truncated,
        fault_stats=None if injector is None else injector.stats.as_dict(),
        attack_stats=None if force is None else force.stats(),
    )
