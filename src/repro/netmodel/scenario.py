"""Scenario builders: wiring population, churn, NAT, and nodes together.

Two fidelities match the two kinds of experiment in the paper:

* :class:`LongitudinalScenario` — the 60-day measurement campaign
  (Figs. 3-5, 8, 12, 13, Table I).  Node presence follows precomputed
  churn timelines; reachable nodes are lightweight GETADDR responders
  whose tables are re-materialised per snapshot from the currently
  gossiped address pool — one ``(address, last-seen)`` record per
  gossiped address per snapshot, shared by every table that draws it.
  Protocol traffic is simulated only while the crawler works.

* :class:`ProtocolScenario` — full-fidelity networks of
  :class:`~repro.bitcoin.node.BitcoinNode` with mining, live churn, and
  polluted addrman tables (Figs. 1, 6, 7, 10, 11, the resync experiment,
  and the §V improvement ablations).

Time-scale note: protocol scenarios compress the churn/recovery balance.
In reality a replacement node needs days to download the chain while
churn runs at ~700 nodes/day; a simulated chain is short, so catch-up
takes minutes and the churn rate is raised proportionally.  All paper
comparisons for these scenarios are of *ratios and shapes* (2020/2019
churn doubling → sync mean dropping ~10 points), which the compression
preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ScenarioError
from ..faults.plan import FaultPlan
from ..simnet.addresses import NetAddr, TimestampedAddr, stamp
from ..simnet.rand import sample
from ..simnet.simulator import Simulator
from ..units import DAYS
from ..bitcoin.config import NodeConfig, PolicyConfig
from ..bitcoin.mining import MiningProcess, TransactionGenerator
from ..bitcoin.node import BitcoinNode

# The adversary package sits above bitcoin/ and below netmodel/ in the
# layering; importing only its plan module here keeps construction
# (install_attack) a lazy, scenario-time import.
from ..adversary.plan import KIND_ADDR_FLOODER, AttackPlan
from . import calibration as cal
from .addr_server import AddrServer
from .asmap import ASUniverse
from .churn import (
    ChurnProcess,
    PresenceTimeline,
    ReachableChurnConfig,
    build_reachable_timeline,
    build_unreachable_timeline,
)
from .malicious import FloodVolumeModel, MaliciousAddrServer, paper_flooders
from .nat import LightCloud
from .population import NodeRecord, Population, PopulationConfig
from .seeds import AddressOracles, DnsSeeder


# ---------------------------------------------------------------------------
# Longitudinal (measurement-campaign) scenario
# ---------------------------------------------------------------------------

#: Reachable addresses each crawl-world node's table holds
#: (pre-composition).
CRAWL_TABLE_REACHABLE = 150
#: Cumulative reachable records are over-provisioned relative to the
#: paper's 28,781 because that figure counts *connected* nodes and the
#: source views cover ~82% of what is alive.
REACHABLE_OVERPROVISION = 1.2


def _check_tiers(fidelity: str, rst_fraction: float) -> None:
    """The checks both scenario configs share: the one node-tier model,
    and an RST share that is a share."""
    if fidelity != "hybrid":
        raise ScenarioError(
            f"fidelity must be 'hybrid' (full-tier reachable nodes, a "
            f"light-tier unreachable cloud), got {fidelity!r}"
        )
    if not 0 <= rst_fraction <= 1:
        raise ConfigurationError(
            f"rst_fraction must be in [0, 1], got {rst_fraction}"
        )


def _split_alive(
    records: Sequence[NodeRecord], timeline: PresenceTimeline, when: float
) -> Tuple[List[NetAddr], List[NetAddr]]:
    """Addresses of ``records`` online at ``when`` and the rest, each in
    population order."""
    alive: List[NetAddr] = []
    gone: List[NetAddr] = []
    alive_at = timeline.alive_at
    for record in records:
        addr = record.addr
        (alive if alive_at(addr, when) else gone).append(addr)
    return alive, gone


@dataclass
class LongitudinalConfig:
    """Sizing of a crawl campaign."""

    scale: float = 0.05
    seed: int = 1
    #: The node-tier model, part of run-store keys: ``"hybrid"`` — full
    #: tier reachable nodes, a light-tier unreachable cloud — is the only
    #: one (see :func:`_check_tiers`).
    fidelity: str = "hybrid"
    campaign_days: float = float(cal.CAMPAIGN_DAYS)
    #: Crawl snapshots over the campaign (the paper crawled ~daily).
    snapshots: int = 60
    #: Ground-truth reachable share of node tables.  Set above the
    #: paper's measured 14.9% because the *measured* share classifies by
    #: the crawler's source views, which cover ~82% of truly reachable
    #: nodes: 0.18 * 0.82 ≈ 0.149.
    addr_reachable_share: float = 0.18
    churn: ReachableChurnConfig = field(default_factory=ReachableChurnConfig)
    #: Size of the paper's Fig. 8 flooder cohort, planted as
    #: :func:`~repro.netmodel.malicious.paper_flooders`: ``None`` is the
    #: paper's 73 scaled with the population (at least one); 0 plants
    #: none.
    flooder_count: Optional[int] = None
    #: Fraction of silent-class addresses answering RST (vs. dropping).
    rst_fraction: float = 0.45
    #: Fault plan compiled onto the run (see ``repro.faults``); the empty
    #: plan is a fault-free run.  Part of the config dataclass, hence of
    #: run-store keys: the same campaign under different faults is a
    #: different experiment.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Attack plan (see ``repro.adversary``).  A non-empty plan is planted
    #: instead of the paper's cohort, so it is refused beside a
    #: ``flooder_count``; like ``faults`` it is part of run-store keys.
    #: Crawl campaigns only expose the GETADDR surface, so only
    #: ``addr_flooder`` specs are accepted here — the other kinds need
    #: protocol fidelity.
    attack: AttackPlan = field(default_factory=AttackPlan)
    #: Protocol-policy variant (``repro.bitcoin.variant_names()``).  The
    #: crawl model exposes one policy surface — what the population
    #: gossips: a tried-only variant's materialized tables hold only the
    #: reachable sample — so tried-only variants starve the unreachable
    #: share at campaign scale.  Part of run-store and serve keys.
    policies: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> None:
        self.faults.validate()
        self.attack.validate()
        for index, spec in enumerate(self.attack.attackers):
            if spec.kind != KIND_ADDR_FLOODER:
                raise ConfigurationError(
                    f"attacker #{index}: kind {spec.kind!r} needs "
                    "protocol fidelity — crawl campaigns support only "
                    "addr_flooder attackers"
                )
        if self.flooder_count is not None:
            if self.flooder_count < 0:
                raise ConfigurationError(
                    f"flooder_count must be >= 0 (0 = no flooders), "
                    f"got {self.flooder_count}"
                )
            if self.attack.attackers:
                raise ConfigurationError(
                    "flooder_count sizes the Fig. 8 cohort that a non-empty "
                    "attack plan replaces — set one or the other"
                )
        _check_tiers(self.fidelity, self.rst_fraction)
        self.churn.validate()
        if self.campaign_days <= 0:
            raise ConfigurationError(
                f"campaign_days must be > 0, got {self.campaign_days}"
            )
        if self.scale <= 0:
            raise ScenarioError("scale must be positive")
        if self.snapshots < 1:
            raise ScenarioError("need at least one snapshot")
        if not 0 < self.addr_reachable_share < 1:
            raise ScenarioError("addr_reachable_share must be in (0, 1)")


class LongitudinalScenario:
    """The 60-day campaign world, driven snapshot by snapshot."""

    def __init__(self, config: Optional[LongitudinalConfig] = None) -> None:
        self.config = config if config is not None else LongitudinalConfig()
        self.config.validate()
        self.sim = Simulator(seed=self.config.seed)
        rng = self.sim.random.stream("scenario")
        self._rng = rng
        self.universe = ASUniverse(rng)
        self.population = Population(
            rng,
            self.universe,
            PopulationConfig(
                scale=self.config.scale,
                cumulative_reachable=round(
                    cal.CUMULATIVE_REACHABLE * REACHABLE_OVERPROVISION
                ),
            ),
        )
        # Flooders are planted before the unreachable timelines so their
        # fabricated-pool volumes can be debited from the silent class —
        # the paper's cumulative 694K unreachable includes the flooders'
        # fabrications, so ours must not double-count them.
        plan = self.config.attack
        if not plan.attackers:
            count = self.config.flooder_count
            if count is None:
                count = max(
                    1, round(cal.MALICIOUS_NODE_COUNT * self.config.scale)
                )
            plan = paper_flooders(count)
        self.flooders = self._plant(plan)
        self.population.trim_silent(sum(f.flood_volume for f in self.flooders))
        self.reachable_timeline = build_reachable_timeline(
            self.sim.random.stream("churn-reachable"),
            self.population.reachable,
            self.config.churn,
            self.config.campaign_days,
            scale=self.config.scale,
        )
        responsive_fraction = (
            cal.RESPONSIVE_PER_SNAPSHOT / cal.CUMULATIVE_RESPONSIVE
        )
        silent_fraction = (
            (cal.UNREACHABLE_PER_SNAPSHOT - cal.RESPONSIVE_PER_SNAPSHOT)
            / (cal.CUMULATIVE_UNREACHABLE - cal.CUMULATIVE_RESPONSIVE)
        )
        self.responsive_timeline = build_unreachable_timeline(
            self.sim.random.stream("churn-responsive"),
            self.population.responsive,
            self.config.campaign_days,
            responsive_fraction,
        )
        self.silent_timeline = build_unreachable_timeline(
            self.sim.random.stream("churn-silent"),
            self.population.silent,
            self.config.campaign_days,
            silent_fraction,
        )
        self.oracles = AddressOracles(
            self.sim.random.stream("oracles"), self.reachable_timeline
        )
        #: The unreachable cloud as light-tier endpoints.
        self.light_cloud = LightCloud(
            self.sim,
            self.sim.random.stream("nat"),
            rst_fraction=self.config.rst_fraction,
            assist_fraction=self.config.policies.assist_fraction,
        )
        #: One AddrServer per reachable record, started/stopped with
        #: churn; each takes its ``("server", addr)`` stream when first
        #: asked for addresses.
        self.servers: Dict[NetAddr, AddrServer] = {
            record.addr: AddrServer(self.sim, record.addr)
            for record in self.population.reachable
        }
        #: Fault injector, when the config's plan is not empty.  Crash
        #: faults are rejected here (no full nodes to crash in this
        #: fidelity); partitions/drops/delays shape the crawler's view.
        self.fault_injector = None
        if self.config.faults.faults:
            self.fault_injector = self.sim.install_faults(
                self.config.faults, asn_of=self.universe.asn_of
            )
        self._snapshot_index = -1

    def _plant(self, plan: AttackPlan) -> List[MaliciousAddrServer]:
        """Materialize a flooder plan as crawl-mode servers.

        Placement mirrors protocol-mode ``install_attack``: scoped specs
        land in their declared ASNs/prefixes/addresses, unscoped ones
        follow the reachable hosting distribution, all drawn from the
        dedicated ``("attack",)`` stream.
        """
        from ..adversary.install import place_address

        rng = self.sim.random.stream("attack")
        flooders: List[MaliciousAddrServer] = []
        prefix_hosts: Dict[int, int] = {}
        for spec in plan.attackers:
            for index in range(spec.count):
                addr = place_address(
                    self.universe, spec, index, rng, prefix_hosts
                )
                volume = spec.flood_volume or FloodVolumeModel().sample(
                    rng, scale=self.config.scale
                )
                flooders.append(
                    MaliciousAddrServer(
                        self.sim,
                        addr,
                        rng,
                        population=self.population,
                        flood_volume=volume,
                    )
                )
        return flooders

    # ------------------------------------------------------------------
    # Snapshot scheduling
    # ------------------------------------------------------------------
    @property
    def snapshot_times(self) -> List[float]:
        """Campaign times of the crawl snapshots (evenly spaced)."""
        horizon = self.config.campaign_days * DAYS
        step = horizon / self.config.snapshots
        return [step * (index + 0.5) for index in range(self.config.snapshots)]

    def alive_reachable(self, when: float) -> List[NodeRecord]:
        return [
            record
            for record in self.population.reachable
            if self.reachable_timeline.alive_at(record.addr, when)
        ]

    def gossip_pool(self, when: float) -> List[NetAddr]:
        """Unreachable addresses currently circulating in gossip."""
        responsive, _ = _split_alive(
            self.population.responsive, self.responsive_timeline, when
        )
        silent, _ = _split_alive(
            self.population.silent, self.silent_timeline, when
        )
        return responsive + silent

    def materialize_snapshot(self, when: float) -> None:
        """Fast-forward the world to ``when`` and rebuild node state.

        Starts/stops AddrServers per the churn timeline, refreshes their
        tables from the current gossip pool at the configured composition,
        and installs NAT probe behaviour for the unreachable pool.
        """
        if when < self.sim.now:
            raise ScenarioError("snapshots must advance in time")
        self.sim.run_until(when)
        alive_addrs = [record.addr for record in self.alive_reachable(when)]
        alive_set = set(alive_addrs)
        # Presence is decided once; the gossip pool and the NAT marks
        # below both read these lists.
        responsive_alive, responsive_gone = _split_alive(
            self.population.responsive, self.responsive_timeline, when
        )
        silent_alive, silent_gone = _split_alive(
            self.population.silent, self.silent_timeline, when
        )
        # One last-seen record per gossiped address, made here and shared
        # by every table that draws it.  The lists keep the address order,
        # so the draws are the ones bare addresses got.
        alive_records = stamp(alive_addrs, when)
        pool = stamp(responsive_alive + silent_alive, when)

        # Table sizing: reachable sample + enough unreachable for the mix.
        n_reach = min(CRAWL_TABLE_REACHABLE, len(alive_records))
        share = self.config.addr_reachable_share
        n_unreach = min(len(pool), round(n_reach * (1 - share) / share))

        rng = self._rng
        tried_only = self.config.policies.addr_from_tried_only
        for addr, server in self.servers.items():
            if addr in alive_set:
                # Both samples are always drawn (the RNG sequence is
                # policy-independent); the policy only composes them:
                # baseline gossip spreads addresses with no notion of
                # reachability (the §IV-B weakness), tried-only keeps the
                # reachable part.
                reach_sample = sample(rng, alive_records, n_reach)
                unreach_sample = sample(rng, pool, n_unreach)
                server.set_table(
                    reach_sample
                    if tried_only
                    else reach_sample + unreach_sample
                )
                server.start()
            else:
                server.stop()
        for flooder in self.flooders:
            flooder.start()

        # NAT behaviour of the unreachable world at this instant, one
        # batch per pool in population order (which fixes the mark_silent
        # RNG draw order).
        cloud = self.light_cloud
        for addr in responsive_gone:
            cloud.mark_offline(addr)
        cloud.mark_responsive(responsive_alive)
        for addr in silent_gone:
            cloud.mark_offline(addr)
        cloud.mark_silent(silent_alive)
        self._snapshot_index += 1

    def crawl_ended(self) -> None:
        """Drop the served tables once the snapshot's crawl is over.

        :meth:`materialize_snapshot` draws every table afresh before the
        next crawl reads one, so until then they are dead weight, and a
        state checkpoint taken in between carries none.  Flooder pools
        are kept; so is the table of a server with a connection still
        open (:meth:`AddrServer.crawl_ended`)."""
        for server in self.servers.values():
            server.crawl_ended()

    def tier_census(self) -> Dict[str, int]:
        """Count live behaviors per tier (transport's view of the world)."""
        return self.sim.network.tier_census()


# ---------------------------------------------------------------------------
# Protocol-fidelity scenario
# ---------------------------------------------------------------------------

#: Reachable addresses each protocol-world node's initial table holds.
PROTOCOL_TABLE_REACHABLE = 60


@dataclass
class ProtocolConfig:
    """Sizing of a live protocol network."""

    seed: int = 7
    #: The node-tier model, part of run-store keys: ``"hybrid"`` is the
    #: only one (see :func:`_check_tiers`).
    fidelity: str = "hybrid"
    #: Reachable full nodes online at start.
    n_reachable: int = 150
    #: Responsive unreachable addresses (FIN to probes, pollute tables).
    n_responsive: Optional[int] = None
    #: Silent/stale unreachable addresses.
    n_silent: Optional[int] = None
    #: Target ADDR/table composition (reachable share).
    addr_reachable_share: float = cal.ADDR_REACHABLE_SHARE
    rst_fraction: float = 0.45
    node_config: NodeConfig = field(default_factory=NodeConfig)
    #: Mining switched on (Fig. 1 / relay experiments need blocks).
    mining: bool = True
    block_interval: float = 600.0
    txs_per_block: int = 10
    #: Historical chain length standing nodes are born with.  Replacement
    #: nodes must download all of it before they count as synchronized —
    #: the compressed analogue of Bitcoin's days-long IBD.
    pre_mined_blocks: int = 0
    #: Transaction generator rate (tx/s); 0 disables.
    tx_rate: float = 0.0
    #: Live churn: departures per 10 minutes (None disables).
    churn_per_10min: Optional[float] = None
    #: Fault plan compiled onto the run (see ``repro.faults``); the
    #: empty plan is a fault-free run.
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: Attack plan (see ``repro.adversary``): adversarial peers compiled
    #: onto the run; the empty plan is an attack-free run.  Composes
    #: with ``faults`` and, like it, is part of run-store keys.
    attack: AttackPlan = field(default_factory=AttackPlan)

    def validate(self) -> None:
        self.faults.validate()
        # Eager, named-field errors (ConfigurationError) — a bad plan
        # must never surface as a mid-run failure.
        self.attack.validate_for(self.n_reachable)
        _check_tiers(self.fidelity, self.rst_fraction)
        if self.n_reachable < 2:
            raise ScenarioError("need at least two reachable nodes")
        if (self.churn_per_10min or 0.0) < 0:
            raise ConfigurationError(
                f"churn_per_10min must be >= 0, got {self.churn_per_10min}"
            )
        if not 0 < self.addr_reachable_share < 1:
            raise ScenarioError("addr_reachable_share must be in (0, 1)")

    @property
    def responsive_count(self) -> int:
        if self.n_responsive is not None:
            return self.n_responsive
        # Preserve the measured per-snapshot ratio: ~54K responsive to
        # ~10K reachable.
        return round(
            self.n_reachable
            * cal.RESPONSIVE_PER_SNAPSHOT
            / cal.BITNODES_ADDRS_PER_SNAPSHOT
        )

    @property
    def silent_count(self) -> int:
        if self.n_silent is not None:
            return self.n_silent
        return round(
            self.n_reachable
            * (cal.UNREACHABLE_PER_SNAPSHOT - cal.RESPONSIVE_PER_SNAPSHOT)
            / cal.BITNODES_ADDRS_PER_SNAPSHOT
        )


class ProtocolScenario:
    """A live Bitcoin network with polluted address tables."""

    def __init__(self, config: Optional[ProtocolConfig] = None) -> None:
        self.config = config if config is not None else ProtocolConfig()
        self.config.validate()
        self.sim = Simulator(seed=self.config.seed)
        rng = self.sim.random.stream("scenario")
        self._rng = rng
        self.universe = ASUniverse(rng)
        scale = self.config.n_reachable / cal.BITNODES_ADDRS_PER_SNAPSHOT
        self.population = Population(
            rng,
            self.universe,
            PopulationConfig(
                scale=scale,
                # 3x the standing network: the extra records are the
                # replacement pool live churn draws from before recycling.
                cumulative_reachable=round(
                    3 * self.config.n_reachable / scale
                ),
                cumulative_responsive=round(
                    self.config.responsive_count / scale
                ),
                cumulative_unreachable=round(
                    (self.config.responsive_count + self.config.silent_count)
                    / scale
                ),
            ),
        )
        #: The unreachable cloud as light-tier endpoints.
        self.light_cloud = LightCloud(
            self.sim,
            self.sim.random.stream("nat"),
            rst_fraction=self.config.rst_fraction,
            assist_fraction=self.config.node_config.policies.assist_fraction,
        )
        self.light_cloud.mark_responsive(
            record.addr for record in self.population.responsive
        )
        self.light_cloud.mark_silent(
            record.addr for record in self.population.silent
        )
        self.seeder = DnsSeeder(self.sim.random.stream("dns"))
        #: Every honest node of the run: the running ones, and the record
        #: of each that churn took (``BitcoinNode.depart`` — identity and
        #: measurement history, no protocol state) until its address is
        #: recycled by a replacement.
        self.nodes: List[BitcoinNode] = []
        self._next_replacement = 0
        # Seed-table pools, computed once: at paper scale (thousands of
        # reachable nodes, tens of thousands of unreachable records)
        # rebuilding these per node is quadratic.  The cached lists hold
        # exactly what the per-node construction produced — population
        # order — so the sampling draws are unchanged.  Fakes are
        # appended per call in ``_seed_tables`` because malicious nodes
        # mint them while the run is live.
        self._reachable_pool: List[NetAddr] = [
            record.addr
            for record in self.population.reachable[: self.config.n_reachable]
        ]
        self._unreachable_pool: List[NetAddr] = [
            record.addr for record in self.population.responsive
        ]
        self._unreachable_pool.extend(
            record.addr for record in self.population.silent
        )
        #: Both pools as ADDR records stamped ``_seed_stamp``: nodes
        #: seeded at one instant (the whole standing network, at t = 0)
        #: share one record per pool address.
        self._seed_stamp: Optional[float] = None
        self._reachable_records: List[TimestampedAddr] = []
        self._unreachable_records: List[TimestampedAddr] = []
        # Materialise the standing network.
        standing = self.population.reachable[: self.config.n_reachable]
        # Addresses, not records: a snapshot rebuilds the population's
        # records from columns, so records held here would load as copies.
        self._replacement_pool: List[NetAddr] = [
            record.addr
            for record in self.population.reachable[self.config.n_reachable:]
        ]
        for record in standing:
            node = self._make_node(record)
            self.nodes.append(node)
            self.seeder.register(record.addr)
        self.mining: Optional[MiningProcess] = None
        if self.config.mining:
            self.mining = MiningProcess(
                self.sim,
                self.running_nodes,
                block_interval=self.config.block_interval,
                txs_per_block=self.config.txs_per_block,
            )
            if self.config.pre_mined_blocks > 0:
                history = self.mining.premine(self.config.pre_mined_blocks)
                for node in self.nodes:
                    for block in history:
                        node.chain.add_block(block)
                    node.tip_history[-1] = (0.0, node.chain.height)
        self.txgen: Optional[TransactionGenerator] = None
        if self.config.tx_rate > 0:
            self.txgen = TransactionGenerator(
                self.sim, self.running_nodes, tx_rate=self.config.tx_rate
            )
        #: The nodes an experiment measures (observers, the restarted
        #: resync node).  Churn never picks them: the paper's
        #: measurement nodes did not depart.
        self.measurement_nodes: List[BitcoinNode] = []
        self.churn: Optional[ChurnProcess] = None
        if self.config.churn_per_10min:
            self.churn = ChurnProcess(
                self.sim,
                self.running_nodes,
                self.add_replacement_node,
                departures_per_10min=self.config.churn_per_10min,
                # A bound list method, not a lambda: the churn process
                # rides in snapshots and must stay picklable.
                protect=self.measurement_nodes.__contains__,
            )
        #: Fault injector, when the config's plan is not empty.  This
        #: fidelity supports every fault kind including crash/restart
        #: (the node provider is the live population).
        self.fault_injector = None
        if self.config.faults.faults:
            self.fault_injector = self.sim.install_faults(
                self.config.faults,
                asn_of=self.universe.asn_of,
                node_provider=self.running_nodes,
            )
        #: Attack force, when the config's plan is not empty.  Installed
        #: last so eclipse specs can target the standing roster;
        #: attackers are kept off ``self.nodes`` (churn, mining, and the
        #: sync metric see honest nodes only).
        self.attack_force = None
        if self.config.attack.attackers:
            from ..adversary.install import install_attack

            self.attack_force = install_attack(self, self.config.attack)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def _clone_node_config(self) -> NodeConfig:
        base = self.config.node_config
        # Dataclass shallow copy with fresh mutable fields.
        from dataclasses import replace

        return replace(
            base,
            proc_times=dict(base.proc_times),
            policies=replace(base.policies),
        )

    def _make_node(self, record: NodeRecord) -> BitcoinNode:
        node = BitcoinNode(self.sim, record.addr, self._clone_node_config())
        self._seed_tables(node)
        return node

    def _seed_tables(self, node: BitcoinNode) -> None:
        """Pollute the node's addrman with the measured 15/85 mixture."""
        now = self.sim.now
        if now != self._seed_stamp:
            self._seed_stamp = now
            self._reachable_records = stamp(self._reachable_pool, now)
            self._unreachable_records = stamp(self._unreachable_pool, now)
        own = node.addr
        reachable = [
            record for record in self._reachable_records if record[0] != own
        ]
        n_reach = min(PROTOCOL_TABLE_REACHABLE, len(reachable))
        share = self.config.addr_reachable_share
        unreachable = self._unreachable_records
        fake = self.population.fake
        if fake:
            unreachable = unreachable + stamp(
                (record.addr for record in fake), now
            )
        n_unreach = min(len(unreachable), round(n_reach * (1 - share) / share))
        # What ``node.bootstrap`` would do with the addresses, minus the
        # per-node records: the sample is over shared ones (same draws —
        # ``sample`` picks by index) and holds no ``node.addr``.
        node.addrman.add_many(
            sample(self._rng, reachable, n_reach)
            + sample(self._rng, unreachable, n_unreach),
            now,
        )

    def make_observer_node(
        self, config: Optional[NodeConfig] = None
    ) -> BitcoinNode:
        """Create (but do not start) a fresh measurement node.

        The node gets a fresh address in the reachable hosting profile and
        polluted tables; it is appended to the scenario's node list, so
        mining treats it like any other node once started, and to
        ``measurement_nodes``, so churn never picks it.
        """
        asn = self.universe.sample_asn("reachable", self._rng)
        addr = self.universe.allocate_address(asn)
        node = BitcoinNode(
            self.sim, addr, config if config is not None else self._clone_node_config()
        )
        self._seed_tables(node)
        self.nodes.append(node)
        self.measurement_nodes.append(node)
        return node

    def running_nodes(self) -> List[BitcoinNode]:
        return [node for node in self.nodes if node.running]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, warmup: float = 0.0) -> None:
        """Start every process; optionally run a warm-up period."""
        for node in self.nodes:
            node.start()
        if self.mining is not None:
            self.mining.start()
        if self.txgen is not None:
            self.txgen.start()
        if self.churn is not None:
            self.churn.start()
        if warmup > 0:
            self.sim.run_for(warmup)

    def add_replacement_node(self) -> Optional[BitcoinNode]:
        """A new reachable node joins: fresh chain, polluted tables.

        Replacement tables carry the same 15/85 mixture as the standing
        network — a joiner's addrman fills from its first GETADDR
        exchanges, which are dominated by unreachable gossip (§IV-B), so
        its slot-filling is as slow as everyone else's.  When the unique-
        address pool is exhausted, departed addresses are recycled (nodes
        rejoining, as in Fig. 12): the rejoiner is a fresh node and the
        old record leaves ``nodes`` (the churn log keeps addresses, not
        nodes, so it does not hold the record back).
        """
        if self._next_replacement < len(self._replacement_pool):
            addr = self._replacement_pool[self._next_replacement]
            self._next_replacement += 1
        else:
            stopped = [node for node in self.nodes if not node.running]
            if not stopped:
                return None
            old = self._rng.choice(stopped)
            self.nodes.remove(old)
            addr = old.addr
        node = BitcoinNode(self.sim, addr, self._clone_node_config())
        self._seed_tables(node)
        node.start()
        self.nodes.append(node)
        self.seeder.register(addr)
        return node

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def tier_census(self) -> Dict[str, int]:
        """Count live behaviors per tier (transport's view of the world).

        Calibration metrics (sync fraction, relay delay, attempt logs)
        are drawn only from ``self.nodes`` — all full tier — so the
        census is diagnostic: it shows how much of the world the light
        tier is carrying.
        """
        return self.sim.network.tier_census()

    @property
    def best_height(self) -> int:
        if self.mining is not None:
            return self.mining.best_height
        return max((node.chain.height for node in self.nodes), default=0)

    def sync_fraction(self) -> float:
        """Share of running reachable nodes holding the best chain."""
        running = self.running_nodes()
        if not running:
            return 0.0
        best = self.best_height
        synced = sum(1 for node in running if node.chain.height >= best)
        return synced / len(running)
