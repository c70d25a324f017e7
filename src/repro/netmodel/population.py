"""The node population: who exists, of what class, hosted where.

The population generator materialises address *records* for the four node
classes the paper distinguishes:

* ``REACHABLE`` — accepts inbound connections; the ~10K-node network
  Bitnodes sees (≈29K unique over 60 days under churn);
* ``RESPONSIVE`` — unreachable but verifiably running Bitcoin (answers the
  VER probe with FIN); ≈54K at any time, ≈163K cumulative;
* ``SILENT`` — unreachable addresses that do not answer probes: departed
  hosts, firewalled nodes, stale gossip; the bulk of the ≈694K;
* ``FAKE`` — addresses fabricated by malicious ADDR flooders (§IV-B);
  created on demand by :mod:`repro.netmodel.malicious`.

Counts follow the paper's calibration scaled by ``scale``; port and
critical-infrastructure flags follow the measured distributions.
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioError
from ..simnet.addresses import DEFAULT_PORT, NetAddr
from . import calibration as cal
from .asmap import ASUniverse


class NodeClass(enum.Enum):
    """The paper's node taxonomy."""

    REACHABLE = "reachable"
    RESPONSIVE = "responsive"
    SILENT = "silent"
    FAKE = "fake"

    @property
    def hosting_profile(self) -> str:
        """Which Table-I hosting distribution this class follows."""
        if self is NodeClass.REACHABLE:
            return "reachable"
        if self is NodeClass.RESPONSIVE:
            return "responsive"
        return "unreachable"


@dataclass(slots=True)
class NodeRecord:
    """One address in the universe and its ground truth.

    Slotted: paper-scale worlds hold tens of thousands of records, and
    the per-instance ``__dict__`` would cost more than the fields.  No
    checkpoint holds a record: :class:`Population` pickles its records
    as columns.
    """

    addr: NetAddr
    asn: int
    node_class: NodeClass
    #: Belongs to the critical-infrastructure blacklist (§III-A ethics).
    critical: bool = False


#: Share of reachable records on the critical-infrastructure blacklist.
CRITICAL_FRACTION = cal.EXCLUDED_BITNODES / cal.BITNODES_ADDRS_PER_SNAPSHOT


@dataclass
class PopulationConfig:
    """Sizing of the population, as fractions of the paper's campaign.

    ``scale=1.0`` reproduces the paper's absolute counts; benchmarks and
    tests run smaller scales and compare ratios, which are scale-free.
    """

    scale: float = 0.1
    #: Override absolute counts (pre-scale); None = paper values.
    cumulative_reachable: Optional[int] = None
    cumulative_responsive: Optional[int] = None
    cumulative_unreachable: Optional[int] = None

    def validate(self) -> None:
        if self.scale <= 0:
            raise ScenarioError(f"scale must be positive, got {self.scale}")

    def scaled(self, base: int) -> int:
        return max(1, round(base * self.scale))

    @property
    def n_reachable(self) -> int:
        base = self.cumulative_reachable or cal.CUMULATIVE_REACHABLE
        return self.scaled(base)

    @property
    def n_responsive(self) -> int:
        base = self.cumulative_responsive or cal.CUMULATIVE_RESPONSIVE
        return self.scaled(base)

    @property
    def n_silent(self) -> int:
        total = self.cumulative_unreachable or cal.CUMULATIVE_UNREACHABLE
        return max(1, self.scaled(total) - self.n_responsive)


class Population:
    """All generated records, indexed for classification.

    Pickled as columns (:func:`_load_population`): per class its address
    list, an ``array("I")`` of ASNs and a ``bytes`` of critical flags, in
    record order; the records and ``_by_addr`` are rebuilt on load.  The
    address lists hold the live :class:`NetAddr` objects, never new ones
    made from ip/port columns: the timelines, the servers, the light
    cloud and a campaign's result hold the same objects, and the pickle
    memo keeps them one object per address across a load.
    """

    def __init__(
        self,
        rng: random.Random,
        universe: ASUniverse,
        config: Optional[PopulationConfig] = None,
    ) -> None:
        self.config = config if config is not None else PopulationConfig()
        self.config.validate()
        self._rng = rng
        self.universe = universe
        self.reachable: List[NodeRecord] = []
        self.responsive: List[NodeRecord] = []
        self.silent: List[NodeRecord] = []
        self.fake: List[NodeRecord] = []
        self._by_addr: Dict[NetAddr, NodeRecord] = {}
        # Distinct non-default ports, scaled down with the population.
        self._reachable_ports = self._make_port_pool(cal.REACHABLE_OTHER_PORTS)
        self._unreachable_ports = self._make_port_pool(
            cal.UNREACHABLE_OTHER_PORTS
        )
        self._generate()

    def _make_port_pool(self, size: int) -> List[int]:
        size = max(1, round(size * min(1.0, self.config.scale * 4)))
        pool = set()
        while len(pool) < size:
            port = self._rng.randrange(1024, 65536)
            if port != DEFAULT_PORT:
                pool.add(port)
        return sorted(pool)

    def _pick_port(self, default_share: float, pool: List[int]) -> int:
        if self._rng.random() < default_share:
            return DEFAULT_PORT
        return self._rng.choice(pool)

    def _generate(self) -> None:
        for _ in range(self.config.n_reachable):
            self._make_record(
                NodeClass.REACHABLE,
                self._pick_port(
                    cal.REACHABLE_DEFAULT_PORT_SHARE, self._reachable_ports
                ),
                critical=self._rng.random() < CRITICAL_FRACTION,
            )
        for _ in range(self.config.n_responsive):
            self._make_record(
                NodeClass.RESPONSIVE,
                self._pick_port(
                    cal.UNREACHABLE_DEFAULT_PORT_SHARE, self._unreachable_ports
                ),
            )
        for _ in range(self.config.n_silent):
            self._make_record(
                NodeClass.SILENT,
                self._pick_port(
                    cal.UNREACHABLE_DEFAULT_PORT_SHARE, self._unreachable_ports
                ),
            )

    def _make_record(
        self, node_class: NodeClass, port: int, critical: bool = False
    ) -> NodeRecord:
        asn = self.universe.sample_asn(node_class.hosting_profile, self._rng)
        addr = self.universe.allocate_address(asn, port=port)
        record = NodeRecord(
            addr=addr, asn=asn, node_class=node_class, critical=critical
        )
        self._by_addr[addr] = record
        self._bucket(node_class).append(record)
        return record

    def _bucket(self, node_class: NodeClass) -> List[NodeRecord]:
        return {
            NodeClass.REACHABLE: self.reachable,
            NodeClass.RESPONSIVE: self.responsive,
            NodeClass.SILENT: self.silent,
            NodeClass.FAKE: self.fake,
        }[node_class]

    # ------------------------------------------------------------------
    # Fake addresses (malicious flooders mint these lazily)
    # ------------------------------------------------------------------
    def mint_fake_address(self) -> NodeRecord:
        """A fabricated unreachable address advertised by a flooder."""
        return self._make_record(
            NodeClass.FAKE,
            self._pick_port(
                cal.UNREACHABLE_DEFAULT_PORT_SHARE, self._unreachable_ports
            ),
        )

    def trim_silent(self, count: int) -> int:
        """Drop ``count`` silent records (and their index entries).

        Scenario builders call this when another source of unreachable
        addresses (malicious flooder pools) is accounted against the same
        calibrated total, so the campaign's cumulative unreachable count
        stays on target.  Returns the number actually removed.
        """
        removed = 0
        while removed < count and len(self.silent) > 1:
            record = self.silent.pop()
            del self._by_addr[record.addr]
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record(self, addr: NetAddr) -> Optional[NodeRecord]:
        return self._by_addr.get(addr)

    def classify(self, addr: NetAddr) -> Optional[NodeClass]:
        """Ground-truth class of ``addr`` (None if outside the universe)."""
        record = self._by_addr.get(addr)
        return record.node_class if record is not None else None

    def is_reachable_addr(self, addr: NetAddr) -> bool:
        record = self._by_addr.get(addr)
        return record is not None and record.node_class is NodeClass.REACHABLE

    @property
    def unreachable_records(self) -> List[NodeRecord]:
        """Responsive + silent + fake: everything not reachable."""
        return self.responsive + self.silent + self.fake

    def addresses(self, node_class: NodeClass) -> List[NetAddr]:
        return [record.addr for record in self._bucket(node_class)]

    def summary(self) -> Dict[str, int]:
        return {
            "reachable": len(self.reachable),
            "responsive": len(self.responsive),
            "silent": len(self.silent),
            "fake": len(self.fake),
        }

    def __reduce__(self):
        columns = [
            (
                [record.addr for record in records],
                array("I", [record.asn for record in records]),
                bytes([record.critical for record in records]),
            )
            for records in map(self._bucket, NodeClass)
        ]
        return _load_population, (
            self.config,
            self._rng,
            self.universe,
            self._reachable_ports,
            self._unreachable_ports,
            columns,
        )


def _load_population(
    config: PopulationConfig,
    rng: random.Random,
    universe: ASUniverse,
    reachable_ports: List[int],
    unreachable_ports: List[int],
    columns: List[Tuple[List[NetAddr], Sequence[int], bytes]],
) -> Population:
    """The population :meth:`Population.__reduce__` wrote.  Records are
    indexed in class order, the order ``_by_addr`` has in a built
    population: the classes are generated in that order, trimming only
    deletes, and fakes are minted after generation."""
    population = Population.__new__(Population)
    population.config = config
    population._rng = rng
    population.universe = universe
    classes = []
    by_addr: Dict[NetAddr, NodeRecord] = {}
    for node_class, (addrs, asns, critical) in zip(NodeClass, columns):
        records = [
            NodeRecord(addr, asn, node_class, flag == 1)
            for addr, asn, flag in zip(addrs, asns, critical)
        ]
        by_addr.update(zip(addrs, records))
        classes.append(records)
    (
        population.reachable,
        population.responsive,
        population.silent,
        population.fake,
    ) = classes
    population._by_addr = by_addr
    population._reachable_ports = reachable_ports
    population._unreachable_ports = unreachable_ports
    return population
