"""Network population model.

Everything that defines *who is on the simulated Bitcoin network*: the AS
universe and hosting distributions (Table I), the four node classes and
their calibrated counts, churn timelines and live churn, the Bitnodes/DNS
address oracles, the unreachable cloud (NAT/firewall answers as
light-tier endpoints), malicious ADDR flooders, and the two scenario
builders.
"""

from . import calibration
from .addr_server import AddrServer
from .asmap import ASUniverse, HostingProfile, PROFILES, build_class_weights
from .churn import (
    ChurnProcess,
    PresenceTimeline,
    ReachableChurnConfig,
    build_reachable_timeline,
    build_unreachable_timeline,
)
from .malicious import FloodVolumeModel, MaliciousAddrServer, paper_flooders
from .metrics import TopologyStats, connection_graph, topology_stats
from .nat import LightCloud
from .population import NodeClass, NodeRecord, Population, PopulationConfig
from .scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from .seeds import AddressOracles, AddressViews, DnsSeeder

__all__ = [
    "PROFILES",
    "AddrServer",
    "AddressOracles",
    "AddressViews",
    "ASUniverse",
    "ChurnProcess",
    "DnsSeeder",
    "FloodVolumeModel",
    "HostingProfile",
    "LightCloud",
    "LongitudinalConfig",
    "LongitudinalScenario",
    "MaliciousAddrServer",
    "NodeClass",
    "NodeRecord",
    "TopologyStats",
    "Population",
    "PopulationConfig",
    "PresenceTimeline",
    "ProtocolConfig",
    "ProtocolScenario",
    "ReachableChurnConfig",
    "build_class_weights",
    "connection_graph",
    "build_reachable_timeline",
    "build_unreachable_timeline",
    "calibration",
    "paper_flooders",
    "topology_stats",
]
