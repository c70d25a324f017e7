"""Topology metrics of a live protocol network.

The paper's §IV-B argument is structural: with 10K reachable nodes at
outdegree 8 a block needs ~5 relay rounds (8^5 > 10K); if the effective
outdegree drops to 2 it needs ~14 (2^14 > 10K).  These helpers extract
the *actual* connection graph from a running
:class:`~repro.netmodel.scenario.ProtocolScenario` and compute the
degree/connectivity statistics that argument rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..bitcoin.node import BitcoinNode
from ..errors import AnalysisError
from ..simnet import rand

if TYPE_CHECKING:
    import networkx as nx


def connection_graph(nodes: Sequence[BitcoinNode]) -> "nx.DiGraph":
    """The directed outbound-connection graph of running nodes.

    An edge u→v means u holds an established *outbound* connection to v.
    Only connections between nodes in ``nodes`` are included.
    """
    import networkx as nx

    graph = nx.DiGraph()
    addresses = {node.addr for node in nodes if node.running}
    for node in nodes:
        if not node.running:
            continue
        graph.add_node(node.addr)
        for peer in node.peers.values():
            if (
                peer.established
                and not peer.is_inbound
                and peer.remote_addr in addresses
            ):
                graph.add_edge(node.addr, peer.remote_addr)
    return graph


@dataclass(frozen=True)
class TopologyStats:
    """Degree and connectivity summary of one network snapshot."""

    nodes: int
    edges: int
    mean_outdegree: float
    min_outdegree: int
    max_indegree: int
    #: Fraction of nodes in the largest weakly connected component.
    largest_component_share: float
    #: Diameter of the largest component viewed undirected (None if the
    #: component is trivial).
    diameter: Optional[int]

    @property
    def expected_propagation_rounds(self) -> float:
        """The paper's back-of-envelope: rounds r with d^r >= n."""
        if self.mean_outdegree <= 1 or self.nodes <= 1:
            return float("inf")
        return math.log(self.nodes) / math.log(self.mean_outdegree)


def topology_stats(nodes: Sequence[BitcoinNode]) -> TopologyStats:
    """Compute :class:`TopologyStats` for the running nodes."""
    import networkx as nx

    graph = connection_graph(nodes)
    if graph.number_of_nodes() == 0:
        raise AnalysisError("no running nodes to measure")
    outdegrees = [degree for _node, degree in graph.out_degree()]
    indegrees = [degree for _node, degree in graph.in_degree()]
    undirected = graph.to_undirected()
    components = list(nx.connected_components(undirected))
    largest = max(components, key=len)
    diameter: Optional[int] = None
    if len(largest) > 1:
        subgraph = undirected.subgraph(largest)
        diameter = nx.diameter(subgraph)
    return TopologyStats(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        mean_outdegree=sum(outdegrees) / len(outdegrees),
        min_outdegree=min(outdegrees),
        max_indegree=max(indegrees) if indegrees else 0,
        largest_component_share=len(largest) / graph.number_of_nodes(),
        diameter=diameter,
    )


def degree_histogram(nodes: Sequence[BitcoinNode]) -> Dict[int, int]:
    """Outdegree histogram: degree → node count."""
    graph = connection_graph(nodes)
    histogram: Dict[int, int] = {}
    for _node, degree in graph.out_degree():
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def pairwise_distances_sample(
    nodes: Sequence[BitcoinNode], sample: int = 200, seed: int = 0
) -> List[int]:
    """Shortest-path lengths for a sample of connected node pairs.

    Used to validate the propagation-rounds estimate: block hops track
    graph distance.
    """
    import random

    import networkx as nx

    graph = connection_graph(nodes).to_undirected()
    addresses = list(graph.nodes)
    if len(addresses) < 2:
        raise AnalysisError("need at least two nodes")
    rng = random.Random(seed)
    lengths: List[int] = []
    attempts = 0
    while len(lengths) < sample and attempts < sample * 10:
        attempts += 1
        a, b = rand.sample(rng, addresses, 2)
        try:
            lengths.append(nx.shortest_path_length(graph, a, b))
        except nx.NetworkXNoPath:
            continue
    if not lengths:
        raise AnalysisError("no connected pairs found")
    return lengths
