"""Calibration constants: every number the paper measured.

This module is the single source of truth tying the simulation to the
paper.  Scenario builders read these values (scaled by a ``scale`` factor)
and the accuracy table (``benchmarks/accuracy.py``) reads each row's
paper value from here.

All values come from the paper's text, tables, and figures; section
references are given inline.
"""

from __future__ import annotations

from typing import List, Tuple

# ---------------------------------------------------------------------------
# §III-A / Fig. 3 — reachable-address collection
# ---------------------------------------------------------------------------

#: Average IP addresses per snapshot from Bitnodes.
BITNODES_ADDRS_PER_SNAPSHOT = 10_114
#: Average IP addresses per snapshot from the DNS server database.
DNS_ADDRS_PER_SNAPSHOT = 6_637
#: Addresses common to both sources.
COMMON_ADDRS_PER_SNAPSHOT = 6_078
#: Critical-infrastructure exclusions (Bitnodes / DNS / common).
EXCLUDED_BITNODES = 439
EXCLUDED_DNS = 342
EXCLUDED_COMMON = 329
#: Reachable nodes our node connected to, per snapshot.
CONNECTED_PER_SNAPSHOT = 8_270
#: Reachable nodes found only via the DNS database (skipped by Bitnodes).
DNS_ONLY_CONNECTED = 404
#: Unique reachable addresses over the 60-day campaign.
CUMULATIVE_REACHABLE = 28_781
#: Share of reachable nodes on the default 8333 port.
REACHABLE_DEFAULT_PORT_SHARE = 0.9578
#: Distinct non-default ports among reachable nodes.
REACHABLE_OTHER_PORTS = 264

# ---------------------------------------------------------------------------
# §IV-A / Figs. 4-5 — unreachable and responsive nodes
# ---------------------------------------------------------------------------

#: Unique unreachable addresses over 60 days.
CUMULATIVE_UNREACHABLE = 694_696
#: Unreachable addresses harvested per snapshot (approximate).
UNREACHABLE_PER_SNAPSHOT = 195_000
#: Share of unreachable addresses on the default port.
UNREACHABLE_DEFAULT_PORT_SHARE = 0.8854
#: Distinct non-default ports among unreachable addresses.
UNREACHABLE_OTHER_PORTS = 9_414
#: Cumulative responsive (VER-answering) addresses.
CUMULATIVE_RESPONSIVE = 163_496
#: Responsive addresses per snapshot (≈54K, 27.69% of per-snapshot pool).
RESPONSIVE_PER_SNAPSHOT = 54_000
#: Responsive share of all unreachable addresses (cumulative).
RESPONSIVE_SHARE_CUMULATIVE = 0.2354
#: Responsive share per snapshot.
RESPONSIVE_SHARE_PER_SNAPSHOT = 0.2769
#: Ratio of unreachable to reachable network size ("24x").
UNREACHABLE_TO_REACHABLE_RATIO = 24.0
#: Campaign length in days (04 Apr 2020 – 04 Jun 2020).
CAMPAIGN_DAYS = 60

# ---------------------------------------------------------------------------
# §IV-A / Table I — AS hosting
# ---------------------------------------------------------------------------

#: Top-20 ASes hosting reachable nodes: (ASN, percent).
TOP_AS_REACHABLE: List[Tuple[int, float]] = [
    (3320, 8.08), (24940, 5.05), (8881, 4.60), (16509, 3.62), (6805, 2.97),
    (14061, 2.84), (7922, 2.55), (16276, 2.43), (3209, 2.06), (12322, 1.37),
    (7545, 1.33), (15169, 1.03), (3303, 0.99), (6830, 0.95), (12389, 0.94),
    (701, 0.88), (20676, 0.83), (51167, 0.82), (3352, 0.80), (4134, 0.76),
]
#: Top-20 ASes hosting unreachable nodes.
TOP_AS_UNREACHABLE: List[Tuple[int, float]] = [
    (3320, 6.36), (4134, 5.34), (7922, 4.24), (6939, 3.69), (8881, 2.59),
    (4837, 2.28), (12389, 2.04), (6830, 1.89), (3209, 1.65), (16509, 1.54),
    (7018, 1.32), (6805, 1.31), (9009, 1.19), (2856, 1.14), (3215, 0.80),
    (4808, 0.80), (14061, 0.78), (22773, 0.74), (1221, 0.74), (24940, 0.72),
]
#: Top-20 ASes hosting responsive nodes.
TOP_AS_RESPONSIVE: List[Tuple[int, float]] = [
    (4134, 6.18), (3320, 5.90), (12389, 4.03), (4837, 3.77), (9009, 3.28),
    (8881, 3.07), (6805, 2.87), (3209, 2.51), (7922, 1.56), (14061, 1.44),
    (6830, 1.43), (3352, 1.25), (24940, 1.18), (3269, 1.15), (4808, 1.13),
    (60068, 1.12), (209, 1.11), (7545, 1.10), (701, 1.07), (16276, 0.99),
]
#: Distinct ASes hosting each class.
AS_COUNT_REACHABLE = 2_000
AS_COUNT_UNREACHABLE = 8_494
AS_COUNT_RESPONSIVE = 4_453
#: ASes needed to cover 50% of each class.
AS_50PCT_REACHABLE = 25
AS_50PCT_UNREACHABLE = 36
AS_50PCT_RESPONSIVE = 24

# ---------------------------------------------------------------------------
# §IV-B / Figs. 6-8 — addressing protocol
# ---------------------------------------------------------------------------

#: Average share of reachable addresses in an ADDR message.
ADDR_REACHABLE_SHARE = 0.149
#: Average share of unreachable addresses in an ADDR message.
ADDR_UNREACHABLE_SHARE = 0.851
#: Average success rate of outgoing connection attempts.
CONNECTION_SUCCESS_RATE = 0.112
#: Worst observed run: 8 successes out of 137 attempts.
CONNECTION_WORST_RUN = (8, 137)
#: Average outgoing connections observed over the Fig. 6 experiment.
MEAN_OUTGOING_CONNECTIONS = 6.67
#: Fraction of time with fewer than 8 outgoing connections.
TIME_BELOW_8_CONNECTIONS = 0.60
#: Fig. 6 experiment duration (seconds).
CONN_STABILITY_DURATION = 260.0
#: Observed range of outgoing connections (includes 2 feelers).
CONNECTION_RANGE = (2, 10)
#: Malicious ADDR-flooding nodes detected.
MALICIOUS_NODE_COUNT = 73
#: Malicious nodes that sent more than 100K unreachable addresses.
MALICIOUS_OVER_100K = 8
#: Largest per-node flood observed (addresses).
MALICIOUS_MAX_FLOOD = 400_000
#: Share of malicious nodes hosted in AS3320.
MALICIOUS_AS3320_SHARE = 0.59
MALICIOUS_AS3320 = 3320

# ---------------------------------------------------------------------------
# §IV-C / Figs. 10-11 — relaying protocol
# ---------------------------------------------------------------------------

#: Mean / max block relaying time (receipt → relay to last connection).
BLOCK_RELAY_MEAN = 1.39
BLOCK_RELAY_MAX = 17.0
#: Mean / max transaction relaying time.
TX_RELAY_MEAN = 0.45
TX_RELAY_MAX = 8.0
#: The measurement node's connection count (8 outgoing + 17 incoming).
RELAY_NODE_OUTGOING = 8
RELAY_NODE_INCOMING = 17

# ---------------------------------------------------------------------------
# §IV-D / Figs. 12-13 — churn
# ---------------------------------------------------------------------------

#: Reachable nodes leaving (and joining) the network per day.
DAILY_CHURN_NODES = 708
#: Daily churn as a share of the reachable network.
DAILY_CHURN_RATE = 0.086
#: Mean network lifetime of a reachable node (days).
MEAN_NODE_LIFETIME_DAYS = 16.6
#: Nodes that never left during the 60-day campaign.
ALWAYS_ON_NODES = 3_034
#: Time for a restarted node to resync and relay again (11 min 14 s).
RESYNC_TIME_SECONDS = 674.0
#: Synchronized-node departures per 10 minutes, 2019 vs 2020.
SYNC_DEPARTURES_2019 = 3.9
SYNC_DEPARTURES_2020 = 7.6

# ---------------------------------------------------------------------------
# Fig. 1 — network synchronization
# ---------------------------------------------------------------------------

SYNC_MEAN_2019 = 72.02
SYNC_MEDIAN_2019 = 80.38
SYNC_MEAN_2020 = 61.91
SYNC_MEDIAN_2020 = 65.47

