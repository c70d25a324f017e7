"""The ledger's fixed tables: workloads, metrics, and the layer map.

Everything a reader needs to interpret a number lives here, and
``BENCHMARK.json`` at the repo root is this module's
:func:`benchmark_json` written out (the self-test pins the two
together).  Nothing in this module imports ``repro``.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Tuple

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
#: Everything a run writes goes here (ignored by git).
OUT_DIR = os.path.join(LEDGER_DIR, "out")

#: Prefix of the stdout line on which ``run.py`` hands its full record
#: to ``python -m benchmarks.ledger run`` (the driver reads only the
#: line after it).
DETAIL_PREFIX = "LEDGER-DETAIL "

#: Seconds of timed work one run is sized for (see ``workloads.sized``);
#: also ``run_seconds`` in ``BENCHMARK.json``.
RUN_SECONDS = 15

#: name -> one-line reason the workload is in the set.
WORKLOADS: Dict[str, str] = {
    "gossip_scale": (
        "600 hybrid-tier nodes in steady ADDR gossip on the no-cancel lane: "
        "node, addrman, events, handler and transport hold the time; "
        "netmodel, core, store and serve do nothing."
    ),
    "sync_churn": (
        "Fig. 1's 2020 arm (80 full nodes, 14 departures/10 min, "
        "replacements in IBD): the relay, blockchain and connection code "
        "that gossip_scale never enters."
    ),
    "crawl_campaign": (
        "The unstored 60-day crawl behind Figs. 3-5 and 8: netmodel "
        "materialisation, the GETADDR crawler and VER prober, and the only "
        "cancel/compaction path through the scheduler."
    ),
    "serve_stored": (
        "One closed-loop keep-alive client against `repro serve`: the store "
        "as writer (submit) and as reader (cold reads), and serve's "
        "HTTP, routing and LRU (resubmits, warm reads)."
    ),
}

#: `--seed S` derives the per-workload seeds; the default S=5 gives the
#: 5 / 21 / 101 that bench_scale.py and benchmarks/conftest.py use.
SEED_OFFSETS: Dict[str, int] = {
    "gossip_scale": 0,
    "sync_churn": 16,
    "crawl_campaign": 96,
    "serve_stored": 0,
}
DEFAULT_SEED = 5


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Relative worsening of the median that `compare` counts as a
    #: regression between two ledger files of one seed
    #: (``failed_ratio``: absolute); ``None`` for ungated layer metrics.
    bound: Optional[float] = None
    #: Workloads that report it; ``None`` means all of them.
    workloads: Optional[Tuple[str, ...]] = None
    #: The bound ``BENCHMARK.json`` declares.  Its runs each take another
    #: seed, so it has to hold the seed-to-seed spread of the simulated
    #: work on top of the host's noise (measured: README, "Steadiness").
    across_seeds_bound: Optional[float] = None


_SIMS = ("gossip_scale", "crawl_campaign")
_SERVE = ("serve_stored",)

#: The nine end-to-end metrics the ledger prints and `compare` gates.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.20, None, 0.25),
    Metric("run_s", "s", "lower", 0.10, None, 0.25),
    Metric("events_per_s", "events/s", "higher", 0.10, _SIMS),
    Metric("peak_rss_mb", "MB", "lower", 0.05, None, 0.12),
    Metric("failed_ratio", "ratio", "lower", 0.0),
    Metric("submit_to_result_s", "s", "lower", 0.10, _SERVE),
    Metric("cached_resubmit_p50_ms", "ms", "lower", 0.15, _SERVE),
    Metric("read_cold_p50_ms", "ms", "lower", 0.10, _SERVE),
    Metric("read_warm_p50_ms", "ms", "lower", 0.15, _SERVE),
]

# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
OTHER = "other"

#: Dotted-module prefix (under ``repro.``) -> layer; longest prefix wins.
#: The self-test fails when a module under ``src/repro`` matches no row.
LAYER_TABLE: List[Tuple[str, str]] = [
    ("simnet.events", "simnet.events"),
    ("simnet.simulator", "simnet.events"),
    ("simnet.transport", "simnet.transport"),
    ("simnet.latency", "simnet.transport"),
    ("simnet.rand", "simnet.transport"),
    ("simnet.clock", "simnet.transport"),
    ("simnet.addresses", "simnet.transport"),
    ("bitcoin.node", "bitcoin.node"),
    ("bitcoin.peer", "bitcoin.node"),
    ("bitcoin.messages", "bitcoin.node"),
    ("bitcoin.behavior", "bitcoin.node"),
    ("bitcoin.config", "bitcoin.node"),
    ("bitcoin.handler", "bitcoin.handler"),
    ("bitcoin.addrman", "bitcoin.addrman"),
    ("bitcoin.connection", "bitcoin.connection"),
    ("bitcoin.relay_engine", "bitcoin.relay"),
    ("bitcoin.relay", "bitcoin.relay"),
    ("bitcoin.blockchain", "bitcoin.relay"),
    ("bitcoin.mempool", "bitcoin.relay"),
    ("bitcoin.mining", "bitcoin.relay"),
    ("bitcoin.light", "bitcoin.light"),
    ("bitcoin.policy", "bitcoin.policy"),
    ("netmodel", "netmodel"),
    ("core", "core"),
    ("analysis", "core"),
    ("store", "store"),
    ("serve", "serve"),
    # Not on any workload's path; named so that a new module has to be
    # placed deliberately.
    ("adversary", OTHER),
    ("faults", OTHER),
    ("lint", OTHER),
    ("perf", OTHER),
    ("cli", OTHER),
    ("errors", OTHER),
    ("units", OTHER),
]

LAYERS: List[str] = list(dict.fromkeys(layer for _, layer in LAYER_TABLE))


def layer_of_module(dotted: str) -> Optional[str]:
    """The layer of ``repro.<dotted>``, or ``None`` if the table has no row.

    Package ``__init__`` modules only re-export and count as ``other``.
    """
    if dotted.rpartition(".")[2] == "__init__":
        return OTHER
    best: Optional[Tuple[int, str]] = None
    for prefix, layer in LAYER_TABLE:
        if dotted == prefix or dotted.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), layer)
    return None if best is None else best[1]


def _layer_metrics() -> List[Metric]:
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
        out.append(Metric(f"{layer}.self_share", "ratio", "lower"))
        out.append(Metric(f"{layer}.calls", "count", "lower"))
    return out


#: Per-layer metrics of the traced pass (never gated).  The end-to-end
#: metrics that only some workloads report ride along here in
#: ``BENCHMARK.json``, whose end-to-end list must hold on every workload.
PER_LAYER: List[Metric] = _layer_metrics() + [
    # spans / cumulative time of named public functions
    Metric("netmodel.build_s", "s", "lower"),
    Metric("netmodel.warmup_s", "s", "lower"),
    Metric("netmodel.materialize_s", "s", "lower"),
    Metric("simnet.run_s", "s", "lower"),
    Metric("core.crawl_s", "s", "lower"),
    Metric("core.probe_s", "s", "lower"),
    Metric("store.dump_s", "s", "lower"),
    Metric("store.load_s", "s", "lower"),
    Metric("store.put_s", "s", "lower"),
    Metric("store.get_s", "s", "lower"),
    # always-on public counters
    Metric("simnet.events.fired", "count", "lower"),
    Metric("simnet.events.scheduled", "count", "lower"),
    Metric("simnet.events.cancelled", "count", "lower"),
    Metric("simnet.events.compactions", "count", "lower"),
    Metric("simnet.events.us_per_event", "us", "lower"),
    Metric("store.bytes_written", "B", "lower"),
    Metric("store.blobs_written", "count", "lower"),
    Metric("store.cached_fetch_ms", "ms", "lower"),
    Metric("serve.requests", "count", "higher"),
    Metric("serve.failed", "count", "lower"),
    Metric("serve.cache_hit_ratio", "ratio", "higher"),
    Metric("serve.first_event_ms", "ms", "lower"),
    Metric("serve.read_cold_p95_ms", "ms", "lower"),
    Metric("serve.read_warm_p99_ms", "ms", "lower"),
    Metric("serve.submit_overhead_s", "s", "lower"),
    # direct probes on fixed synthetic input
    Metric("simnet.events.probe_sched_per_s", "1/s", "higher"),
    Metric("simnet.events.probe_lane_per_s", "1/s", "higher"),
    Metric("simnet.events.probe_rearm_per_s", "1/s", "higher"),
    Metric("bitcoin.addrman.probe_add_per_s", "1/s", "higher"),
    Metric("bitcoin.addrman.probe_select_per_s", "1/s", "higher"),
    Metric("bitcoin.addrman.probe_get_addr_per_s", "1/s", "higher"),
    Metric("store.dump_mb_per_s", "MB/s", "higher"),
    Metric("store.load_mb_per_s", "MB/s", "higher"),
    Metric("store.snapshot_mb", "MB", "lower"),
    Metric("store.blob_put_mb_per_s", "MB/s", "higher"),
    Metric("store.blob_get_mb_per_s", "MB/s", "higher"),
    Metric("store.snapshot_failed", "count", "lower"),
    Metric("bitcoin.node.bytes_per_full_node", "B", "lower"),
    Metric("bitcoin.light.bytes_per_light_node", "B", "lower"),
    Metric("mem.rss_retained_mb", "MB", "lower"),
    Metric("mem.live_objects", "count", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
]


def gated_everywhere() -> List[Metric]:
    """End-to-end metrics every workload reports and that are never 0:
    the ones ``BENCHMARK.json`` can list as end-to-end."""
    return [m for m in END_TO_END if m.across_seeds_bound is not None]


def listed_per_layer() -> List[Metric]:
    """What ``BENCHMARK.json`` lists as per-layer: the end-to-end metrics
    only some workloads report, then the layer metrics proper."""
    return [m for m in END_TO_END if m.workloads is not None] + PER_LAYER


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.across_seeds_bound}
            for m in gated_everywhere()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in listed_per_layer()
        ],
    }
