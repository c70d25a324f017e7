"""One run of one workload in this process (see ``run.py``).

Tracing off: set up, run the timed region under the host-speed sampler,
check the outputs.  ``--trace 1`` repeats the timed region under cProfile
with harness spans (no sampler: its frames would pollute the profile),
runs the direct probes, and writes ``out/trace-<workload>.json``.

The last line of stdout is the driver's contract object; the line before
it (``LEDGER-DETAIL``) carries everything else for ``python -m
benchmarks.ledger run``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from typing import Any, Dict, List, Optional

from repro.perf import read_memory

from .catalog import (
    DETAIL_PREFIX,
    OUT_DIR,
    WORKLOADS,
    gated_everywhere,
    listed_per_layer,
)
from .hostspeed import HostSpeed, NoHostSpeed
from .trace import NoTrace, Tracer, attribute_layers, cumulative_s
from .workloads import BY_NAME, Workload, sized


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def measure(
    cls: type,
    seed: int,
    size: Dict[str, Any],
    tracer: Any,
    host: Any,
    process_start: Optional[float] = None,
    census: bool = False,
) -> Dict[str, Any]:
    """Set up, time, check and tear down one workload object."""
    work: Workload = cls(seed, size, tracer, host)
    out: Dict[str, Any] = {}
    try:
        with tracer.span("setup"):
            work.setup()
        if process_start is not None:
            out["setup_s"] = time.perf_counter() - process_start
        host.start()
        t0 = time.perf_counter()
        with tracer.span("run"), tracer.profiled():
            work.run()
        t1 = time.perf_counter()
        host.stop()
        out["run_wall_s"], out["run_s"] = host.interval(t0, t1)
        work.collect(out["run_s"])
        if census:
            memory = read_memory(collect=True)
            out["census"] = {
                "mem.rss_retained_mb": (memory.rss_bytes or 0) / 1e6,
                "mem.live_objects": memory.live_objects,
                **work.census(),
            }
    finally:
        work.close()
    out["peak_rss_mb"] = _peak_rss_mb()
    failed_checks = sorted(name for name, ok in work.checks.items() if not ok)
    out.update(
        fingerprint=work.fingerprint,
        failed_checks=failed_checks,
        attempted=work.attempted + len(work.checks),
        failed=work.failed + len(failed_checks),
        extra=work.extra,
        counts=work.counts,
        accuracy=work.accuracy,
    )
    return out


def _named_function_times(tracer: Tracer) -> Dict[str, float]:
    """Span totals where the harness made the call itself, else the
    profile's cumulative time of the named public function."""
    from repro.core.getaddr import GetAddrCrawler
    from repro.core.prober import VerProber
    from repro.netmodel.scenario import LongitudinalScenario, ProtocolScenario
    from repro.simnet.simulator import Simulator
    from repro.store import RunStore
    from repro.store.checkpoint import dump_checkpoint, load_checkpoint

    named = {
        "netmodel.build_s": [ProtocolScenario.__init__, LongitudinalScenario.__init__],
        "netmodel.warmup_s": [ProtocolScenario.start],
        "netmodel.materialize_s": [LongitudinalScenario.materialize_snapshot],
        "simnet.run_s": [Simulator.run_until, Simulator.step],
        "core.crawl_s": [GetAddrCrawler.run_to_completion],
        "core.probe_s": [VerProber.run_to_completion],
        "store.dump_s": [dump_checkpoint],
        "store.load_s": [load_checkpoint],
        "store.put_s": [RunStore.put_blob],
        "store.get_s": [RunStore.get_blob],
    }
    out: Dict[str, float] = {}
    for metric, functions in named.items():
        spanned = tracer.span_total(metric[:-2])
        out[metric] = (
            spanned if spanned is not None
            else sum(cumulative_s(tracer.stats(), f) for f in functions)
        )
    return out


def traced_pass(
    cls: type, seed: int, size: Dict[str, Any], main: Dict[str, Any], smoke: bool
) -> Dict[str, Any]:
    """The per-layer numbers of one workload, and its trace file."""
    target = cls.traced_as or cls
    # The untraced twin of the profiled region: the main measurement,
    # unless the workload is profiled through an in-process stand-in.
    plain = main if target is cls else measure(target, seed, size, NoTrace(), HostSpeed())
    tracer = Tracer(run_id=f"{cls.name}-seed{seed}-pid{os.getpid()}")
    traced = measure(target, seed, size, tracer, NoHostSpeed(), census=True)

    layer: Dict[str, float] = {}
    for name, row in attribute_layers(tracer.stats()).items():
        for key, value in row.items():
            layer[f"{name}.{key}"] = value
    layer.update(_named_function_times(tracer))
    layer.update(traced["census"])
    layer["trace.overhead_ratio"] = traced["run_wall_s"] / plain["run_wall_s"]

    layer.update(main["counts"])
    layer.update(plain["counts"])
    if "simnet.events.fired" in layer:
        layer["simnet.events.us_per_event"] = (
            1e6 * plain["run_s"] / layer["simnet.events.fired"]
        )
    if target is not cls:
        layer["serve.submit_overhead_s"] = (
            main["extra"]["submit_to_result_s"] - layer.pop("store.stored_run_s")
        )
    layer.update(cls.probes(smoke))

    # One seed, one size: every pass must have simulated the same thing.
    agree = all(
        traced["fingerprint"].get(key) == value
        for source in (main, plain)
        for key, value in source["fingerprint"].items()
        if key in traced["fingerprint"]
    )
    passes = [traced] if plain is main else [plain, traced]
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{cls.name}.json")
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(
            {"run_id": tracer.run_id, "workload": cls.name, "seed": seed,
             "size": size, "spans": tracer.spans, "per_layer": layer},
            handle, indent=1,
        )
        handle.write("\n")
    return {
        "per_layer": layer,
        "trace_file": os.path.relpath(trace_file),
        "attempted": 1 + sum(p["attempted"] for p in passes),
        "failed": int(not agree) + sum(p["failed"] for p in passes),
        "failed_checks": [c for p in passes for c in p["failed_checks"]]
        + ([] if agree else ["traced_fingerprint_differs"]),
    }


def _contract_line(detail: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """Exactly the object the driver reads off the last line."""
    if trace:
        wanted = listed_per_layer()
        values = {**detail["end_to_end"], **detail["per_layer"]}
    else:
        wanted = gated_everywhere()
        values = detail["end_to_end"]
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            # A layer the workload never enters reads 0.
            m.name: {"value": values.get(m.name, 0.0), "unit": m.unit}
            for m in wanted
        },
    }


def main(process_start: float, argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="fixed tiny sizes (the self-test)")
    args = parser.parse_args(argv)

    cls = BY_NAME[args.workload]
    size = sized(args.workload, args.seconds, args.smoke)
    main_pass = measure(
        cls, args.seed, size, NoTrace(), HostSpeed(), process_start=process_start
    )
    end_to_end = {
        "setup_s": main_pass["setup_s"],
        "run_s": main_pass["run_s"],
        "peak_rss_mb": main_pass["peak_rss_mb"],
        **main_pass["extra"],
    }
    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "size": size,
        "end_to_end": end_to_end,
        "run_wall_s": main_pass["run_wall_s"],
        "fingerprint": main_pass["fingerprint"],
        "accuracy": main_pass["accuracy"],
        "attempted": main_pass["attempted"],
        "failed": main_pass["failed"],
        "failed_checks": main_pass["failed_checks"],
    }
    if args.trace:
        traced = traced_pass(cls, args.seed, size, main_pass, args.smoke)
        detail["per_layer"] = traced["per_layer"]
        detail["trace_file"] = traced["trace_file"]
        detail["attempted"] += traced["attempted"]
        detail["failed"] += traced["failed"]
        detail["failed_checks"] += traced["failed_checks"]

    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(_contract_line(detail, bool(args.trace))))
    return 0
