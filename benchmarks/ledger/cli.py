"""``python -m benchmarks.ledger run | compare`` — the ledger itself.

``run`` spawns ``run.py`` once per workload repeat (fresh process, one
at a time, repeats interleaved round-robin so drift is shared), reports
median / min / max / n per metric, checks that the repeats of one seed
simulated exactly the same thing, and writes one result file.
``compare`` is the shared gate over two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

from .catalog import (
    DEFAULT_SEED,
    DETAIL_PREFIX,
    END_TO_END,
    LEDGER_DIR,
    OUT_DIR,
    PER_LAYER,
    REPO_ROOT,
    RUN_SECONDS,
    SEED_OFFSETS,
    WORKLOADS,
    Metric,
)

SCHEMA = 1
FAILED_RATIO = next(m for m in END_TO_END if m.name == "failed_ratio")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _spawn(workload: str, seed: int, trace: bool, smoke: bool) -> Dict[str, Any]:
    """One fresh child; its detail record, or a failed one if it died."""
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            return json.loads(line[len(DETAIL_PREFIX):])
    sys.stderr.write(done.stderr)
    return {
        "workload": workload, "seed": seed, "end_to_end": {},
        "fingerprint": None, "accuracy": {}, "attempted": 1, "failed": 1,
        "failed_checks": [f"child exited {done.returncode} without a result"],
    }


def _summary(metric: Metric, values: List[float]) -> Dict[str, Any]:
    return {
        "unit": metric.unit, "better": metric.better, "bound": metric.bound,
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values), "values": values,
    }


def run_ledger(seed: int, repeats: int, trace: bool, smoke: bool) -> Dict[str, Any]:
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    if load_start > nproc / 2:
        print(f"warning: 1-min load average {load_start:.2f} exceeds half of "
              f"nproc={nproc}; timings will be noisy", file=sys.stderr)
    seeds = {name: seed + SEED_OFFSETS[name] for name in WORKLOADS}
    records: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for repeat in range(repeats):
        for name in WORKLOADS:
            print(f"[{repeat + 1}/{repeats}] {name} ...", file=sys.stderr, flush=True)
            records[name].append(_spawn(name, seeds[name], False, smoke))
    traced = {}
    if trace:
        for name in WORKLOADS:
            print(f"[trace] {name} ...", file=sys.stderr, flush=True)
            traced[name] = _spawn(name, seeds[name], True, smoke)

    workloads: Dict[str, Any] = {}
    for name, runs in records.items():
        passes = runs + ([traced[name]] if name in traced else [])
        fingerprints = [r["fingerprint"] for r in passes]
        agree = all(f == fingerprints[0] for f in fingerprints)
        attempted = sum(r["attempted"] for r in runs) + 1
        failed = sum(r["failed"] for r in runs) + int(not agree)
        samples = {
            m: [r["end_to_end"][m.name] for r in runs if m.name in r["end_to_end"]]
            for m in END_TO_END
        }
        entry: Dict[str, Any] = {
            "seed": seeds[name],
            "size": runs[0].get("size"),
            "end_to_end": {
                m.name: _summary(m, values) for m, values in samples.items() if values
            },
            "run_wall_s": [r.get("run_wall_s") for r in runs],
            "fingerprint": fingerprints[0],
            "fingerprints_agree": agree,
            "accuracy": runs[0]["accuracy"],
            "attempted": attempted,
            "failed": failed,
            "failed_checks": sorted(
                {c for r in runs for c in r["failed_checks"]}
                | (set() if agree else {"fingerprints_differ_between_repeats"})
            ),
        }
        if name in traced:
            entry["per_layer"] = traced[name].get("per_layer", {})
            entry["trace_file"] = traced[name].get("trace_file")
            entry["attempted"] += traced[name]["attempted"]
            entry["failed"] += traced[name]["failed"]
            entry["failed_checks"] = sorted(
                set(entry["failed_checks"]) | set(traced[name]["failed_checks"])
            )
        # Pooled over every pass of the workload, not a median: one
        # failed operation in one repeat must show.
        entry["end_to_end"]["failed_ratio"] = _summary(
            FAILED_RATIO, [entry["failed"] / entry["attempted"]]
        )
        workloads[name] = entry
    return {
        "schema": SCHEMA,
        "host": {
            "nproc": nproc,
            "loadavg_1min_start": load_start,
            "loadavg_1min_end": os.getloadavg()[0],
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(),
            "git_commit": _git_commit(),
        },
        "seed": seed, "repeats": repeats, "seconds": RUN_SECONDS, "smoke": smoke,
        "workloads": workloads,
    }


def _fmt(value: float) -> str:
    return f"{value:,.4g}" if abs(value) < 1e5 else f"{value:,.0f}"


def print_ledger(result: Dict[str, Any]) -> None:
    units = {m.name: m.unit for m in PER_LAYER}
    host = result["host"]
    print(f"ledger @ {host['git_commit'][:12]}  seed={result['seed']} "
          f"repeats={result['repeats']} smoke={result['smoke']}  "
          f"nproc={host['nproc']} load={host['loadavg_1min_start']:.2f}"
          f"->{host['loadavg_1min_end']:.2f}  {host['python']}")
    for name, entry in result["workloads"].items():
        print(f"\n{name}  (seed {entry['seed']}, size {entry['size']})")
        print(f"  {'end-to-end metric':<26}{'median':>12} {'unit':<9}"
              f"{'min':>12}{'max':>12}{'n':>4}  better  bound")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<26}{_fmt(row['median']):>12} {row['unit']:<9}"
                  f"{_fmt(row['min']):>12}{_fmt(row['max']):>12}{row['n']:>4}"
                  f"  {row['better']:<6}  {row['bound']}")
        print(f"  fingerprint ({'repeats agree' if entry['fingerprints_agree'] else 'REPEATS DIFFER'}): "
              f"{json.dumps(entry['fingerprint'], sort_keys=True)}")
        for key, pair in entry["accuracy"].items():
            print(f"  accuracy (simulated vs paper, not gated): {key} "
                  f"{pair['simulated']:.2f} vs {pair['paper']:.2f}")
        if entry["failed_checks"]:
            print(f"  FAILED: {', '.join(entry['failed_checks'])}")
        if "per_layer" in entry:
            print(f"  per-layer (traced pass; spans in {entry['trace_file']}):")
            for metric, value in entry["per_layer"].items():
                print(f"    {metric:<40}{_fmt(value):>14} {units.get(metric, '')}")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (end-to-end metric, workload) present in both files."""
    rows: List[Dict[str, Any]] = []
    for name in WORKLOADS:
        side_a = a["workloads"].get(name, {}).get("end_to_end", {})
        side_b = b["workloads"].get(name, {}).get("end_to_end", {})
        for metric in END_TO_END:
            if metric.name not in side_a or metric.name not in side_b:
                continue
            ra, rb = side_a[metric.name], side_b[metric.name]
            row = {
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": ra["median"], "b": rb["median"], "bound": metric.bound,
                "ratio": rb["median"] / ra["median"] if ra["median"] else None,
            }
            if metric.name == "failed_ratio":
                row["verdict"] = "regressed" if rb["median"] > ra["median"] else "ok"
            else:
                sign = 1.0 if metric.better == "lower" else -1.0
                worse_by = sign * (rb["median"] - ra["median"]) / ra["median"]
                spread = max(
                    (r["max"] - r["min"]) / r["median"] for r in (ra, rb)
                )
                overlap = ra["min"] <= rb["max"] and rb["min"] <= ra["max"]
                if spread > metric.bound and overlap:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "regressed" if worse_by > metric.bound else "ok"
            rows.append(row)
    return rows


def print_compare(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<16}{'metric':<26}{'A median':>12}{'B median':>12} "
          f"{'unit':<9}{'B/A (base A)':>13}{'bound':>7}  verdict")
    for row in rows:
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"{row['workload']:<16}{row['metric']:<26}{_fmt(row['a']):>12}"
              f"{_fmt(row['b']):>12} {row['unit']:<9}{ratio:>13}"
              f"{row['bound']:>7}  {row['verdict']}")


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure all four workloads")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--trace", action="store_true",
                     help="add the traced pass (per-layer metrics, span files)")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes; all four workloads in under 30 s")
    run.add_argument("--out", default=os.path.join(OUT_DIR, "ledger.json"))
    cmp_parser = sub.add_parser("compare", help="gate B.json against A.json")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
            rows = compare(json.load(fa), json.load(fb))
        print_compare(rows)
        return int(any(row["verdict"] == "regressed" for row in rows))

    result = run_ledger(args.seed, args.repeats, args.trace, args.smoke)
    print_ledger(result)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.out}")
    return int(any(w["failed"] for w in result["workloads"].values()))
