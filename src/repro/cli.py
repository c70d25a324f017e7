"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands run the paper's experiments at a chosen scale and print the
paper-vs-measured tables; ``--export DIR`` additionally writes the raw
figure data as CSV.

Commands
--------
``campaign``   the Fig. 2 crawl campaign (Figs. 3-5, 8, 12, 13, Table I)
``sync``       the Fig. 1 contrast (2019-like vs 2020-like churn)
``chaos``      sync-% degradation vs. fault intensity (``repro.faults``)
``attack``     sync-% degradation vs. attacker count (``repro.adversary``)
``variants``   the protocol-variant lab: policy variant x churn x fault
               cross-product (``repro.bitcoin.variant_names()``)
``relay``      the Fig. 10/11 relay-delay measurement
``conn``       the Fig. 6/7 connection experiments
``store``      inspect the run store (``ls`` / ``show`` / ``gc`` / ``diff``)
``serve``      run the campaign service over a run store (``repro.serve``)
``lint``       determinism & checkpoint-safety static analysis

``sync``, ``chaos``, ``attack`` and ``variants`` are one program — Fig. 1
under a product of axes built from the flags
(``repro.core.condition_sweep``) — behind one ``_sweep``, one table
printer keyed by axis names (a cell with no completed seed reads ``-``)
and one exporter; ``chaos`` and ``attack`` share one command body.

``--store DIR`` (on ``campaign``, ``sync``, ``chaos``, ``attack``, and
``variants``) checkpoints the run into a content-addressed store after
every unit (snapshot, churn arm, intensity level, count level, matrix
cell); an interrupted run resumes after its last completed unit
(``--resume RUN_ID`` to be explicit), a completed run with the same
config is a cache hit, and ``--force`` re-executes it anyway.  Sweep
runs are ``sync-sweep-…`` whichever command made them (``attack
--mitigations`` stores two).  A stored cell that lost a seed is not
committed: ``error:``, exit 1, and a re-run retries that cell.

``--faults plan.json`` (on ``campaign``, ``sync``, and ``chaos``)
compiles a deterministic fault plan onto every run; ``--seed-timeout``
and ``--retries`` tune the supervised runner that multi-seed sweeps
execute under.

``--profile [OUT]`` (on ``campaign``, ``sync``, ``chaos``, ``attack``
and ``variants``) runs the whole command under cProfile and writes the
hotspot ranking to ``OUT.txt``/``OUT.json`` (see ``repro.perf.profiler``)
— the first step of any performance investigation
(docs/architecture.md, "The hot path").
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, List, Optional

from . import core
from .analysis.stats import mean
from .bitcoin import NodeConfig
from .core import export as export_mod
from .core.condition_sweep import DEFAULT_CHURN_LEVELS, DEFAULT_VARIANTS
from .core.decode import decode_file
from .core.reports import comparison_table, format_table
from .errors import ConfigurationError, StoreError, SupervisionError
from .faults import FaultPlan
from .netmodel import (
    LongitudinalConfig,
    LongitudinalScenario,
    calibration as cal,
)
from .units import DAYS, HOURS


def _warn_truncated(label: str, indices_or_seeds) -> None:
    print(
        f"WARNING: {label} truncated at {indices_or_seeds} — the affected "
        f"measurements are lower bounds, not full crawls"
    )


def _load_fault_plan(args: argparse.Namespace) -> FaultPlan:
    """The FaultPlan named by ``--faults``; the empty plan without one."""
    path = getattr(args, "faults", None)
    if path is None:
        return FaultPlan()
    plan = decode_file(FaultPlan, path)
    print(f"fault plan: {len(plan)} fault(s) loaded from {path}")
    return plan


def _report_supervision(
    label: str, retried: List[int], failed: List[int], completed: int
) -> None:
    """Print a fan-out's partial-result bookkeeping, when any."""
    if retried:
        print(
            f"NOTE: {label} seeds {retried} needed retries "
            f"(crashed or hung workers) but completed"
        )
    if failed:
        print(
            f"WARNING: {label} seeds {failed} failed permanently "
            f"— pooled statistics cover the {completed} completed "
            f"seed(s) only"
        )


def _sync_base(args: argparse.Namespace, **extra: Any):
    """The SyncCampaignConfig that ``_world_flags`` describes."""
    return core.SyncCampaignConfig(
        n_reachable=args.nodes,
        duration=args.hours * HOURS,
        seed=args.seed,
        **extra,
    )


def _check_store_flags(args: argparse.Namespace) -> None:
    """Refuse a use of ``_store_flags`` that names no single stored
    run: a run to resume or to force is one run in a store that is named."""
    if not (args.resume or args.force):
        return
    if not args.store:
        raise ConfigurationError("--resume and --force require --store")
    if args.command == "campaign" and args.seeds > 1:
        raise ConfigurationError(
            "--resume and --force address one run; a --seeds sweep "
            "stores one per seed (re-run it to resume each)"
        )


def _say_stored(
    run_id: str, cached: bool, resumed_from: Optional[int], unit: str,
    units: int,
) -> None:
    """The one line that says where a stored result came from."""
    if cached:
        print(
            f"cache hit: run {run_id} is complete — "
            f"returning the stored result (no simulation)"
        )
    elif resumed_from is not None:
        print(f"resumed run {run_id} from {unit} {resumed_from}/{units}")
    else:
        print(f"stored as run {run_id}")


def _run_stored(args: argparse.Namespace, plan, unit: str, resume: Optional[str]):
    """``plan`` through ``--store``; says where the result came from."""
    from .store import run_stored

    stored = run_stored(args.store, plan, resume=resume, force=args.force)
    _say_stored(
        stored.manifest.run_id, stored.cached, stored.resumed_from, unit,
        plan.units,
    )
    return stored.result


def _cmd_campaign_sweep(args: argparse.Namespace) -> int:
    from .store import CampaignPlan, RunStore

    base = LongitudinalConfig(
        scale=args.scale, snapshots=args.snapshots, seed=args.seed,
        faults=_load_fault_plan(args),
    )
    seeds = core.seed_range(args.seed, args.seeds)
    print(
        f"campaign sweep: scale={args.scale} snapshots={args.snapshots} "
        f"seeds={seeds} workers={args.workers or 'auto'}"
        + (f" store={args.store}" if args.store else "")
    )
    plans = [CampaignPlan(replace(base, seed=seed)) for seed in seeds]
    run = core.run_plans(
        plans, store=args.store, workers=args.workers,
        supervisor=core.supervisor_config(args.seed_timeout, args.retries),
    )
    done = [
        (plan, out) for plan, out in zip(plans, run.results) if out is not None
    ]
    if args.store:
        # A stored run hands back its provenance; the result is read
        # from the store it was written to.
        store = RunStore(args.store)
        for plan, (cached, resumed_from) in done:
            _say_stored(plan.run_id, cached, resumed_from, "snapshot",
                        plan.units)
        done = [
            (plan, plan.load_result(store, store.load_manifest(plan.run_id)))
            for plan, _ in done
        ]
    _report_supervision(
        "campaign", run.retried_labels, run.failed_labels, len(done)
    )
    truncated = [plan.seed for plan, result in done if result.truncated]
    if truncated:
        _warn_truncated("campaigns for seeds", truncated)

    def over_seeds(stat) -> float:
        return mean([stat(result) for _, result in done])

    s = args.scale
    print(
        comparison_table(
            [
                ("unreachable / snapshot", cal.UNREACHABLE_PER_SNAPSHOT * s,
                 over_seeds(lambda r: mean(r.fig4_series()["per_snapshot"]))),
                ("cumulative unreachable", cal.CUMULATIVE_UNREACHABLE * s,
                 over_seeds(lambda r: r.fig4_series()["cumulative"][-1])),
                ("responsive / snapshot", cal.RESPONSIVE_PER_SNAPSHOT * s,
                 over_seeds(lambda r: mean(r.fig5_series()["per_snapshot"]))),
                ("ADDR reachable share", cal.ADDR_REACHABLE_SHARE,
                 over_seeds(lambda r: r.mean_addr_reachable_share())),
                ("daily departures", cal.DAILY_CHURN_NODES * s,
                 over_seeds(lambda r: r.churn_stats().mean_daily_departures(
                     r.churn_matrix().snapshot_interval))),
                ("mean lifetime (days)", cal.MEAN_NODE_LIFETIME_DAYS,
                 over_seeds(lambda r: r.churn_stats().mean_lifetime / DAYS)),
            ],
            title=f"Campaign, mean over {len(seeds)} seeds",
        )
    )
    print(
        format_table(
            ("seed", "cumulative unreachable", "responsive/snapshot"),
            [
                (plan.seed,
                 len(result.cumulative_unreachable),
                 round(mean(result.fig5_series()["per_snapshot"]), 1))
                for plan, result in done
            ],
        )
    )
    if args.export:
        out = Path(args.export)
        for plan, result in done:
            export_mod.export_campaign_series(
                result, out / f"seed{plan.seed}" / "campaign_series.csv"
            )
        print(f"exported per-seed CSVs to {out}/seed<N>/")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.seeds > 1:
        return _cmd_campaign_sweep(args)
    config = LongitudinalConfig(
        scale=args.scale, snapshots=args.snapshots, seed=args.seed,
        faults=_load_fault_plan(args),
    )
    # The printed tables need the deterministic address universe the
    # campaign ran against; for a stored run, rebuilding the scenario
    # from the config recreates it without simulating anything.
    scenario = LongitudinalScenario(config)
    print(
        f"campaign: scale={args.scale} snapshots={args.snapshots} "
        f"population={scenario.population.summary()}"
    )
    if args.store:
        from .store import CampaignPlan

        result = _run_stored(args, CampaignPlan(config), "snapshot", args.resume)
    else:
        result = core.CampaignRunner(scenario).run()
    if result.truncated:
        _warn_truncated("snapshots", result.truncated_snapshots)
    s = args.scale
    fig4 = result.fig4_series()
    fig5 = result.fig5_series()
    stats = result.churn_stats()
    interval = result.churn_matrix().snapshot_interval
    detection = result.merged_detection(scenario.universe.asn_of)
    print(
        comparison_table(
            [
                ("unreachable / snapshot", cal.UNREACHABLE_PER_SNAPSHOT * s,
                 mean(fig4["per_snapshot"])),
                ("cumulative unreachable", cal.CUMULATIVE_UNREACHABLE * s,
                 fig4["cumulative"][-1]),
                ("responsive / snapshot", cal.RESPONSIVE_PER_SNAPSHOT * s,
                 mean(fig5["per_snapshot"])),
                ("ADDR reachable share", cal.ADDR_REACHABLE_SHARE,
                 result.mean_addr_reachable_share()),
                ("flooders detected", len(scenario.flooders),
                 detection.count),
                ("always-on nodes", cal.ALWAYS_ON_NODES * s, stats.always_on),
                ("daily departures", cal.DAILY_CHURN_NODES * s,
                 stats.mean_daily_departures(interval)),
                ("mean lifetime (days)", cal.MEAN_NODE_LIFETIME_DAYS,
                 stats.mean_lifetime / DAYS),
            ],
            title="Campaign (paper values scaled where counts)",
        )
    )
    from .core.figures import dual_series, presence_matrix

    print()
    print("Fig. 4 (unreachable addresses per snapshot / cumulative):")
    print(dual_series(fig4["per_snapshot"], fig4["cumulative"]))
    print()
    print("Fig. 12 (presence matrix, downsampled):")
    print(presence_matrix(result.churn_matrix().matrix, max_rows=16, max_cols=60))
    if args.export:
        out = Path(args.export)
        export_mod.export_campaign_series(result, out / "campaign_series.csv")
        export_mod.export_churn(stats, out / "daily_churn.csv")
        export_mod.export_lifetimes(stats, out / "lifetimes.csv")
        export_mod.export_detection(detection, out / "flooders.csv")
        for name, report in result.hosting_reports(
            scenario.universe.asn_of
        ).items():
            export_mod.export_hosting(report, out / f"hosting_{name}.csv")
        print(f"exported CSVs to {out}/")
    return 0


def _sweep(
    args: argparse.Namespace, name: str, conditions, seeds, unit: str,
    resume: bool = True,
):
    """Run a Fig. 1 condition sweep and report each cell's supervision.
    ``unit`` is what the command's ``_store_flags`` call a unit; with
    ``--store`` the sweep is stored, and ``--resume`` names it unless
    ``resume`` is false (a command's second sweep resumes by key)."""
    plan = core.ConditionSweepPlan(
        name, conditions, seeds, args.workers,
        core.supervisor_config(args.seed_timeout, args.retries),
    )
    if args.store:
        result = _run_stored(args, plan, unit, args.resume if resume else None)
    else:
        result = plan.run()
    for cell in result.cells:
        _report_supervision(
            cell.tag, cell.sweep.retried_seeds, cell.sweep.failed_seeds,
            len(cell.sweep.seeds),
        )
    return result


def _degradation(versus: str) -> list:
    """``_print_table`` columns of a ``degradation_table``."""
    return [
        ("mean sync %", "mean_sync", 2), ("median sync %", "median_sync", 2),
        (f"delta vs {versus}", "delta_vs_baseline", 2),
        ("failed", "failed_seeds", 0), ("retried", "retried_seeds", 0),
    ]


def _print_table(rows: List[dict], axes: List[str], columns: list) -> None:
    """One line per row: its ``axes`` labels as they are, then each
    ``(header, key, digits)`` column — ``None`` reads ``-``, a seed list
    its length, a number is rounded to ``digits``."""

    def show(value, digits):
        if value is None:
            return "-"
        return len(value) if isinstance(value, list) else round(value, digits)

    print(
        format_table(
            [*axes, *(header for header, _, _ in columns)],
            [
                [*(row[axis] for axis in axes),
                 *(show(row[key], digits) for _, key, digits in columns)]
                for row in rows
            ],
        )
    )


def _export_sweep(
    args: argparse.Namespace, result, stem: str, label: str, table=None
) -> Path:
    """Every cell's samples as ``sync_samples_<stem>.csv`` — ``stem``
    and ``label`` (the CSV's label column) are format strings over the
    cell's labels — and ``table``, a ``(file name, rows)`` pair, as JSON."""
    out = Path(args.export)
    out.mkdir(parents=True, exist_ok=True)
    if table is not None:
        name, rows = table
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
    for cell in result.cells:
        tag = "".join(
            ch if ch.isalnum() or ch in "._-" else "-"
            for ch in stem.format(**cell.labels)
        )
        export_mod.export_sync_samples(
            cell.sweep,
            out / f"sync_samples_{tag}.csv",
            label=label.format(**cell.labels),
        )
    return out


def _cmd_sync(args: argparse.Namespace) -> int:
    base = _sync_base(args, faults=_load_fault_plan(args))
    seeds = core.seed_range(args.seed, args.seeds)
    over = (
        f" over seeds={seeds} (workers={args.workers or 'auto'})"
        if args.seeds > 1
        else ""
    )
    print(
        f"sync: nodes={args.nodes} duration={args.hours}h — running 2019 "
        f"and 2020 churn levels{over}..."
    )
    result = _sweep(
        args, "fig1", core.conditions(base, core.Axis.year()), seeds, "arm"
    )
    results = {cell.labels["year"]: cell.sweep for cell in result.cells}
    done = {label: sweep for label, sweep in results.items() if sweep.seeds}
    for label, sweep in results.items():
        if label not in done:
            print(
                f"WARNING: sync campaign {label!r} completed no seed — "
                f"left out of the table and the KDE"
            )
        elif sweep.truncated:
            _warn_truncated(f"sync campaign {label!r}", sweep.truncated_seeds)

    def measured(label: str, stat: str):
        return getattr(done[label], stat) if label in done else "-"

    print(
        comparison_table(
            [
                ("mean sync 2019 (%)", cal.SYNC_MEAN_2019,
                 measured("2019", "mean")),
                ("mean sync 2020 (%)", cal.SYNC_MEAN_2020,
                 measured("2020", "mean")),
                ("sync departures/10min 2019", cal.SYNC_DEPARTURES_2019,
                 measured("2019", "sync_departures_per_10min")),
                ("sync departures/10min 2020", cal.SYNC_DEPARTURES_2020,
                 measured("2020", "sync_departures_per_10min")),
            ],
            title="Fig. 1 / §IV-D",
        )
    )
    if done:
        from .core.figures import density_overlay

        print()
        print("Fig. 1 kernel densities (x: 0..100% synchronized):")
        print(
            density_overlay(
                {label: sweep.density() for label, sweep in done.items()}
            )
        )
    if args.export:
        out = _export_sweep(args, result, "{year}", "{year}")
        for label, sweep in done.items():
            export_mod.export_density(
                sweep.density(), out / f"sync_kde_{label}.csv"
            )
        print(f"exported CSVs to {out}/")
    return 0


def _cmd_scaled(args: argparse.Namespace) -> int:
    """``chaos`` / ``attack``: one plan file scaled along one axis and
    read against its clean level 0; ``attack --mitigations`` adds a
    second sweep, clean / attacked / mitigated."""
    from .adversary import AttackPlan

    plan_flag, plan_type, noun, flag, cast, preset, stats, title, empty = {
        "chaos": (
            "faults", FaultPlan, "fault(s)", "intensities", float,
            core.Axis.intensity, "fault_stats",
            "injector totals per intensity level:", "(no faults fired)",
        ),
        "attack": (
            "plan", AttackPlan, "cohort(s)", "counts", int,
            core.Axis.attackers, "attack_stats",
            "attacker totals per count level:", "(no attack)",
        ),
    }[args.command]
    path = getattr(args, plan_flag)
    plan = decode_file(plan_type, path)
    levels = [cast(part) for part in getattr(args, flag).split(",")]
    base = _sync_base(args)
    seeds = core.seed_range(args.seed, args.seeds)
    axis = preset(plan, levels)
    conditions, name = core.conditions(base, axis), axis.name
    mitigations = getattr(args, "mitigations", None)
    hardened = (
        core.conditions(base, core.Axis.condition(plan, mitigations))
        if mitigations
        else None
    )
    print(
        f"{args.command}: nodes={args.nodes} duration={args.hours}h "
        f"plan={path} ({len(plan)} {noun}) {flag}={levels} seeds={seeds} "
        f"workers={args.workers or 'auto'}..."
    )
    result = _sweep(args, args.command, conditions, seeds, "level")
    table = result.degradation_table(**{name: 0})
    _print_table(table, [name], _degradation("baseline"))
    print()
    print(title)
    for cell in result.cells:
        nonzero = {k: v for k, v in cell.totals(stats).items() if v}
        print(f"  {cell.labels[name]}: {nonzero if nonzero else empty}")
    if hardened is not None:
        print()
        print(
            f"mitigations: rerunning the full attack under the "
            f"{mitigations!r} policy variant..."
        )
        comparison = _sweep(
            args, "mitigations", hardened, seeds, "condition", resume=False
        )
        rows = comparison.degradation_table(condition="clean")
        _print_table(rows, ["condition"], _degradation("clean")[:3])
        mean = {row["condition"]: row["mean_sync"] for row in rows}
        if None not in (mean["attacked"], mean["mitigated"]):
            recovered = mean["mitigated"] - mean["attacked"]
            print(
                f"hardening recovered {recovered:+.2f} sync percentage points"
            )
    if args.export:
        out = _export_sweep(
            args, result, f"{name}_{{{name}}}", f"{name}={{{name}}}",
            table=(f"{args.command}_degradation.json", table),
        )
        print(f"exported degradation table and samples to {out}/")
    return 0


def _cmd_variants(args: argparse.Namespace) -> int:
    variants = [part.strip() for part in args.variants.split(",") if part.strip()]
    churn_levels = [float(part) for part in args.churn.split(",")]
    fault_plans = [FaultPlan()]
    if args.faults:
        fault_plan = decode_file(FaultPlan, args.faults)
        fault_plans.append(fault_plan)
        print(
            f"fault plan: {len(fault_plan)} fault(s) loaded from "
            f"{args.faults} (matrix runs fault-free + plan)"
        )
    seeds = core.seed_range(args.seed, args.seeds)
    conditions = core.conditions(
        _sync_base(args), core.Axis.variant(variants),
        core.Axis.churn(churn_levels), core.Axis.faults(fault_plans),
    )
    print(
        f"variants: {variants} x churn={churn_levels} x "
        f"{len(fault_plans)} fault plan(s) "
        f"({len(conditions)} cells, seeds={seeds}, "
        f"workers={args.workers or 'auto'})..."
    )
    result = _sweep(args, "variants", conditions, seeds, "cell")
    levels = [f"{level:g}" for level in result.axis("churn")]
    table = result.retention_table(along="churn")
    _print_table(
        [{**row, **row["mean_sync"]} for row in table],
        [axis for axis in conditions[0].labels if axis != "churn"],
        [*((f"sync%@{level}", level, 2) for level in levels),
         ("retention", "retention", 3)],
    )
    if args.export:
        out = _export_sweep(
            args, result, "{variant}_churn{churn:g}_{faults}",
            "{variant}", table=("variant_retention.json", table),
        )
        print(f"exported retention table and samples to {out}/")
    return 0


def _cmd_relay(args: argparse.Namespace) -> int:
    config = core.RelayExperimentConfig(
        duration=args.hours * HOURS, n_reachable=args.nodes, seed=args.seed
    )
    print(f"relay: nodes={args.nodes} duration={args.hours}h ...")
    result = core.run_relay_experiment(config)
    blocks = result.block_summary()
    txs = result.tx_summary()
    print(
        comparison_table(
            [
                ("block relay mean (s)", cal.BLOCK_RELAY_MEAN, blocks.mean),
                ("block relay max (s)", cal.BLOCK_RELAY_MAX, blocks.maximum),
                ("tx relay mean (s)", cal.TX_RELAY_MEAN, txs.mean),
                ("tx relay max (s)", cal.TX_RELAY_MAX, txs.maximum),
            ],
            title="Figs. 10-11 (1 s quantization)",
        )
    )
    if args.export:
        out = Path(args.export)
        export_mod.export_relay_times(result, out / "relay_times.csv")
        print(f"exported CSVs to {out}/")
    return 0


def _cmd_conn(args: argparse.Namespace) -> int:
    print(f"conn: warming a {args.nodes}-node world per figure...")
    stability = core.run_connection_stability(
        core.warm_world(args.seed, args.nodes),
        observer_config=NodeConfig(
            track_connection_attempts=True, connection_lifetime_mean=150.0
        ),
    )
    success = core.run_connection_success(
        core.warm_world(args.seed, args.nodes), runs=args.runs
    )
    print(
        comparison_table(
            [
                ("mean outgoing connections", cal.MEAN_OUTGOING_CONNECTIONS,
                 stability.mean_connections),
                ("time below 8 connections", cal.TIME_BELOW_8_CONNECTIONS,
                 stability.fraction_below_8),
                ("connection success rate", cal.CONNECTION_SUCCESS_RATE,
                 success.overall_rate),
                ("worst-run success rate",
                 cal.CONNECTION_WORST_RUN[0] / cal.CONNECTION_WORST_RUN[1],
                 success.worst_run.success_rate),
            ],
            title="Figs. 6-7",
        )
    )
    print(
        format_table(
            ("run", "attempts", "successes"),
            [
                (index + 1, run.attempts, run.successes)
                for index, run in enumerate(success.runs)
            ],
        )
    )
    return 0


def _open_store(args: argparse.Namespace):
    from .store import RunStore, default_store_root

    root = args.store if args.store is not None else default_store_root()
    return RunStore(root)


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = _open_store(args)
    manifests = store.manifests()
    if not manifests:
        print(f"store at {store.root} is empty")
        return 0
    print(
        format_table(
            ("run id", "kind", "status", "snapshots", "seed", "truncated"),
            [
                (m.run_id, m.kind, m.status,
                 f"{m.completed_snapshots}/{m.snapshots_total}",
                 m.seed, "yes" if m.truncated else "no")
                for m in manifests
            ],
        )
    )
    return 0


def _cmd_store_show(args: argparse.Namespace) -> int:
    store = _open_store(args)
    manifest = store.load_manifest(args.run_id)
    for name in ("run_id", "kind", "status", "seed", "snapshots_total",
                 "code_version", "key"):
        print(f"{name:16} {getattr(manifest, name)}")
    print(f"{'result_digest':16} {manifest.result_digest or '-'}")
    if manifest.checkpoint is not None:
        print(
            f"{'checkpoint':16} {manifest.checkpoint.digest[:16]}... "
            f"(after snapshot {manifest.checkpoint.snapshot_index})"
        )
    for name, digest in sorted(manifest.views.items()):
        print(
            f"{'view':16} {name} {digest[:16]}... "
            f"({store.blobs.size_bytes(digest)} bytes)"
        )
    print(f"{'config':16} {json.dumps(manifest.config, sort_keys=True)}")
    if manifest.snapshots:
        print()
        print(
            format_table(
                ("snapshot", "when", "digest", "truncated"),
                [
                    (s.index, s.when, f"{s.digest[:16]}...",
                     "yes" if s.truncated else "no")
                    for s in manifest.snapshots
                ],
            )
        )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(report['removed'])} unreferenced blob(s) "
        f"({report['removed_bytes']} bytes), kept {report['kept']}; "
        f"{verb} {report['temp_files']} stale temp file(s) "
        f"({report['temp_bytes']} bytes)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.app import ServiceConfig, run_service
    from .store import default_store_root

    config = ServiceConfig(
        store_root=(
            args.store if args.store is not None else default_store_root()
        ),
        host=args.host,
        port=args.port,
        slots=args.slots,
        queue_limit=args.queue_limit,
        workers=args.workers,
        seed_timeout=args.seed_timeout,
        retries=args.retries,
    )
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )

    def announce(service: Any) -> None:
        print(
            f"serving {config.store_root} on "
            f"http://{config.host}:{service.port} "
            f"(slots={config.slots} queue={config.queue_limit})",
            flush=True,
        )

    try:
        asyncio.run(run_service(config, ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_store_diff(args: argparse.Namespace) -> int:
    store = _open_store(args)
    report = store.diff(args.run_a, args.run_b)
    print(f"diff {report['a']} vs {report['b']}")
    for name, change in report["fields"].items():
        print(f"  {name}: {change['a']!r} -> {change['b']!r}")
    for key, change in report["config"].items():
        print(f"  config.{key}: {change['a']!r} -> {change['b']!r}")
    if not report["fields"] and not report["config"]:
        print("  identical run parameters")
    if report["snapshots"]:
        differing = [r["index"] for r in report["snapshots"] if not r["equal"]]
        if report["snapshots_equal"]:
            print(f"  all {len(report['snapshots'])} snapshot outputs identical")
        else:
            print(f"  snapshot outputs differ at {differing}")
    if report["result_equal"] is not None:
        print(
            "  final results identical" if report["result_equal"]
            else "  final results differ"
        )
    return 0


def _supervisor_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed-timeout", type=float, default=None, metavar="SECONDS",
        help="per-seed watchdog timeout for multi-seed sweeps",
    )
    p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retries per crashed/hung seed (default: 2)",
    )


def _fault_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--faults", type=str, default=None, metavar="PLAN.json",
        help="compile this fault plan onto every run (see repro.faults)",
    )


def _world_flags(
    p: argparse.ArgumentParser,
    nodes: int,
    hours: float,
    seed: int,
) -> None:
    """The simulated protocol world: size, duration, seed."""
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--hours", type=float, default=hours)
    p.add_argument("--seed", type=int, default=seed)


def _sweep_flags(p: argparse.ArgumentParser, seeds: int, per: str) -> None:
    """The multi-seed fan-out and its supervision, ``--export``, ``--profile``."""
    p.add_argument(
        "--seeds", type=int, default=seeds, metavar="N",
        help=f"consecutive seeds (from --seed) per {per}",
    )
    p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --seeds > 1 (default: CPU count)",
    )
    p.add_argument("--export", type=str, default=None, metavar="DIR")
    _supervisor_flags(p)
    p.add_argument(
        "--profile", nargs="?", const="repro-profile", default=None,
        metavar="OUT",
        help="run under cProfile; write hotspots to OUT.txt and OUT.json "
        "(default OUT: repro-profile).  Figures are unchanged — only "
        "wall time is (profiled loops run ~2x slower).",
    )


def _store_flags(p: argparse.ArgumentParser, unit: str) -> None:
    """``--store/--resume/--force``, checked by ``_check_store_flags``."""
    p.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help=f"checkpoint each {unit} into this run store "
        "(resume/cache on re-run)",
    )
    p.add_argument(
        "--resume", type=str, default=None, metavar="RUN_ID",
        help=f"resume this run id after its last completed {unit} "
        "(with --store)",
    )
    p.add_argument(
        "--force", action="store_true",
        help="re-execute even when the store holds a complete result "
        "(with --store)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the ICDCS'21 Bitcoin-synchronization study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run the Fig. 2 crawl campaign")
    campaign.add_argument("--scale", type=float, default=0.01)
    campaign.add_argument("--snapshots", type=int, default=12)
    campaign.add_argument("--seed", type=int, default=42)
    _fault_flag(campaign)
    _sweep_flags(campaign, seeds=1, per="campaign")
    _store_flags(campaign, "snapshot")
    campaign.set_defaults(func=_cmd_campaign)

    sync = sub.add_parser("sync", help="run the Fig. 1 churn contrast")
    _world_flags(sync, nodes=60, hours=2.0, seed=21)
    _fault_flag(sync)
    _sweep_flags(sync, seeds=1, per="churn level")
    _store_flags(sync, "arm")
    sync.set_defaults(func=_cmd_sync)

    chaos = sub.add_parser(
        "chaos",
        help="measure sync-%% degradation vs. fault intensity",
    )
    chaos.add_argument(
        "--faults", type=str, required=True, metavar="PLAN.json",
        help="fault plan to scale across the intensity axis",
    )
    chaos.add_argument(
        "--intensities", type=str, default="0,0.5,1,1.5,2", metavar="LIST",
        help="comma-separated intensity multipliers (0 = clean baseline)",
    )
    _world_flags(chaos, nodes=40, hours=1.0, seed=21)
    _sweep_flags(chaos, seeds=2, per="intensity level")
    _store_flags(chaos, "level")
    chaos.set_defaults(func=_cmd_scaled)

    attack = sub.add_parser(
        "attack",
        help="measure sync-%% degradation vs. attacker count",
    )
    attack.add_argument(
        "--plan", type=str, required=True, metavar="PLAN.json",
        help="attack plan to scale across the attacker-count axis",
    )
    attack.add_argument(
        "--counts", type=str, default="0,18,36,73", metavar="LIST",
        help="comma-separated attacker counts (0 = clean baseline; "
        "default ends at the paper's 73-node attack)",
    )
    attack.add_argument(
        "--mitigations", nargs="?", const="improved", default=None,
        metavar="VARIANT",
        help="also rerun the full attack under this policy "
        "variant and report the sync recovered (bare flag: the paper's "
        "§V 'improved' refinements)",
    )
    _world_flags(attack, nodes=40, hours=1.0, seed=21)
    _sweep_flags(attack, seeds=2, per="attacker-count level")
    _store_flags(attack, "level")
    attack.set_defaults(func=_cmd_scaled)

    variants = sub.add_parser(
        "variants",
        help="run the protocol-variant lab "
        "(variant x churn x fault)",
    )
    variants.add_argument(
        "--variants", type=str, default=",".join(DEFAULT_VARIANTS),
        metavar="LIST",
        help="comma-separated variant names "
        "(repro.bitcoin.variant_names())",
    )
    variants.add_argument(
        "--churn", type=str,
        default=",".join(f"{level:g}" for level in DEFAULT_CHURN_LEVELS),
        metavar="LIST",
        help="comma-separated churn levels in departures per 10 min; "
        "retention = mean sync at the highest level / the lowest",
    )
    variants.add_argument(
        "--faults", type=str, default=None, metavar="PLAN.json",
        help="also run every variant under this fault plan "
        "(the fault-free axis is kept for contrast)",
    )
    _world_flags(variants, nodes=40, hours=1.0, seed=21)
    _sweep_flags(variants, seeds=2, per="matrix cell")
    _store_flags(variants, "cell")
    variants.set_defaults(func=_cmd_variants)

    relay = sub.add_parser("relay", help="run the Fig. 10/11 relay experiment")
    _world_flags(relay, nodes=30, hours=2.0, seed=11)
    relay.add_argument("--export", type=str, default=None, metavar="DIR")
    relay.set_defaults(func=_cmd_relay)

    conn = sub.add_parser("conn", help="run the Fig. 6/7 connection experiments")
    conn.add_argument("--nodes", type=int, default=60)
    conn.add_argument("--runs", type=int, default=5)
    conn.add_argument("--seed", type=int, default=5)
    conn.set_defaults(func=_cmd_conn)

    store = sub.add_parser("store", help="inspect the run store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store", type=str, default=None, metavar="DIR",
            help="store root (default: $REPRO_STORE or ./repro-store)",
        )

    store_ls = store_sub.add_parser("ls", help="list runs")
    _store_flag(store_ls)
    store_ls.set_defaults(func=_cmd_store_ls)

    store_show = store_sub.add_parser("show", help="show one run's manifest")
    store_show.add_argument("run_id")
    _store_flag(store_show)
    store_show.set_defaults(func=_cmd_store_show)

    store_gc = store_sub.add_parser(
        "gc", help="delete unreferenced blobs and stale temp files"
    )
    store_gc.add_argument("--dry-run", action="store_true")
    _store_flag(store_gc)
    store_gc.set_defaults(func=_cmd_store_gc)

    store_diff = store_sub.add_parser("diff", help="compare two runs")
    store_diff.add_argument("run_a")
    store_diff.add_argument("run_b")
    _store_flag(store_diff)
    store_diff.set_defaults(func=_cmd_store_diff)

    serve = sub.add_parser(
        "serve",
        help="serve campaigns over HTTP from a run store (repro.serve)",
    )
    serve.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="store root (default: $REPRO_STORE or ./repro-store)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8742,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="concurrent simulating jobs",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=8, metavar="N",
        help="admitted-but-waiting jobs before 429",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="supervisor worker processes per job",
    )
    _supervisor_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    from .lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the determinism & checkpoint-safety static analyzer",
    )
    add_lint_arguments(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; a malformed setting — a flag, a plan file, a
    config the command refuses — prints ``error: …`` and exits 2, a
    store that cannot serve the command (a missing run, config drift on
    ``--resume``, a blob of another layout) ``error: …`` and exits 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "resume"):
            _check_store_flags(args)
        profile_out = getattr(args, "profile", None)
        if profile_out:
            from .perf.profiler import profile_to

            with profile_to(profile_out):
                return args.func(args)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StoreError, SupervisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
