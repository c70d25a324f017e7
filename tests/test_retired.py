"""Retired paths stay retired: one table of spellings that must not come back.

A row is ``(id, pattern, paths, reason, retired_in, fixture)``.  The
pattern must match nothing under its paths; ``reason`` says why the
spelling was retired and ``retired_in`` is the commit that retired it
(``git show`` it).  The fixture is the retired spelling itself, and the
pattern must match it, so a row cannot quietly stop matching anything.

A pattern is a regex matched line by line, as ``grep -nE`` does.  One
that contains ``\\n`` spans lines and is matched against the whole file:
the two rows that guard the text between one line and another.  A
directory is searched recursively, ``__pycache__`` skipped and this file
left out.  A guarded path that is gone fails its row: a renamed module
moves its row with it.  A row without a pattern is a glob row: each of
its paths is a glob that must match no file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
THIS = Path(__file__).resolve()


@dataclass(frozen=True)
class Guard:
    id: str
    pattern: Optional[str]
    paths: Tuple[str, ...]
    reason: str
    retired_in: str
    fixture: str
    #: Files under ``paths`` the pattern may match.
    exclude: Tuple[str, ...] = ()


GUARDS = [
    Guard(
        "scheduler.switches",
        r"REPRO_ENGINE|REPRO_FAST_PATH|HeapScheduler|resolve_engine|fast_path",
        ("src/",),
        "one scheduler, one dispatch loop (docs/architecture.md, \"Engine "
        "internals\"); the reference engine is tests/reference_scheduler.py",
        "bc543d9",
        'if os.environ.get("REPRO_FAST_PATH", "1") == "0":',
    ),
    Guard(
        "stored_runner.hooks",
        r'REPRO_CRASH_AFTER_(SNAPSHOT|LEVEL|CELL)|-partial"|checkpoint_every|_LEGACY_KNOBS',
        ("src/",),
        "every stored run goes through store.plan.run_stored and its one "
        "REPRO_CRASH_AFTER_UNIT hook (\"Plans and the runner\")",
        "c074915",
        'os.environ.get("REPRO_CRASH_AFTER_SNAPSHOT")',
    ),
    Guard(
        "sweep.families",
        r"attack_experiments|variant_experiments|fault_experiments"
        r"|run_stored_(attack_sweep|variant_matrix)|(attack_sweep|variant_matrix)_key"
        r"|run_2019_vs_2020|run_sync_under_faults|compare_mitigations|MaliciousBitcoinNode",
        ("src/",),
        "chaos, attack, variants, 2019-vs-2020 and mitigations are condition "
        "lists on one ConditionSweepPlan (\"Fig. 1 under conditions\")",
        "3860115",
        "from .attack_experiments import run_attack_sweep",
    ),
    Guard(
        "sweep.builders",
        r"def (churn|fault|attack|mitigation|variant)_conditions|def _base\(",
        ("src/",),
        "a sweep is conditions(base, *axes) over Axis presets: a new sweep "
        "is a new axis, not a new loop",
        "443b607",
        "def churn_conditions(base, levels):",
    ),
    Guard(
        "pickler.python",
        r"_CanonicalPickler|pickle\._Pickler|_PicklerBase",
        ("src/",),
        "checkpoints are canonical by construction and dumped by the C "
        "pickler; the sorted-set pickler is tests/reference_pickler.py",
        "37e6c5e",
        "class _CanonicalPickler(pickle._Pickler):",
    ),
    Guard(
        "sampler.stdlib",
        r"\brng\.sample\(|_rng\.sample\(",
        ("src/repro/netmodel",),
        "sampling on the crawl's address path goes through "
        "simnet.rand.sample, Random.sample's exact draws inlined",
        "f963f47",
        "picked = self._rng.sample(pool, k)",
    ),
    Guard(
        "block_plane.per_reply_inv",
        r"InvItem\(InvType\.BLOCK|ids_above|_by_height",
        ("src/repro/bitcoin/node.py", "src/repro/bitcoin/blockchain.py"),
        "a block's inventory item is made once, with the block, and the "
        "height-keyed main chain stays gone",
        "bb3329f",
        "items = [InvItem(InvType.BLOCK, block.id) for block in blocks]",
    ),
    Guard(
        "node.components",
        r"HandlerLoop|ConnectionManager|RelayEngine|\.loop\b",
        ("src/repro/bitcoin",),
        "a full node is one object: connections, the handler pass and relay "
        "are BitcoinNode methods (\"Node tiers\")",
        "1e9aeaa",
        "self.loop = HandlerLoop(self)",
    ),
    Guard(
        "addrman.info_map",
        r"_info\b|setdefault\(bucket",
        ("src/repro/bitcoin/addrman.py",),
        "addrman keeps rows over shared ADDR records: no per-address info "
        "map, no throw-away list per insert (\"Addrman layout\")",
        "5d237d4",
        "self._info[addr] = info",
    ),
    Guard(
        "addrman.bucket_dict",
        r"_buckets: Dict|_buckets\.get\(",
        ("src/repro/bitcoin/addrman.py",),
        "a bucket is a slot in one list per table, not a dict entry",
        "79e5c4e",
        "_buckets: Dict[int, List[NetAddr]]",
    ),
    Guard(
        "addrman.ingest_object",
        # From a `def add_many` line through the next `def attempt` line.
        r"def add_many[^\n]*?AddrInfo\("
        r"|def add_many[^\n]*\n(?:(?![^\n]*def attempt)[^\n]*\n)*[^\n]*?AddrInfo\(",
        ("src/repro/bitcoin/addrman.py",),
        "ADDR ingest builds nothing per record",
        "5d237d4",
        "    def add_many(self, records, now):\n"
        "        for record in records:\n"
        "            info = AddrInfo(record[1])\n"
        "    def attempt(self, addr, now):\n",
    ),
    Guard(
        "simulator.gc_knobs",
        r"gc\.(freeze|disable|set_threshold)",
        ("src/repro/bitcoin", "src/repro/netmodel", "src/repro/simnet"),
        "rows made the cycle collector cheap; no collector knob is adopted",
        "5d237d4",
        "gc.freeze()",
    ),
    Guard(
        "peer.known_addrs_set",
        r"known_addrs: *Set|known_addrs\.(update|add)\(",
        ("src/repro/bitcoin",),
        "Peer.known_addrs is a bitmap over Network.addr_index, not a set",
        "15b5165",
        "self.known_addrs: Set[NetAddr] = set()",
    ),
    Guard(
        "peer.known_addrs_pickled",
        # From a `canonical_sets(` line through the next line holding `)`.
        r"canonical_sets\((?:[^\n]*?known_addrs"
        r"|[^\n]*\n(?:[^\n)]*\n)*[^\n]*?known_addrs)",
        ("src/repro/bitcoin",),
        "no canonical_sets decorator pickles known_addrs as a set",
        "15b5165",
        '@canonical_sets(\n    "known_addrs",\n)\nclass Peer:\n',
    ),
    Guard(
        "serve.read_renders",
        r"^\s*(import|from)\s+(pickle|tempfile)\b|core\.export|core import .*\bexport\b",
        ("src/repro/serve/app.py",),
        "/result and the CSV export are served from the views a run stored "
        "beside its result (\"The campaign service\")",
        "1e3bfde",
        "import pickle",
    ),
    Guard(
        "imports.top_level",
        r"^(import|from) (numpy|scipy|networkx)",
        ("src/repro",),
        "import repro loads the repo's modules only; numpy, scipy and "
        "networkx are imported inside the analyses that use them (\"Cold "
        "start\"); tests/test_cold_start.py runs repro --help, a sync "
        "campaign, a stored crawl and repro serve without them",
        "445b1b8",
        "import scipy.stats",
    ),
    Guard(
        "lint.retired_options",
        r"baseline|sarif|--update-baseline|Severity|ASYNC00[23]",
        ("src/repro/lint",),
        "repro lint is one verdict: no baseline, SARIF, severities or the "
        "two rules that never fired (\"Static analysis\")",
        "7c32d44",
        'parser.add_argument("--update-baseline", action="store_true")',
    ),
    Guard(
        "campaign.per_seed_paths",
        r"_seed_task|SeedPlan|_campaign_worker|run_campaign_sweep|CampaignSweepResult"
        r"|run_multi_seed|CampaignAbortedError|REPRO_WORKERS|campaign_key|load_campaign_result",
        ("src/",),
        "a campaign is one CampaignPlan per seed through core.parallel."
        "run_plans (\"Supervised multi-seed execution\")",
        "b2da59e",
        "def _seed_task(config):",
    ),
    Guard(
        "config.private_parsers",
        r"def (from_dict|from_json|from_file|to_file|to_json)\b",
        ("src/repro/faults", "src/repro/adversary", "src/repro/bitcoin"),
        "every plan file and POST body becomes its dataclass through "
        "core.decode (\"Configs from JSON\")",
        "ef36427",
        "    def from_dict(cls, data):",
    ),
    Guard(
        "config.second_decoder",
        r"def (dataclass_from_dict|_check_scalar)\b",
        ("src/",),
        "the JSON-to-dataclass decoder has one copy, core/decode.py",
        "ef36427",
        "def dataclass_from_dict(cls, data):",
        exclude=("src/repro/core/decode.py",),
    ),
    Guard(
        "plans.none_spelling",
        r"Optional\[(PolicyConfig|FaultPlan|AttackPlan)\]",
        ("src/repro/netmodel/scenario.py", "src/repro/core/sync_experiments.py"),
        "an empty plan or policy is the none of its field, so equal "
        "experiments share one run key",
        "f6f1cfa",
        "    faults: Optional[FaultPlan] = None",
    ),
    Guard(
        "store.run_index",
        r"index\.json|_write_index",
        ("src/repro/store",),
        "the run store writes nothing beside the manifests",
        "f6f1cfa",
        'path = os.path.join(self.root, "index.json")',
    ),
    Guard(
        "faults.second_scope",
        r"AttackScope",
        ("src/",),
        "faults and attackers share one scope class, faults.FaultScope",
        "f6f1cfa",
        "class AttackScope:",
    ),
    Guard(
        "cloud.second_representation",
        r"_probe_behavior|set_probe_behavior|EndpointFactory|endpoint_factory|NatModel"
        r"|validate_fidelity|require_light_tier|Axis\.fidelity|--fidelit",
        ("src/",),
        "the unreachable cloud is light-tier endpoints owned by "
        "netmodel.nat.LightCloud (\"Node tiers\"), with no knob choosing",
        "03eef58",
        "network.set_probe_behavior(addr, behavior)",
    ),
    Guard(
        "bench.harness_files",
        None,
        ("BENCH_*.json", "benchmarks/bench_*.py", "benchmarks/conftest.py"),
        "speed is measured by benchmarks/ledger, accuracy by "
        "benchmarks/accuracy.py; the single-run benches and their JSONs are gone",
        "9eccb42",
        "BENCH_scale.json",
    ),
    Guard(
        "bench.knobs",
        r"REPRO_BENCH_|benchmark\.pedantic|benchmarks/bench_|headline_targets|pytest-benchmark",
        ("src/", "tests/", "benchmarks/", "docs/", "examples/", "README.md",
         "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"),
        "the per-figure bench knobs, pytest-benchmark wrappers and "
        "calibration's target list are gone with their harnesses",
        "dab3914",
        'rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))',
    ),
    Guard(
        "perf.recorder",
        r"PerfRecorder|REPRO_PERF|perf_report|perf_enabled_by_env",
        ("src/",),
        "the scheduler has no per-event recorder hook; the ledger measures speed",
        "9eccb42",
        "class PerfRecorder:",
    ),
    Guard(
        "config.seed_views",
        r"SeedViewConfig|seed_views",
        ("src/",),
        "the Fig. 3 source-view coverage is netmodel/seeds.py's constants; "
        "nothing ever set a SeedViewConfig",
        "d59d8d4",
        "    seed_views: SeedViewConfig = field(default_factory=SeedViewConfig)",
    ),
    Guard(
        "config.second_horizon",
        r"campaign_days: float =|config\.campaign_days",
        ("src/repro/netmodel/churn.py", "src/repro/netmodel/population.py"),
        "LongitudinalConfig.campaign_days is the campaign's one horizon; "
        "build_reachable_timeline takes it from the scenario",
        "d59d8d4",
        "    campaign_days: float = float(cal.CAMPAIGN_DAYS)",
    ),
    Guard(
        "config.unset_fields",
        r"connect_retry_interval|handler_interval|default_proc_time"
        r"|addrman_(new|tried)_buckets|addrman_bucket_size|uplink_bandwidth"
        r"|unreachable_client_share|target_tx_trickle|client_hb_fraction"
        r"|client_refresh_interval|self_advertise",
        ("src/repro/bitcoin/config.py", "src/repro/core/relay_experiments.py",
         "src/repro/bitcoin/light.py"),
        "a config field is something a caller sets: these never were, and "
        "are module constants beside their read site (handler_interval, "
        "never read, is gone)",
        "d59d8d4",
        "    handler_interval: float = 0.100",
    ),
    Guard(
        "policy.registry",
        r"PolicyVariant|PolicyBundle|build_policies|ensure_builtins|LightTierPolicy"
        r"|bitcoin\.policy|\.policy\.(addr|relay|conn|light)\b",
        ("src/",),
        "a policy variant is a row of knobs in bitcoin/config.py, each read "
        "where its mechanism lives (\"Policy variants\")",
        "4cae709",
        "from .policy.registry import build_policies",
    ),
    Guard(
        "src.test_only_helpers",
        r"measure_propagation|summarize_attempt_durations|best_height_at|degree_histogram"
        r"|pairwise_distances_sample|expected_propagation_rounds"
        r"|weighted_sample_without_replacement|zipf_weights|set_deltas|table_composition"
        r"|density_curve|flood_bars|split_known|HandshakeError|total_online|lifetime_span"
        r"|def (cdf|ccdf|fraction_below|top_k_share|ratio_table|histogram|shuffled"
        r"|format_size|unregister)\(|\bWEEKS\b|\bKiB\b",
        ("src/",),
        "src/ keeps what a caller runs: nothing under src/, benchmarks/, "
        "examples/ or a plan file named these, only their tests",
        "3b8847d",
        "def measure_propagation(n_reachable=60, max_outbound=8):",
    ),
    Guard(
        "node.ping_keepalive",
        r"ping_interval|_send_ping_round|_ping_task",
        ("src/",),
        "no caller pinged: nodes answer PING with PONG, and idle links fail "
        "only through connection_lifetime_mean",
        "3b8847d",
        "        if self.config.ping_interval:",
    ),
    Guard(
        "node.compact_blocks_knob",
        r"compact_blocks",
        ("src/",),
        "every node negotiates BIP152; an INV-only network is "
        "hb_compact_fraction=0.0",
        "3b8847d",
        "    compact_blocks: bool = True",
    ),
    Guard(
        "node.feeler_interval_knob",
        r"feeler_interval",
        ("src/",),
        "feelers run every FEELER_INTERVAL, the one value any caller used",
        "3b8847d",
        "    feeler_interval: float = FEELER_INTERVAL",
    ),
    Guard(
        "store.status_interrupted",
        r"STATUS_INTERRUPTED",
        ("src/",),
        "no run was ever written as interrupted: a killed run stays "
        "running and resumes",
        "3b8847d",
        'STATUS_INTERRUPTED = "interrupted"',
    ),
    Guard(
        "lint.four_visitors",
        r"SetTypeCollector|class Analyzer\b|_SymbolCollector|_BodyCollector"
        r"|_STDLIB_ROOTS|_FALLBACK_MODULES|collect_facts|run_rules",
        ("src/repro/lint/",),
        "each file is indexed once and walked once (visitor.index_module, "
        "visitor.BodyWalk) on one resolver and one fallback table, "
        "FALLBACK_MODULES (\"Static analysis\")",
        "db6ba54",
        "class _SymbolCollector(ast.NodeVisitor):",
    ),
    Guard(
        "serve.config_knobs",
        r"log_requests|retry_after: float|config\.retry_after"
        r"|self\.retry_after",
        ("src/repro/serve/",),
        "a config field is something a caller sets: the 429 Retry-After is "
        "serve.jobs.RETRY_AFTER and every request is logged",
        "db6ba54",
        "    retry_after: float = 2.0",
    ),
    Guard(
        "serve.tenancy",
        r"TenantLedger|DEFAULT_TENANT|x-repro-tenant|X-Repro-Tenant|quota_runs"
        r"|quota_bytes|--quota-|--cache-mb|cache_bytes|admin/quota"
        r"|QuotaExceededError|rejected_quota",
        ("src/",),
        "repro serve is a front for one reader: no tenant, no quota, and "
        "the read cache has one budget, ReadCache's default",
        "c904c2a",
        'TENANT_HEADER = "x-repro-tenant"',
    ),
    Guard(
        "measurement.per_class_driver",
        r"_abort_all|_fill_slots|_finish_target|_check_done|_bind_buckets|on_done",
        ("src/repro/core/getaddr.py", "src/repro/core/prober.py"),
        "the crawler and the prober run on one pass driver, "
        "core.bounded_pass.BoundedPass, whose abort stops the pass",
        "74392b2",
        "    def _abort_all(self) -> None:",
    ),
]


def _files(path: Path) -> Iterator[Path]:
    """Files at or under ``path``; none if it is gone (the caller checks)."""
    if path.is_file():
        yield path
    elif path.is_dir():
        for child in sorted(path.iterdir()):
            if child.name != "__pycache__" and child != THIS:
                yield from _files(child)


@lru_cache(maxsize=None)
def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8", "replace")


def hits(guard: Guard, root: Path = ROOT) -> List[str]:
    """``path:line: text`` for each match of ``guard`` under ``root``;
    for a glob row, each file a glob matches."""
    if guard.pattern is None:
        return sorted(
            path.relative_to(root).as_posix()
            for glob in guard.paths
            for path in root.glob(glob)
        )
    pattern = re.compile(guard.pattern)
    spans = r"\n" in guard.pattern
    found = []
    for name in guard.paths:
        for path in _files(root / name):
            rel = path.relative_to(root).as_posix()
            if rel in guard.exclude:
                continue
            text = _read(path)
            if spans:
                for match in pattern.finditer(text):
                    line = text.count("\n", 0, match.start()) + 1
                    found.append(f"{rel}:{line}: {match.group(0).splitlines()[0]}")
            else:
                found.extend(
                    f"{rel}:{number}: {line.strip()}"
                    for number, line in enumerate(text.split("\n"), 1)
                    if pattern.search(line)
                )
    return found


def _fixture_file(guard: Guard, root: Path, text: str) -> Path:
    """Write ``text`` at ``guard``'s first path under ``root`` (into a
    ``fixture.py`` when that path is a directory)."""
    target = root / guard.paths[0]
    if not target.suffix:
        target = target / "fixture.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.id)
def test_stays_retired(guard):
    if guard.pattern is not None:
        gone = [name for name in guard.paths if not (ROOT / name).exists()]
        assert not gone, f"{guard.id}: guarded path(s) {gone} are gone; move the row"
    found = hits(guard)
    assert not found, (
        f"{guard.id} reappeared ({guard.reason}; retired in {guard.retired_in}):\n"
        + "\n".join(found)
    )


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.id)
def test_pattern_matches_its_fixture(guard, tmp_path):
    """The fixture, written at the row's first path, is one hit there."""
    if guard.pattern is None:
        (tmp_path / guard.fixture).touch()
        assert hits(guard, tmp_path) == [guard.fixture]
        return
    target = _fixture_file(guard, tmp_path, guard.fixture)
    [hit] = hits(guard, tmp_path)
    assert hit.startswith(f"{target.relative_to(tmp_path).as_posix()}:1: "), hit


@pytest.mark.parametrize(
    "guard_id, text",
    [
        ("addrman.ingest_object",
         "    def add_many(self, records, now):\n        pass\n"
         "    def attempt(self, addr, now):\n        pass\n"
         "    def info(self, addr):\n        return AddrInfo(addr)\n"),
        ("peer.known_addrs_pickled",
         '@canonical_sets(\n    "peers",\n)\nclass Node:\n    known_addrs = 0\n'),
    ],
)
def test_a_range_row_ends_where_its_range_does(guard_id, text, tmp_path):
    """What follows the range's closing line is outside it."""
    [guard] = [guard for guard in GUARDS if guard.id == guard_id]
    _fixture_file(guard, tmp_path, text)
    assert hits(guard, tmp_path) == []


def test_the_table_leaves_out_only_itself():
    scanned = set(_files(ROOT / "tests"))
    assert THIS not in scanned
    assert scanned | {THIS} == {
        path for path in (ROOT / "tests").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    }


def test_ids_are_unique():
    ids = [guard.id for guard in GUARDS]
    assert len(ids) == len(set(ids))
