"""The paper's contribution: measurement and root-cause-analysis toolkit.

Implements the Fig. 2 data-collection workflow (address crawler, GETADDR
crawler, VER prober), the four root-cause analyses (unreachable network,
addressing protocol, relaying protocol, churn), the malicious-peer
detector, the routing-attack revisit, and the experiment drivers for every
figure in §IV.
"""

from .addr_analysis import AddrComposition, classify_harvest, composition, table_composition
from .churn_matrix import (
    ChurnMatrix,
    ChurnStats,
    SyncDepartureStats,
    analyze,
    build_matrix,
    departures_between,
    synchronized_departures,
)
from .conn_experiments import (
    ResyncResult,
    StabilityResult,
    SuccessResult,
    SuccessRun,
    run_connection_stability,
    run_connection_success,
    run_resync_experiment,
    summarize_attempt_durations,
    warm_world,
)
from . import export, figures
from .crawler import AddressCrawler, CrawlInput, SourceStats
from .getaddr import CrawlResult, GetAddrConfig, GetAddrCrawler, PeerHarvest
from .malicious_detect import (
    DetectionMetrics,
    DetectionReport,
    MaliciousFinding,
    detect_flooders,
    merge_reports,
    score_detection,
    time_to_detection,
)
from .condition_sweep import (
    Axis,
    Condition,
    ConditionCell,
    ConditionSweepPlan,
    ConditionSweepResult,
    conditions,
)
from .parallel import (
    SyncSweepResult,
    run_plans,
    run_sync_groups,
    seed_range,
)
from .pipeline import (
    CRAWLER_ADDR,
    CampaignConfig,
    CampaignResult,
    CampaignRunner,
    SnapshotResult,
)
from .prober import ProbeCampaignResult, ProbeConfig, VerProber
from .propagation import (
    BlockPropagation,
    PropagationTracker,
    measure_propagation,
)
from .relay_experiments import (
    RelayExperimentConfig,
    RelayExperimentResult,
    build_relay_scenario,
    run_relay_experiment,
)
from .reports import comparison_table, format_table, series_preview
from .routing import (
    ASHostingRow,
    HijackPlan,
    HostingReport,
    TargetShift,
    common_top_ases,
    hosting_report,
    plan_hijack,
    target_shifts,
)
from .sync_experiments import (
    SyncCampaignConfig,
    SyncCampaignResult,
    run_sync_campaign,
)
from .supervisor import (
    SupervisedRun,
    SupervisorConfig,
    SupervisorEvent,
    run_supervised,
    supervisor_config,
)
from .sync_monitor import SyncMonitor, SyncSnapshot, best_height_at

__all__ = [
    "CRAWLER_ADDR",
    "ASHostingRow",
    "AddrComposition",
    "AddressCrawler",
    "Axis",
    "BlockPropagation",
    "CampaignConfig",
    "CampaignResult",
    "CampaignRunner",
    "ChurnMatrix",
    "ChurnStats",
    "Condition",
    "ConditionCell",
    "ConditionSweepPlan",
    "ConditionSweepResult",
    "CrawlInput",
    "CrawlResult",
    "DetectionMetrics",
    "DetectionReport",
    "GetAddrConfig",
    "GetAddrCrawler",
    "HijackPlan",
    "HostingReport",
    "MaliciousFinding",
    "PeerHarvest",
    "ProbeCampaignResult",
    "ProbeConfig",
    "PropagationTracker",
    "RelayExperimentConfig",
    "RelayExperimentResult",
    "ResyncResult",
    "SnapshotResult",
    "SourceStats",
    "StabilityResult",
    "SuccessResult",
    "SuccessRun",
    "SupervisedRun",
    "SupervisorConfig",
    "SupervisorEvent",
    "SyncCampaignConfig",
    "SyncCampaignResult",
    "SyncDepartureStats",
    "SyncMonitor",
    "SyncSnapshot",
    "SyncSweepResult",
    "TargetShift",
    "VerProber",
    "analyze",
    "best_height_at",
    "build_matrix",
    "build_relay_scenario",
    "classify_harvest",
    "common_top_ases",
    "comparison_table",
    "composition",
    "conditions",
    "departures_between",
    "detect_flooders",
    "export",
    "figures",
    "format_table",
    "hosting_report",
    "measure_propagation",
    "merge_reports",
    "plan_hijack",
    "run_connection_stability",
    "run_connection_success",
    "run_plans",
    "run_relay_experiment",
    "run_resync_experiment",
    "run_supervised",
    "run_sync_campaign",
    "run_sync_groups",
    "score_detection",
    "seed_range",
    "series_preview",
    "summarize_attempt_durations",
    "supervisor_config",
    "synchronized_departures",
    "table_composition",
    "target_shifts",
    "time_to_detection",
    "warm_world",
]
