"""Content-addressed run store, checkpoints, and resumable campaigns.

The persistence layer under every long-horizon measurement: SHA-256
addressed blobs with atomic writes (:mod:`~repro.store.blobs`), JSON run
manifests keyed by a content hash of (scenario, seed, config)
(:mod:`~repro.store.manifest`), versioned integrity-checked checkpoint
framing (:mod:`~repro.store.checkpoint`), the store facade with gc and
manifest diffing (:mod:`~repro.store.runstore`), the resumable
work-unit runner (:mod:`~repro.store.plan`), and the crawl campaign as
a plan over it (:mod:`~repro.store.campaign`).

``repro.simnet.Simulator.snapshot()`` / ``restore()`` build on the same
checkpoint framing, so a whole simulator — event queue, clock, RNG
streams, nodes, addrman, churn — round-trips to bytes and replays
bit-identically.
"""

from .blobs import BlobStore, sha256_hex
from .campaign import CampaignPlan, run_stored_campaign
from .checkpoint import (
    CHECKPOINT_FORMAT,
    dump_checkpoint,
    load_checkpoint,
    read_header,
)
from .manifest import (
    MANIFEST_FORMAT,
    STATUS_COMPLETE,
    STATUS_RUNNING,
    CheckpointRecord,
    RunManifest,
    SnapshotRecord,
    code_version,
    run_key,
)
from .plan import (
    CRASH_ENV,
    CRASH_EXIT_CODE,
    StoredPlan,
    StoredRun,
    run_stored,
)
from .runstore import RunStore, default_store_root

__all__ = [
    "BlobStore",
    "CHECKPOINT_FORMAT",
    "CRASH_ENV",
    "CRASH_EXIT_CODE",
    "CampaignPlan",
    "CheckpointRecord",
    "MANIFEST_FORMAT",
    "RunManifest",
    "RunStore",
    "STATUS_COMPLETE",
    "STATUS_RUNNING",
    "SnapshotRecord",
    "StoredPlan",
    "StoredRun",
    "code_version",
    "default_store_root",
    "dump_checkpoint",
    "load_checkpoint",
    "read_header",
    "run_key",
    "run_stored",
    "run_stored_campaign",
    "sha256_hex",
]
