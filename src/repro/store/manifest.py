"""Run manifests: the JSON records that make runs addressable.

A manifest describes one run — what was executed (scenario + campaign
config, seed, code version), what came out of it
(per-snapshot result blobs, the final result blob, the result's
rendered views), and where it stands
(``running`` / ``complete``).  Blobs live in the
content-addressed :class:`~repro.store.blobs.BlobStore`; the manifest
holds only digests, so identical outputs across runs share storage.

Every run has a deterministic **key**: the SHA-256 of the canonical JSON
of ``(kind, config, seed, snapshots_total, format, checkpoint
format)``.  Two invocations with the same key are the same experiment,
which is what makes cache hits and ``--resume`` safe — the key cannot
collide across differing configs and cannot differ across equal ones.
The checkpoint format is in the key so that a build which can no longer
read a store's blobs misses them (and re-runs) instead of "hitting" a
blob its loader refuses; the old manifests stay listable.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import StoreError
from . import wallclock
from .checkpoint import CHECKPOINT_FORMAT

#: Bump on incompatible manifest schema changes.
MANIFEST_FORMAT = 1

STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"
_STATUSES = (STATUS_RUNNING, STATUS_COMPLETE)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def config_to_dict(config: Any) -> Dict[str, Any]:
    """A dataclass config (possibly nested) as a JSON-able dict."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return dataclasses.asdict(config)
    if isinstance(config, dict):
        return dict(config)
    raise StoreError(f"cannot serialize config of type {type(config).__name__}")


def run_key(
    kind: str,
    config: Any,
    seed: int,
    snapshots_total: int,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """The content key identifying one (scenario, seed, config) run."""
    from .blobs import sha256_hex

    payload = {
        "format": MANIFEST_FORMAT,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "kind": kind,
        "config": config_to_dict(config),
        "seed": int(seed),
        "snapshots_total": int(snapshots_total),
    }
    if extra:
        payload["extra"] = extra
    return sha256_hex(canonical_json(payload).encode("utf-8"))


def code_version(repo_dir: Optional[Path] = None) -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout."""
    if repo_dir is None:
        repo_dir = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(repo_dir), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass
class SnapshotRecord:
    """One completed snapshot: campaign time + result blob digest."""

    index: int
    when: float
    digest: str
    truncated: bool = False


@dataclass
class CheckpointRecord:
    """The latest checkpoint: resume replays from after ``snapshot_index``."""

    digest: str
    #: Index of the last snapshot the checkpoint contains (0-based).
    snapshot_index: int


@dataclass
class RunManifest:
    """Everything recorded about one run."""

    run_id: str
    key: str
    kind: str
    seed: int
    snapshots_total: int
    config: Dict[str, Any]
    status: str = STATUS_RUNNING
    code_version: str = "unknown"
    # Provenance only — stamped through the injectable store clock and
    # excluded from run keys and result digests.
    created_at: float = field(default_factory=wallclock.now)
    updated_at: float = field(default_factory=wallclock.now)
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    checkpoint: Optional[CheckpointRecord] = None
    result_digest: Optional[str] = None
    #: View name -> digest of its rendered bytes (see
    #: :meth:`~repro.store.plan.StoredPlan.views`), written with the
    #: result.  Empty until then, and in manifests older than the field.
    views: Dict[str, str] = field(default_factory=dict)
    format: int = MANIFEST_FORMAT

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise StoreError(f"unknown run status {self.status!r}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def completed_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def truncated(self) -> bool:
        """Whether any recorded snapshot was cut short."""
        return any(snap.truncated for snap in self.snapshots)

    def referenced_digests(self) -> List[str]:
        """Every blob digest this manifest keeps alive (for gc)."""
        digests = [snap.digest for snap in self.snapshots]
        if self.checkpoint is not None:
            digests.append(self.checkpoint.digest)
        if self.result_digest is not None:
            digests.append(self.result_digest)
        digests.extend(self.views.values())
        return digests

    # ------------------------------------------------------------------
    # (De)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        data = dict(data)
        # Manifests written while runs were keyed by scheduler backend
        # carry an "engine" entry; it selects nothing now, so drop it.
        data.pop("engine", None)
        if data.get("format") != MANIFEST_FORMAT:
            raise StoreError(
                f"unsupported manifest format {data.get('format')!r} "
                f"(this build reads format {MANIFEST_FORMAT})"
            )
        data["snapshots"] = [
            SnapshotRecord(**snap) for snap in data.get("snapshots", [])
        ]
        checkpoint = data.get("checkpoint")
        data["checkpoint"] = (
            CheckpointRecord(**checkpoint) if checkpoint is not None else None
        )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise StoreError(f"corrupt manifest JSON: {exc}") from exc
        return cls.from_dict(data)
