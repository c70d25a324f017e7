"""The run store: manifests + blobs under one root directory.

Layout::

    <root>/
      objects/<aa>/<...62 hex...>   content-addressed blobs
      runs/<run_id>.json            one manifest per run

Manifest writes are atomic (tmp + ``os.replace``), so a run killed
mid-write leaves either the old manifest or the new one, never a torn
file — at worst a ``.tmp-*`` file, which :meth:`RunStore.gc` removes
once it is :data:`TEMP_FILE_MAX_AGE_S` old.  The run listing
(:meth:`RunStore.index`) is a scan of ``runs/``; nothing else is
written beside the manifests, so a commit costs one manifest write
however many runs the store holds.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import StoreError
from .blobs import TEMP_PREFIX, BlobStore, reject_read_only
from .checkpoint import dump_checkpoint, read_header
from .manifest import RunManifest
from .wallclock import now as wall_now

PathLike = Union[str, Path]

#: Environment variable naming the default store root for the CLI.
STORE_ENV = "REPRO_STORE"
DEFAULT_STORE_DIR = "repro-store"

#: Age past which ``gc`` takes a temp file for the leftover of a writer
#: killed mid-write.  No live write comes near it, so gc never races one.
TEMP_FILE_MAX_AGE_S = 3600.0


def default_store_root() -> str:
    """CLI default: ``$REPRO_STORE`` or ``./repro-store``."""
    return os.environ.get(STORE_ENV, DEFAULT_STORE_DIR)


class RunStore:
    """Durable, content-addressed storage for experiment runs."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.blobs = BlobStore(self.root)
        self.runs_dir = self.root / "runs"
        try:
            self.runs_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reject_read_only(exc, self.root, "create runs/")
            raise

    # ------------------------------------------------------------------
    # Blobs (delegation, so callers hold one handle)
    # ------------------------------------------------------------------
    def put_blob(self, data: bytes) -> str:
        return self.blobs.put(data)

    def get_blob(self, digest: str) -> bytes:
        return self.blobs.get(digest)

    def put_checkpoint(
        self,
        obj: Any,
        *,
        kind: str,
        meta: Optional[Dict[str, Any]] = None,
        aliasing: bool = True,
    ) -> str:
        """Store ``dump_checkpoint(obj, kind=..., meta=..., aliasing=...)``;
        return its digest.  The pickle streams into a temp file and the
        blob is framed from there, so the payload is never in memory."""
        with self.blobs.spool() as payload:
            prefix = dump_checkpoint(
                obj, kind=kind, meta=meta, aliasing=aliasing, sink=payload
            )
            return self.blobs.put_framed(prefix, payload)

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------
    def _manifest_path(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise StoreError(f"invalid run id {run_id!r}")
        return self.runs_dir / f"{run_id}.json"

    def save_manifest(self, manifest: RunManifest) -> None:
        """Atomically persist ``manifest``."""
        path = self._manifest_path(manifest.run_id)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.runs_dir, prefix=TEMP_PREFIX, suffix=".json"
            )
        except OSError as exc:
            reject_read_only(exc, self.root, "write a manifest")
            raise
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(manifest.to_json())
            os.replace(tmp_name, path)
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(exc, OSError):
                reject_read_only(exc, self.root, "write a manifest")
            raise

    def load_manifest(self, run_id: str) -> RunManifest:
        path = self._manifest_path(run_id)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise StoreError(f"run {run_id!r} not in store") from None
        return RunManifest.from_json(text)

    def refuse_retired_format(self, manifest: RunManifest) -> None:
        """Raise :class:`~repro.errors.CheckpointError` if ``manifest``'s
        checkpoint or result blob is in a format this build cannot read.

        The checkpoint format is part of the run key, so a run written by
        an older build can only be reached by naming it (``--resume``),
        where it also fails the key comparison; callers check here first
        so the user is told *which* formats disagree rather than sent
        looking for config drift.
        """
        digests = [manifest.result_digest]
        if manifest.checkpoint is not None:
            digests.append(manifest.checkpoint.digest)
        for digest in digests:
            if digest is not None and digest in self.blobs:
                read_header(self.get_blob(digest))

    def has_run(self, run_id: str) -> bool:
        return self._manifest_path(run_id).exists()

    def delete_run(self, run_id: str) -> bool:
        """Remove a manifest (blobs are reclaimed by :meth:`gc`)."""
        try:
            self._manifest_path(run_id).unlink()
        except FileNotFoundError:
            return False
        return True

    def manifests(self) -> List[RunManifest]:
        """Every manifest, ordered by run id."""
        out = []
        for path in sorted(self.runs_dir.glob("*.json")):
            if path.name.startswith("."):
                continue
            out.append(RunManifest.from_json(path.read_text()))
        return out

    def index(self) -> Dict[str, Dict[str, Any]]:
        """The run listing (run id -> summary row), scanned from ``runs/``."""
        rows: Dict[str, Dict[str, Any]] = {}
        for manifest in self.manifests():
            rows[manifest.run_id] = {
                "kind": manifest.kind,
                "status": manifest.status,
                "seed": manifest.seed,
                "snapshots": (
                    f"{manifest.completed_snapshots}/{manifest.snapshots_total}"
                ),
                "truncated": manifest.truncated,
                "key": manifest.key,
                "updated_at": manifest.updated_at,
            }
        return rows

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False) -> Dict[str, Any]:
        """Delete blobs no manifest references, and the temp files of
        writes killed midway (older than :data:`TEMP_FILE_MAX_AGE_S`).

        Returns a report with the removed/kept digests and byte counts,
        and the count and bytes of the temp files removed.
        """
        referenced = set()
        for manifest in self.manifests():
            referenced.update(manifest.referenced_digests())
        removed: List[str] = []
        removed_bytes = 0
        kept = 0
        for digest in list(self.blobs.digests()):
            if digest in referenced:
                kept += 1
                continue
            removed_bytes += self.blobs.size_bytes(digest)
            if not dry_run:
                self.blobs.delete(digest)
            removed.append(digest)
        temp_files = 0
        temp_bytes = 0
        cutoff = wall_now() - TEMP_FILE_MAX_AGE_S
        for path in self._temp_files():
            try:
                stat = path.stat()
                if stat.st_mtime > cutoff:
                    continue
                if not dry_run:
                    path.unlink()
            except FileNotFoundError:
                continue  # its writer finished or gave up meanwhile
            temp_files += 1
            temp_bytes += stat.st_size
        return {
            "removed": removed,
            "removed_bytes": removed_bytes,
            "kept": kept,
            "temp_files": temp_files,
            "temp_bytes": temp_bytes,
            "dry_run": dry_run,
        }

    def _temp_files(self) -> List[Path]:
        """Every temp file under ``objects/``, ``runs/`` and the root
        (where older services saved a tenant ledger)."""
        return [
            *self.blobs.temp_files(),
            *sorted(self.runs_dir.glob(TEMP_PREFIX + "*")),
            *sorted(self.root.glob(TEMP_PREFIX + "*")),
        ]

    # ------------------------------------------------------------------
    # Diff
    # ------------------------------------------------------------------
    def diff(self, run_id_a: str, run_id_b: str) -> Dict[str, Any]:
        """Compare two run manifests field by field.

        Reports config keys whose values differ, scalar field changes,
        and per-snapshot result-blob agreement (content addressing makes
        "same output" a digest comparison).
        """
        a = self.load_manifest(run_id_a)
        b = self.load_manifest(run_id_b)
        config_diff: Dict[str, Any] = {}
        keys = sorted(set(a.config) | set(b.config))
        for key in keys:
            va, vb = a.config.get(key), b.config.get(key)
            if va != vb:
                config_diff[key] = {"a": va, "b": vb}
        fields = {}
        for name in ("kind", "seed", "snapshots_total", "status", "code_version",
                     "key"):
            va, vb = getattr(a, name), getattr(b, name)
            if va != vb:
                fields[name] = {"a": va, "b": vb}
        n = max(a.completed_snapshots, b.completed_snapshots)
        snap_rows = []
        for i in range(n):
            da = a.snapshots[i].digest if i < a.completed_snapshots else None
            db = b.snapshots[i].digest if i < b.completed_snapshots else None
            snap_rows.append(
                {"index": i, "equal": da == db and da is not None,
                 "a": da, "b": db}
            )
        return {
            "a": run_id_a,
            "b": run_id_b,
            "fields": fields,
            "config": config_diff,
            "snapshots": snap_rows,
            "snapshots_equal": all(row["equal"] for row in snap_rows)
            if snap_rows
            else None,
            "result_equal": (
                a.result_digest == b.result_digest
                if a.result_digest and b.result_digest
                else None
            ),
        }
