"""Content-addressed blob storage.

Blobs are immutable byte strings keyed by their SHA-256 hex digest and
laid out git-style under ``objects/<first two hex>/<remaining hex>``.
Writes are atomic — the blob is written to a temporary file in the same
directory and ``os.replace``d into place — so a killed process can never
leave a half-written object under its final name, and concurrent writers
of the same content race harmlessly (both produce identical bytes).
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Iterator, Union

from ..errors import ReadOnlyStoreError, StoreError

PathLike = Union[str, Path]

#: errno values meaning "the filesystem refused the write", as opposed
#: to a corrupt store or a programming error.
_READ_ONLY_ERRNOS = (errno.EROFS, errno.EACCES, errno.EPERM)


def reject_read_only(exc: OSError, root: PathLike, action: str) -> None:
    """Re-raise ``exc`` as :class:`ReadOnlyStoreError` when it denotes a
    read-only/permission-denied store root; otherwise let it propagate
    untouched by returning."""
    if exc.errno in _READ_ONLY_ERRNOS:
        raise ReadOnlyStoreError(
            f"store root {os.fspath(root)!r} is not writable "
            f"(cannot {action}): {exc}"
        ) from exc


def sha256_hex(data: bytes) -> str:
    """The hex digest used as a blob's address."""
    return hashlib.sha256(data).hexdigest()


class BlobStore:
    """SHA-256-addressed object store rooted at ``root``."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        try:
            self.objects_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            reject_read_only(exc, self.root, "create objects/")
            raise

    def _path(self, digest: str) -> Path:
        if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
            raise StoreError(f"not a sha256 hex digest: {digest!r}")
        return self.objects_dir / digest[:2] / digest[2:]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def put(self, data: bytes) -> str:
        """Store ``data``; return its digest.  Idempotent.

        An existing file is trusted only when its bytes hash to its
        name; a corrupt one is replaced, so re-running the writer heals
        it instead of leaving every later read to fail."""
        digest = sha256_hex(data)
        path = self._path(digest)
        try:
            if sha256_hex(path.read_bytes()) == digest:
                return digest
        except FileNotFoundError:
            pass
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".blob"
            )
        except OSError as exc:
            reject_read_only(exc, self.root, "write a blob")
            raise
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            if isinstance(exc, OSError):
                reject_read_only(exc, self.root, "write a blob")
            raise
        return digest

    def get(self, digest: str) -> bytes:
        """Read a blob back, verifying content against its address."""
        path = self._path(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise StoreError(f"blob {digest} not in store") from None
        if sha256_hex(data) != digest:
            raise StoreError(f"blob {digest} is corrupt on disk")
        return data

    def has(self, digest: str) -> bool:
        return self._path(digest).exists()

    def delete(self, digest: str) -> bool:
        """Remove a blob; returns whether it existed."""
        path = self._path(digest)
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        except OSError as exc:
            reject_read_only(exc, self.root, "delete a blob")
            raise
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def digests(self) -> Iterator[str]:
        """Every digest currently stored."""
        for shard in sorted(self.objects_dir.iterdir()):
            if not shard.is_dir() or len(shard.name) != 2:
                continue
            for obj in sorted(shard.iterdir()):
                if not obj.name.startswith("."):
                    yield shard.name + obj.name

    def size_bytes(self, digest: str) -> int:
        try:
            return self._path(digest).stat().st_size
        except FileNotFoundError:
            raise StoreError(f"blob {digest} not in store") from None

    def total_bytes(self) -> int:
        return sum(self.size_bytes(d) for d in self.digests())

    def __len__(self) -> int:
        return sum(1 for _ in self.digests())

    def __contains__(self, digest: str) -> bool:
        return self.has(digest)

    def __repr__(self) -> str:
        return f"BlobStore(root={str(self.root)!r}, blobs={len(self)})"
