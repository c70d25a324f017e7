"""Content-addressed blob storage.

Blobs are immutable byte strings keyed by their SHA-256 hex digest and
laid out git-style under ``objects/<first two hex>/<remaining hex>``.
Writes are atomic — the blob is written to a ``.tmp-*`` file under
``objects/`` and ``os.replace``d into place — so a killed process can
never leave a half-written object under its final name, and concurrent
writers of the same content race harmlessly (both produce identical
bytes).  A writer killed mid-write leaves its temp file behind;
:meth:`repro.store.runstore.RunStore.gc` reclaims it once it is old.

No operation reads a blob whole unless it returns it: :meth:`put_framed`
assembles a blob from a file chunk by chunk, and an existing blob is
checked by hashing it in chunks, so a write holds at most one
:data:`CHUNK` of a blob in memory.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Tuple, Union

from ..errors import ReadOnlyStoreError, StoreError

PathLike = Union[str, Path]

#: errno values meaning "the filesystem refused the write", as opposed
#: to a corrupt store or a programming error.
_READ_ONLY_ERRNOS = (errno.EROFS, errno.EACCES, errno.EPERM)

#: Name prefix of every file a writer has not yet moved into place.
TEMP_PREFIX = ".tmp-"

#: Read size of chunked copies and digests.
CHUNK = 1 << 18


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


def _chunks(handle: BinaryIO) -> Iterator[memoryview]:
    """The rest of ``handle`` as views of one reused :data:`CHUNK`-byte
    buffer; each view is valid until the next is yielded."""
    with memoryview(bytearray(CHUNK)) as buf:
        while True:
            size = handle.readinto(buf)
            if not size:
                return
            yield buf[:size]


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
        if not self._intact(path, digest):
            with self._temp_file(path.parent) as (handle, name):
                handle.write(data)
                self._commit(handle, name, path)
        return digest

    @contextmanager
    def spool(self) -> Iterator[BinaryIO]:
        """A scratch file under ``objects/`` for a payload on its way
        into :meth:`put_framed`, removed on exit."""
        with self._temp_file(self.objects_dir) as (handle, _name):
            yield handle

    def put_framed(self, prefix: bytes, payload: BinaryIO) -> str:
        """Store ``prefix`` followed by all of the file ``payload``;
        return the digest.  Idempotent, and checked like :meth:`put`.

        The blob is copied and hashed chunk by chunk into a temp file,
        so no more than one :data:`CHUNK` of it is ever in memory."""
        payload.seek(0)
        sha = hashlib.sha256(prefix)
        with self._temp_file(self.objects_dir) as (handle, name):
            handle.write(prefix)
            for chunk in _chunks(payload):
                sha.update(chunk)
                handle.write(chunk)
            digest = sha.hexdigest()
            path = self._path(digest)
            if not self._intact(path, digest):
                self._commit(handle, name, path)
        return digest

    def _intact(self, path: Path, digest: str) -> bool:
        """Whether ``path`` exists and hashes to ``digest``."""
        sha = hashlib.sha256()
        try:
            with open(path, "rb") as handle:
                for chunk in _chunks(handle):
                    sha.update(chunk)
        except FileNotFoundError:
            return False
        return sha.hexdigest() == digest

    @contextmanager
    def _temp_file(self, directory: Path) -> Iterator[Tuple[BinaryIO, str]]:
        """A new temp file in ``directory`` (created if missing) and its
        name; deleted on exit unless :meth:`_commit` moved it."""
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fd, name = tempfile.mkstemp(
                dir=directory, prefix=TEMP_PREFIX, suffix=".blob"
            )
        except OSError as exc:
            reject_read_only(exc, self.root, "write a blob")
            raise
        try:
            with os.fdopen(fd, "w+b") as handle:
                yield handle, name
        except OSError as exc:
            reject_read_only(exc, self.root, "write a blob")
            raise
        finally:
            try:
                os.unlink(name)
            except OSError:
                pass

    def _commit(self, handle: BinaryIO, name: str, path: Path) -> None:
        """Close the temp file ``name`` and move it into place at ``path``."""
        handle.close()
        path.parent.mkdir(exist_ok=True)
        os.replace(name, path)

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
    def temp_files(self) -> Iterator[Path]:
        """Every file under ``objects/`` a writer has not moved into place."""
        for entry in sorted(self.objects_dir.iterdir()):
            if entry.name.startswith(TEMP_PREFIX):
                yield entry
            elif entry.is_dir():
                yield from sorted(entry.glob(TEMP_PREFIX + "*"))

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
