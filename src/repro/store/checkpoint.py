"""Versioned, integrity-checked checkpoint framing.

A checkpoint is a self-describing binary blob::

    MAGIC (8 bytes) | header length (4 bytes, big-endian) | header JSON | payload

The header records the format version, a *kind* tag (``"simulator"``,
``"campaign"``, ...), the pickle protocol, the SHA-256 of the payload,
and optional caller metadata.  :func:`load_checkpoint` refuses blobs
whose magic, version, kind, or payload digest do not match, so a
truncated write or a blob from a future format fails loudly instead of
unpickling garbage.

The payload itself is a pickle of the live object graph.  Everything the
simulator schedules is picklable by construction — callbacks are bound
methods or :func:`functools.partial` objects, never lambdas — so a
checkpoint captures the event queue, RNG streams, clock, and all node /
addrman / churn state in one pass, and a restored run is bit-identical
to an uninterrupted one (pinned by the determinism tests).

Equal states pickle to equal bytes because the *classes* say so, not the
pickler: a ``set`` iterates in insertion-history order, so every class
that keeps simulation or result state in one pickles it as a sorted
tuple (:func:`repro.simnet.simulator.canonical_sets`) and no raw set
reaches a payload.  The dump is then the stock C :class:`pickle.Pickler`.
Pickling depth is bounded the same way: ``Socket`` state leaves out the
one node-to-node edge (``_peer``) and ``Network`` state carries the
pairs as a flat list, so depth does not grow with node count.

The store never holds a payload whole.  A write streams the pickle
through a hashing writer into a temp file and frames the blob from
there (``dump_checkpoint(..., sink=file)``); a load hashes and unpickles
the blob's bytes through a ``memoryview``.  Only the bytes API —
``dump_checkpoint`` without a sink, which :meth:`Simulator.snapshot
<repro.simnet.simulator.Simulator.snapshot>` returns — builds the
framed blob in memory.

This module is deliberately stdlib-only: the simulation core imports it
lazily and must not pull the rest of :mod:`repro.store` (which imports
the pipeline layer) into ``repro.simnet``'s import graph.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, BinaryIO, Dict, Optional

from ..errors import CheckpointError

#: Bump on any incompatible change to the framing or to what the
#: simulator payload is expected to contain.  Part of every run key
#: (:func:`repro.store.manifest.run_key`), so a store written under an
#: older format is a clean miss, never a hit on an unreadable blob.
#:
#: 2 — sets pickle as sorted tuples from their owning classes and socket
#:     pairs as one flat list in ``Network`` state.  Format 1 (raw sets,
#:     sorted by a pickler subclass; ``Socket._peer`` inline) is refused.
CHECKPOINT_FORMAT = 2

MAGIC = b"RPRCKPT\x01"

#: Pinned pickle protocol: the checkpoint digest of identical state must
#: not change when the interpreter's default protocol does.
PICKLE_PROTOCOL = 4

_HEADER_LEN_BYTES = 4
_MAX_HEADER = 1 << 20


class _HashingWriter:
    """The file the pickler writes to: each write is hashed and counted
    on its way to ``sink``, so the payload digest needs no second pass
    and no buffer of the payload."""

    __slots__ = ("_write", "_sha", "size")

    def __init__(self, sink: BinaryIO) -> None:
        self._write = sink.write
        self._sha = hashlib.sha256()
        self.size = 0

    def write(self, data: Any) -> int:
        self._sha.update(data)
        written = self._write(data)
        self.size += written
        return written

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def dump_checkpoint(
    obj: Any,
    *,
    kind: str,
    meta: Optional[Dict[str, Any]] = None,
    aliasing: bool = True,
    sink: Optional[BinaryIO] = None,
) -> bytes:
    """Serialize ``obj`` into a framed, digest-protected checkpoint.

    Without ``sink`` the framed blob is returned.  With one (a binary
    file) the payload streams into it and the return value is the
    frame's *prefix* — magic, header length and header, the bytes that
    go before the payload: the caller frames the blob from the file
    (:meth:`repro.store.blobs.BlobStore.put_framed`), and no copy of
    the payload is ever held in memory.  Both forms frame equal bytes.

    ``aliasing=False`` emits a memo-free pickle: every occurrence of a
    shared object is written out in full instead of as a back-reference.
    Object graphs that are *equal* but share substructure differently —
    a result merged from an unpickled checkpoint plus freshly built
    levels vs. one built in a single process (where interned strings and
    reused specs alias) — then serialize to equal bytes, which is what
    digest-based result comparison needs.  Only valid for acyclic
    payloads; simulator state (cyclic by construction) must keep the
    memo.
    """
    out = io.BytesIO() if sink is None else sink
    writer = _HashingWriter(out)
    pickler = pickle.Pickler(writer, protocol=PICKLE_PROTOCOL)
    if not aliasing:
        pickler.fast = True
    pickler.dump(obj)
    # The memo holds every object the dump reached (the temporaries a
    # reduce made among them): let them go before the frame is built.
    del pickler
    header = {
        "format": CHECKPOINT_FORMAT,
        "kind": kind,
        "pickle_protocol": PICKLE_PROTOCOL,
        "payload_sha256": writer.hexdigest(),
        "payload_bytes": writer.size,
        "meta": meta if meta is not None else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = b"".join((
        MAGIC,
        len(header_bytes).to_bytes(_HEADER_LEN_BYTES, "big"),
        header_bytes,
    ))
    if sink is not None:
        return prefix
    return b"".join((prefix, out.getbuffer()))


def read_header(data: bytes) -> Dict[str, Any]:
    """Parse and validate the header without unpickling the payload."""
    if len(data) < len(MAGIC) + _HEADER_LEN_BYTES:
        raise CheckpointError("checkpoint too short to contain a header")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint magic (not a repro checkpoint)")
    offset = len(MAGIC)
    header_len = int.from_bytes(
        data[offset : offset + _HEADER_LEN_BYTES], "big"
    )
    if header_len > _MAX_HEADER:
        raise CheckpointError(f"implausible header length {header_len}")
    offset += _HEADER_LEN_BYTES
    raw = data[offset : offset + header_len]
    if len(raw) != header_len:
        raise CheckpointError("checkpoint truncated inside the header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {header.get('format')!r} "
            f"(this build reads format {CHECKPOINT_FORMAT}; formats are "
            f"not migrated — re-run the experiment with this build)"
        )
    header["_payload_offset"] = offset + header_len
    return header


def load_checkpoint(data: bytes, *, expect_kind: Optional[str] = None) -> Any:
    """Validate ``data`` and return the unpickled object."""
    header = read_header(data)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise CheckpointError(
            f"checkpoint kind {header.get('kind')!r}, expected {expect_kind!r}"
        )
    # A view, not a slice: hashing and unpickling read the payload
    # where it lies, so a load never holds a second copy of it.
    payload = memoryview(data)[header["_payload_offset"] :]
    if len(payload) != header["payload_bytes"]:
        raise CheckpointError(
            f"checkpoint payload truncated: {len(payload)} of "
            f"{header['payload_bytes']} bytes"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header["payload_sha256"]:
        raise CheckpointError("checkpoint payload digest mismatch")
    try:
        return pickle.loads(payload)
    except (ImportError, AttributeError, pickle.UnpicklingError) as exc:
        # An intact payload naming a class this build does not have (a
        # module or attribute since removed): the blob is of another
        # layout, and the format number does not say so.
        raise CheckpointError(
            f"cannot load a {header.get('kind')!r} checkpoint: {exc} "
            f"(written under another checkpoint layout; layouts are not "
            f"migrated) — re-run with --force (force=True) to start it over"
        ) from exc
