"""The reference pickler: a test oracle for ``repro.store.checkpoint``.

This is the retired ``_CanonicalPickler``, re-homed from ``src/``: the
pure-Python ``pickle._Pickler`` with a ``reducer_override`` that writes
every ``set`` / ``frozenset`` in sorted element order.  Production code
no longer needs it — every class that owns simulation or result state in
a set emits it as a sorted tuple from ``__getstate__``
(``repro.simnet.simulator.canonical_sets``), so the C pickler is
canonical by construction — but it is still the cheapest statement of what
"canonical" means, and it sees every object the dump reaches.  So it
does two jobs here:

* **oracle** — the payload of :func:`reference_dump` must equal the payload
  ``dump_checkpoint`` wrote, byte for byte, on every checkpoint kind;
* **inventory** — it *records* every raw set it is handed.  A non-empty
  :attr:`ReferencePickler.raw_sets` means some class still leaks a
  ``set`` into a checkpoint, where the C pickler would write it in
  insertion-history order.  It records every stock ``random.Random``
  too: a generator that is not a ``repro.simnet.rand.Stream`` pickles
  as a 625-int tuple instead of its 2.5 KB word array.

There is no production seam for it; tests call it beside
``dump_checkpoint`` on the same object.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import random
from typing import Any, List, Tuple

from repro.store.checkpoint import MAGIC, PICKLE_PROTOCOL, read_header


class ReferencePickler(pickle._Pickler):
    """Sorted-set pure-Python pickler that remembers the sets and the
    stock generators it met."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: ``(type name, size)`` of every raw set reached, in dump order.
        self.raw_sets: List[Tuple[str, int]] = []
        #: Every stock ``random.Random`` reached, in dump order.
        self.stock_rngs: List[random.Random] = []

    def reducer_override(self, obj: Any):
        kind = type(obj)
        if kind is random.Random:
            self.stock_rngs.append(obj)
        elif kind is set or kind is frozenset:
            self.raw_sets.append((kind.__name__, len(obj)))
            try:
                return (kind, (sorted(obj),))
            except TypeError:
                return NotImplemented
        return NotImplemented


def reference_dump(
    obj: Any, *, aliasing: bool = True
) -> Tuple[bytes, List[Tuple[str, int]], List[random.Random]]:
    """``(payload, raw sets met, stock generators met)`` for ``obj``
    under the oracle."""
    buf = io.BytesIO()
    pickler = ReferencePickler(buf, protocol=PICKLE_PROTOCOL)
    if not aliasing:
        pickler.fast = 1
    pickler.dump(obj)
    return buf.getvalue(), pickler.raw_sets, pickler.stock_rngs


def checkpoint_payload(blob: bytes) -> bytes:
    """The pickle payload of a framed checkpoint blob."""
    return blob[read_header(blob)["_payload_offset"] :]


def format_1_blob(obj: Any, kind: str) -> bytes:
    """A checkpoint exactly as a format-1 build framed it: this pickler's
    payload under a header that says ``"format": 1``."""
    payload = reference_dump(obj)[0]
    header = {
        "format": 1,
        "kind": kind,
        "pickle_protocol": PICKLE_PROTOCOL,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "meta": {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        MAGIC + len(header_bytes).to_bytes(4, "big") + header_bytes + payload
    )
