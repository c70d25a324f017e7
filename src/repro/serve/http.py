"""Minimal HTTP/1.1 over asyncio streams — the service's only wire layer.

No third-party web framework: the service speaks a small, strictly
bounded subset of HTTP/1.1 parsed by hand off an ``asyncio``
``StreamReader``.  Supported: request line + headers + an optional
``Content-Length`` body, keep-alive connections, fixed-length responses,
and chunked transfer encoding for the progress stream (server-sent
events).  Unsupported on purpose: request trailers, chunked *request*
bodies, pipelined uploads — a campaign service needs none of them, and
every unsupported construct is rejected with an explicit status rather
than misparsed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Hard caps keeping one bad client from holding memory hostage.
MAX_REQUEST_LINE = 8192
MAX_HEADER_COUNT = 100
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds a request may take to arrive once its first byte is in (408).
REQUEST_TIMEOUT = 30.0

REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed or unsupported request, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request."""

    method: str
    #: Decoded path, without the query string (e.g. ``/v1/runs/abc``).
    path: str
    #: Query parameters (first value wins on duplicates).
    query: Dict[str, str]
    #: Header names lower-cased.
    headers: Dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body as JSON, or :class:`HttpError` 400."""
        if not self.body:
            raise HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None


@dataclass
class Response:
    """One fixed-length response (streaming goes through ChunkedWriter)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        body = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def error(
        cls,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        return cls.json({"error": message, "status": status}, status, headers)


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` when the peer closed the connection.

    An idle connection may wait for its next request indefinitely, but
    once a request's first byte is in, its head and body must arrive
    within :data:`REQUEST_TIMEOUT` seconds or it is refused with 408.
    """
    first = await reader.read(1)
    if not first:
        return None
    try:
        return await asyncio.wait_for(
            _read_rest(reader, first), REQUEST_TIMEOUT
        )
    except asyncio.TimeoutError:
        raise HttpError(
            408, f"request not received within {REQUEST_TIMEOUT:g} s"
        ) from None


async def _read_rest(reader: asyncio.StreamReader, first: bytes) -> Request:
    """The rest of a request whose first byte was ``first``."""
    try:
        line = first + await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long") from None
    if len(line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpError(400, f"unsupported HTTP version {version!r}")
    try:
        split = urlsplit(target)
        query = {key: value for key, value in parse_qsl(split.query)}
    except ValueError as exc:
        raise HttpError(400, f"malformed request target {target!r}: {exc}") from None

    headers: Dict[str, str] = {}
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers") from None
        if raw in (b"\r\n", b"\n"):
            break
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many headers")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {text!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        # 1*DIGIT: int() would also take "+5" and "1_0".
        declared = headers["content-length"]
        if not (declared.isascii() and declared.isdigit()):
            raise HttpError(400, "malformed Content-Length")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "body shorter than Content-Length") from None
    elif method in ("POST", "PUT", "PATCH"):
        # A bodyless POST is legal (admin endpoints); a body without a
        # length is not parseable in this subset.
        pass

    return Request(
        method=method,
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(
    status: int,
    headers: Mapping[str, str],
) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def send_response(
    writer: asyncio.StreamWriter,
    response: Response,
    keep_alive: bool = True,
) -> int:
    """Write a fixed-length response; returns bytes sent on the wire."""
    headers = {
        "Content-Type": response.content_type,
        "Content-Length": str(len(response.body)),
        "Connection": "keep-alive" if keep_alive else "close",
    }
    headers.update(response.headers)
    payload = _head(response.status, headers) + response.body
    writer.write(payload)
    await writer.drain()
    return len(payload)


class ChunkedWriter:
    """Chunked-transfer response for streams of unknown length (SSE)."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.bytes_sent = 0
        self._closed = False

    async def start(self) -> None:
        head = {
            "Content-Type": "text/event-stream",
            "Transfer-Encoding": "chunked",
            "Cache-Control": "no-cache",
            # Streams own the connection for their whole lifetime; close
            # afterwards rather than re-synchronizing keep-alive state.
            "Connection": "close",
        }
        payload = _head(200, head)
        self._writer.write(payload)
        await self._writer.drain()
        self.bytes_sent += len(payload)

    async def write(self, data: bytes) -> None:
        if not data or self._closed:
            return
        chunk = f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"
        self._writer.write(chunk)
        await self._writer.drain()
        self.bytes_sent += len(chunk)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.write(b"0\r\n\r\n")
        await self._writer.drain()
        self.bytes_sent += 5


def sse_event(payload: Any) -> bytes:
    """One server-sent event frame carrying a JSON payload."""
    return b"data: " + json.dumps(payload, sort_keys=True).encode() + b"\n\n"


def split_path(path: str) -> Tuple[str, ...]:
    """``/v1/runs/abc`` -> ``("v1", "runs", "abc")``."""
    return tuple(part for part in path.split("/") if part)
