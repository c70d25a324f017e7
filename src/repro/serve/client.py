"""A minimal asyncio HTTP client for the campaign service.

Exists so tests, the serve benchmark, and the CI smoke script can talk
to the service without any third-party HTTP dependency.  It speaks
exactly the subset the service emits: HTTP/1.1, ``Content-Length``
bodies for regular responses, and ``Transfer-Encoding: chunked`` for the
SSE event stream.

``Client`` holds one keep-alive connection — which is also what the
benchmark wants, so connection setup cost does not pollute per-request
latency samples.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional, Tuple

_MAX_LINE = 65536


class ClientResponse:
    """Status, headers, body of one non-streaming response."""

    def __init__(
        self, status: int, headers: Dict[str, str], body: bytes
    ) -> None:
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


async def _read_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.decode("latin-1").strip().split(" ", 2)
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


class Client:
    """One keep-alive connection to a running campaign service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_LINE
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "Client":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    def _encode_request(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
    ) -> bytes:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
        ]
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
            lines.append("Content-Type: application/json")
        payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if body is not None:
            payload += body
        return payload

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[Any] = None,
    ) -> ClientResponse:
        """One request/response over the persistent connection.

        ``body`` (if not None and not ``bytes``) is JSON-encoded.
        Reconnects once if the server closed an idle keep-alive conn.
        """
        raw: Optional[bytes]
        if body is None:
            raw = None
        elif isinstance(body, bytes):
            raw = body
        else:
            raw = json.dumps(body).encode("utf-8")
        payload = self._encode_request(method, path, raw)
        for attempt in (0, 1):
            if self._reader is None or self._writer is None:
                await self._connect()
            assert self._reader is not None and self._writer is not None
            try:
                self._writer.write(payload)
                await self._writer.drain()
                status, resp_headers = await _read_head(self._reader)
            except (ConnectionError, BrokenPipeError):
                await self.close()
                if attempt:
                    raise
                continue
            length = int(resp_headers.get("content-length", "0"))
            data = (
                await self._reader.readexactly(length) if length else b""
            )
            if resp_headers.get("connection", "").lower() == "close":
                await self.close()
            return ClientResponse(status, resp_headers, data)
        raise ConnectionError("unreachable")  # pragma: no cover

    async def stream_events(self, path: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield decoded SSE events from a chunked event-stream response.

        Uses a dedicated connection (the stream ends with a server-side
        close, per the service's chunked responses).
        """
        reader, writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_LINE
        )
        try:
            writer.write(self._encode_request("GET", path, None))
            await writer.drain()
            status, resp_headers = await _read_head(reader)
            if status != 200:
                length = int(resp_headers.get("content-length", "0"))
                body = await reader.readexactly(length) if length else b""
                raise ConnectionError(
                    f"event stream returned {status}: {body[:200]!r}"
                )
            buffer = b""
            while True:
                size_line = await reader.readline()
                if not size_line:
                    break
                size = int(size_line.strip() or b"0", 16)
                if size == 0:
                    await reader.readline()  # trailing CRLF
                    break
                chunk = await reader.readexactly(size)
                await reader.readexactly(2)  # CRLF after chunk
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for line in frame.splitlines():
                        if line.startswith(b"data: "):
                            yield json.loads(line[6:].decode("utf-8"))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
