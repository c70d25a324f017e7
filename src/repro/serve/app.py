"""The campaign service: asyncio HTTP over the run store.

``CampaignService`` wires the pieces together — the content-addressed
:class:`~repro.store.runstore.RunStore` underneath, the
:class:`~repro.serve.jobs.JobManager` for supervised execution with
slots/backpressure, the :class:`~repro.serve.cache.ReadCache` making the
warm read path a pure memory hit, and structured request
metrics/logging — behind a small fixed route table:

====== ===================================== ===============================
Method Path                                  Purpose
====== ===================================== ===============================
POST   /v1/campaigns                         submit config JSON -> run keys
GET    /v1/jobs                              list jobs
GET    /v1/jobs/{id}                         one job's status
GET    /v1/jobs/{id}/events                  progress stream (SSE)
GET    /v1/runs                              store index
GET    /v1/runs/{run_id}                     run manifest
GET    /v1/runs/{run_id}/result              result summary JSON
GET    /v1/runs/{run_id}/export/campaign_series.csv  figure CSV
GET    /v1/blobs/{digest}                    raw blob bytes
POST   /v1/admin/gc[?dry_run=1]              garbage collection
POST   /v1/admin/cache                       read-cache control
GET    /v1/metrics                           counters + latency quantiles
GET    /v1/healthz                           liveness/drain state
====== ===================================== ===============================

Error taxonomy -> status mapping: bad submissions (unknown fields,
invalid scenarios) are 400; capacity (and a gc while a job runs) 429
with ``Retry-After``; a read-only store root 503 (retryable operational
state, per :class:`~repro.errors.ReadOnlyStoreError`); anything
unexpected 500 with a counter bump.

This module reads host time for request latency only; ``repro.serve``
is on the repro-lint clock allowlist for exactly that reason.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..core.supervisor import supervisor_config
from ..errors import (
    ConfigurationError,
    ReadOnlyStoreError,
    ReproError,
    ScenarioError,
    ServiceBusyError,
    StoreError,
)
from ..store.campaign import CampaignPlan
from ..store.manifest import RunManifest
from ..store.runstore import RunStore, default_store_root
from .cache import ReadCache
from .http import (
    ChunkedWriter,
    HttpError,
    Request,
    Response,
    read_request,
    send_response,
    split_path,
    sse_event,
)
from .jobs import DISPOSITION_QUEUED, RETRY_AFTER, JobManager
from .metrics import ServiceMetrics
from .submission import parse_submission

logger = logging.getLogger("repro.serve")

#: Threads for store file I/O dispatched off the event loop.
IO_THREADS = 4

#: The ``/v1/metrics`` route every request the parser refuses (400 /
#: 408 / 413 / 501) is counted under: its method and path are not
#: trustworthy enough to name a route.
REFUSED_ROUTE = "(refused)"

#: The ``/v1/metrics`` route every request that matches no route (a
#: 404) is counted under: a label per invented path would grow the
#: metrics without bound.
UNMATCHED_ROUTE = "(no route)"


@dataclass
class ServiceConfig:
    """Everything the service needs to run."""

    store_root: str = field(default_factory=default_store_root)
    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests/benchmarks read it back).
    port: int = 8742
    #: Concurrent jobs simulating (one worker thread per slot).
    slots: int = 1
    #: Admitted-but-waiting jobs beyond the slots before 429.
    queue_limit: int = 8
    #: Supervisor worker processes per job (per-seed fan-out).
    workers: int = 1
    #: Per-seed watchdog timeout / retries for the supervised runner.
    seed_timeout: Optional[float] = None
    retries: Optional[int] = None


#: Handlers: async (service, request, path parts) -> Response.
Handler = Callable[[Request, Tuple[str, ...]], Awaitable[Response]]


class CampaignService:
    """The asyncio HTTP service over one run store."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = RunStore(config.store_root)
        self.metrics = ServiceMetrics()
        self.cache = ReadCache()
        self.jobs = JobManager(
            self.store,
            self.metrics,
            slots=config.slots,
            queue_limit=config.queue_limit,
            workers=config.workers,
            supervisor=supervisor_config(config.seed_timeout, config.retries),
        )
        self.server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self.draining = False
        # Insertion-ordered (dict) so shutdown cancels deterministically.
        self._conn_tasks: Dict["asyncio.Task[None]", None] = {}
        # Store reads are file I/O; handlers must never run them
        # on the event loop (ASYNC001) — they go through _io_call.
        self._io = ThreadPoolExecutor(
            max_workers=IO_THREADS, thread_name_prefix="repro-serve-io"
        )

    async def _io_call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run blocking store work on the I/O thread pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._io, fn, *args)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self.server.sockets[0].getsockname()[1]
        logger.info(
            "serving store %s on http://%s:%d",
            self.store.root, self.config.host, self.port,
        )

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admissions, optionally drain in-flight jobs, close."""
        self.draining = True
        self.jobs.draining = True
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if drain:
            await self.jobs.drain()
        pending = list(self._conn_tasks)
        self._conn_tasks.clear()
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._io.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._serve_connection(reader, writer)
        )
        self._conn_tasks[task] = None
        task.add_done_callback(
            lambda done: self._conn_tasks.pop(done, None)
        )

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                # A refusal's latency counts from when the connection
                # began waiting for the request it refused.
                started = time.perf_counter()
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    bytes_out = await send_response(
                        writer,
                        Response.error(exc.status, str(exc)),
                        keep_alive=False,
                    )
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    self.metrics.observe(
                        REFUSED_ROUTE, exc.status, elapsed_ms, bytes_out
                    )
                    return
                if request is None:
                    return
                close = await self._dispatch(request, writer)
                if close or not request.keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route + run one request; returns True if the conn must close."""
        started = time.perf_counter()
        parts = split_path(request.path)
        route_label = UNMATCHED_ROUTE
        status = 500
        bytes_out = 0
        close = False
        try:
            route_label, handler, streaming = self._route(request, parts)
            if streaming:
                # The events stream writes the response itself.
                stream = ChunkedWriter(writer)
                status = await self._stream_job_events(request, parts, stream)
                bytes_out = stream.bytes_sent
                close = True
            else:
                response = await handler(request, parts)
                status = response.status
                bytes_out = await send_response(
                    writer, response, keep_alive=request.keep_alive
                )
        except HttpError as exc:
            status = exc.status
            response = Response.error(exc.status, str(exc))
            bytes_out = await send_response(
                writer, response, keep_alive=request.keep_alive
            )
        except ReproError as exc:
            status, headers = self._map_error(exc)
            response = Response.error(status, str(exc), headers)
            bytes_out = await send_response(
                writer, response, keep_alive=request.keep_alive
            )
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - 500, never a dead conn
            self.metrics.internal_errors += 1
            logger.exception("unhandled error on %s", route_label)
            status = 500
            response = Response.error(
                500, f"internal error: {type(exc).__name__}"
            )
            bytes_out = await send_response(
                writer, response, keep_alive=request.keep_alive
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.metrics.observe(route_label, status, elapsed_ms, bytes_out)
        logger.info(
            "%s",
            json.dumps(
                {
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "ms": round(elapsed_ms, 3),
                    "bytes": bytes_out,
                },
                sort_keys=True,
            ),
        )
        return close

    @staticmethod
    def _map_error(exc: ReproError) -> Tuple[int, Dict[str, str]]:
        if isinstance(exc, ServiceBusyError):
            return 429, {
                "Retry-After": str(max(1, math.ceil(exc.retry_after)))
            }
        if isinstance(exc, ReadOnlyStoreError):
            return 503, {}
        if isinstance(exc, (ConfigurationError, ScenarioError)):
            return 400, {}
        if isinstance(exc, StoreError):
            return 404, {}
        return 500, {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Tuple[str, Handler, bool]:
        """Resolve (route template, handler, is-streaming)."""
        method = request.method
        if len(parts) >= 1 and parts[0] == "v1":
            tail = parts[1:]
            if tail == ("healthz",) and method == "GET":
                return "GET /v1/healthz", self._h_healthz, False
            if tail == ("metrics",) and method == "GET":
                return "GET /v1/metrics", self._h_metrics, False
            if tail == ("campaigns",) and method == "POST":
                return "POST /v1/campaigns", self._h_submit, False
            if tail == ("jobs",) and method == "GET":
                return "GET /v1/jobs", self._h_jobs, False
            if len(tail) == 2 and tail[0] == "jobs" and method == "GET":
                return "GET /v1/jobs/{id}", self._h_job, False
            if (
                len(tail) == 3
                and tail[0] == "jobs"
                and tail[2] == "events"
                and method == "GET"
            ):
                return "GET /v1/jobs/{id}/events", self._h_job, True
            if tail == ("runs",) and method == "GET":
                return "GET /v1/runs", self._h_runs, False
            if len(tail) == 2 and tail[0] == "runs" and method == "GET":
                return "GET /v1/runs/{run_id}", self._h_run, False
            if (
                len(tail) == 3
                and tail[0] == "runs"
                and tail[2] == "result"
                and method == "GET"
            ):
                return "GET /v1/runs/{run_id}/result", self._h_result, False
            if (
                len(tail) == 4
                and tail[0] == "runs"
                and tail[2] == "export"
                and tail[3] == "campaign_series.csv"
                and method == "GET"
            ):
                return (
                    "GET /v1/runs/{run_id}/export/campaign_series.csv",
                    self._h_export_csv,
                    False,
                )
            if len(tail) == 2 and tail[0] == "blobs" and method == "GET":
                return "GET /v1/blobs/{digest}", self._h_blob, False
            if tail == ("admin", "gc") and method == "POST":
                return "POST /v1/admin/gc", self._h_gc, False
            if tail == ("admin", "cache") and method == "POST":
                return "POST /v1/admin/cache", self._h_cache, False
        raise HttpError(404, f"no route for {method} {request.path}")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _h_healthz(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        return Response.json(
            {
                "status": "draining" if self.draining else "ok",
                "store": str(self.store.root),
                "jobs_in_flight": self.jobs.active_count,
            }
        )

    async def _h_metrics(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        return Response.json(
            self.metrics.snapshot(
                queue_depth=self.jobs.active_count,
                running=self.jobs.running_count,
                cache_stats=self.cache.stats(),
            )
        )

    async def _h_submit(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        if self.draining:
            raise ReadOnlyStoreError(
                "service is draining; retry against a live instance"
            )
        spec = parse_submission(request.json())
        job, disposition = await self.jobs.submit(spec)
        payload = job.describe()
        payload["disposition"] = disposition
        status = 202 if disposition == DISPOSITION_QUEUED else 200
        return Response.json(payload, status=status)

    async def _h_jobs(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        return Response.json({"jobs": self.jobs.list_jobs()})

    async def _h_job(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        job = self.jobs.get(parts[2])
        if job is None:
            raise HttpError(404, f"no such job {parts[2]!r}")
        return Response.json(job.describe())

    async def _stream_job_events(
        self,
        request: Request,
        parts: Tuple[str, ...],
        stream: ChunkedWriter,
    ) -> int:
        job = self.jobs.get(parts[2])
        if job is None:
            raise HttpError(404, f"no such job {parts[2]!r}")
        try:
            seen = int(request.query.get("after", "0"))
        except ValueError:
            raise HttpError(400, "after must be an integer") from None
        if seen < 0:
            # A negative cursor would index the log from its end.
            raise HttpError(400, "after must not be negative")
        await stream.start()
        while True:
            while seen < len(job.events):
                await stream.write(sse_event(job.events[seen]))
                seen += 1
            if job.terminal:
                break
            await job.wait_events(seen)
        await stream.close()
        return 200

    async def _h_runs(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        return Response.json({"runs": await self._io_call(self.store.index)})

    async def _manifest(self, run_id: str) -> RunManifest:
        return await self._io_call(self.store.load_manifest, run_id)

    async def _h_run(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        manifest = await self._manifest(parts[2])
        return Response.json(manifest.to_dict())

    async def _blob_bytes(self, digest: str) -> bytes:
        """A blob through the read cache (verified once, then memory)."""
        key = ("blob", digest)
        data = self.cache.get(key)
        if data is None:
            data = await self._io_call(self.store.get_blob, digest)
            self.cache.put(key, data)
        return data

    async def _view(self, manifest: RunManifest, name: str) -> bytes:
        """One rendered view of a run's result (see
        :meth:`~repro.store.plan.StoredPlan.views`): a plain blob the
        run wrote beside its result, read like any other blob."""
        if manifest.result_digest is None:
            raise HttpError(
                404,
                f"run {manifest.run_id!r} has no result yet "
                f"(status {manifest.status!r})",
            )
        digest = manifest.views.get(name)
        if digest is not None:
            return await self._blob_bytes(digest)
        # A run stored before manifests carried views: render now, with
        # the plan's own renderer, what a newer run rendered at commit.
        key = (name, manifest.result_digest)
        data = self.cache.get(key)
        if data is None:
            blob = await self._blob_bytes(manifest.result_digest)
            result = CampaignPlan.decode_result(blob, manifest.run_id)
            data = CampaignPlan.views(result)[name]
            self.cache.put(key, data)
        return data

    async def _h_result(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        manifest = await self._manifest(parts[2])
        # The body names the run as well as its result, so both key it
        # (a run has a result digest only once it is complete).
        key = ("result", manifest.run_id, str(manifest.result_digest))
        body = self.cache.get(key)
        if body is None:
            payload = {
                "run_id": manifest.run_id,
                "key": manifest.key,
                "seed": manifest.seed,
                "status": manifest.status,
                "snapshots": manifest.completed_snapshots,
                "truncated": manifest.truncated,
                "result_digest": manifest.result_digest,
                "export_csv": (
                    f"/v1/runs/{manifest.run_id}/export/campaign_series.csv"
                ),
            }
            payload.update(
                json.loads(await self._view(manifest, "summary.json"))
            )
            body = (
                json.dumps(payload, sort_keys=True, indent=2) + "\n"
            ).encode()
            self.cache.put(key, body)
        return Response(status=200, body=body)

    async def _h_export_csv(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        manifest = await self._manifest(parts[2])
        body = await self._view(manifest, "campaign_series.csv")
        return Response(status=200, body=body, content_type="text/csv")

    async def _h_blob(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        return Response(
            status=200,
            body=await self._blob_bytes(parts[2]),
            content_type="application/octet-stream",
        )

    async def _h_gc(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        dry_run = request.query.get("dry_run", "0") not in ("0", "", "false")
        if dry_run:
            report = await self._io_call(partial(self.store.gc, dry_run=True))
        else:
            # A running job puts each blob before the manifest naming it:
            # a gc beside it would take what it has just written.
            if self.jobs.active_count or self.jobs.collecting:
                raise ServiceBusyError(
                    "gc runs only with no job in flight and no other gc "
                    f"({self.jobs.active_count} job(s) in flight)",
                    retry_after=RETRY_AFTER,
                )
            self.jobs.collecting = True
            try:
                report = await self._io_call(self.store.gc)
            finally:
                self.jobs.collecting = False
        return Response.json(
            {
                "dry_run": report["dry_run"],
                "removed_count": len(report["removed"]),
                "removed_bytes": report["removed_bytes"],
                "kept": report["kept"],
                "temp_files": report["temp_files"],
                "temp_bytes": report["temp_bytes"],
                "removed_sample": report["removed"][:16],
            }
        )

    async def _h_cache(
        self, request: Request, parts: Tuple[str, ...]
    ) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HttpError(400, "cache control body must be an object")
        unknown = sorted(set(body) - {"enabled", "clear"})
        if unknown:
            raise HttpError(400, f"unknown cache control field(s) {unknown}")
        if "enabled" in body:
            if not isinstance(body["enabled"], bool):
                raise HttpError(400, "enabled must be a boolean")
            self.cache.set_enabled(body["enabled"])
        if body.get("clear"):
            self.cache.clear()
        return Response.json(self.cache.stats())


async def run_service(
    config: ServiceConfig,
    ready: Optional[Callable[[CampaignService], Any]] = None,
) -> None:
    """Run the service until SIGINT/SIGTERM, then drain and exit.

    ``ready`` (if given) is called with the started service — the CLI
    uses it to print the bound address, tests to capture the port.
    """
    import signal

    # Constructing the service opens the store (mkdir, file reads) —
    # blocking work that must not run on the loop thread.
    loop = asyncio.get_running_loop()
    service = await loop.run_in_executor(None, CampaignService, config)
    await service.start()
    if ready is not None:
        ready(service)
    stop = asyncio.Event()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stop.wait()
        logger.info("shutdown requested; draining %d in-flight job(s)",
                    service.jobs.active_count)
    finally:
        await service.shutdown(drain=True)
        for signum in installed:
            loop.remove_signal_handler(signum)
