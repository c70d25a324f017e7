"""Campaign-as-a-service: an asyncio serving layer over the run store.

``repro serve`` turns the content-addressed run store into a small
service for one reader: clients POST campaign configs, the service
deduplicates them against the store (identical config + seed = the same
run key = a cache hit that never re-simulates), executes fresh runs
through the crash-supervised multi-seed runner while streaming per-seed
progress events over SSE, and serves results, figure CSVs, and raw
blobs back out through a byte-budgeted read cache.

Built entirely on the standard library (``asyncio`` + a hand-rolled
HTTP/1.1 in :mod:`repro.serve.http`) — the repository's no-new-runtime-
dependencies rule applies to the serving layer too.

Layering:

- :mod:`repro.serve.http` — wire protocol (requests, responses, chunked
  streaming, SSE framing)
- :mod:`repro.serve.submission` — config JSON -> one validated
  ``CampaignPlan`` per seed
- :mod:`repro.serve.jobs` — slots, queueing, backpressure, supervised
  execution, the per-job event log
- :mod:`repro.serve.cache` / :mod:`repro.serve.metrics` — read cache,
  telemetry
- :mod:`repro.serve.app` — the route table tying it all together
- :mod:`repro.serve.client` — dependency-free client for tests and the
  load benchmark
"""

from .app import CampaignService, ServiceConfig, run_service
from .cache import ReadCache
from .client import Client, ClientResponse
from .jobs import (
    DISPOSITION_CACHED,
    DISPOSITION_JOINED,
    DISPOSITION_QUEUED,
    Job,
    JobManager,
)
from .metrics import ServiceMetrics
from .submission import SubmissionSpec, parse_submission

__all__ = [
    "CampaignService",
    "ServiceConfig",
    "run_service",
    "ReadCache",
    "Client",
    "ClientResponse",
    "DISPOSITION_CACHED",
    "DISPOSITION_JOINED",
    "DISPOSITION_QUEUED",
    "Job",
    "JobManager",
    "ServiceMetrics",
    "SubmissionSpec",
    "parse_submission",
]
