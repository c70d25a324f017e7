"""Job manager: bounded worker slots over the supervised plan runner.

A *job* is one submission — the :class:`~repro.store.campaign.CampaignPlan`
of each of its seeds, as parsed — executed by
:func:`repro.core.parallel.run_plans` through the run store, so every
seed is individually durable, resumable, crash-supervised, and
deduplicated by run key.  The manager adds what serving needs on top:

* **slots + backpressure** — at most ``slots`` jobs simulate at once
  (one thread per slot; the simulation itself runs in supervised worker
  processes, or inline for single-seed jobs).  Beyond
  ``slots + queue_limit`` waiting jobs the manager refuses with
  :class:`~repro.errors.ServiceBusyError`, which the HTTP layer turns
  into ``429`` + ``Retry-After`` — load shedding at the door instead of
  unbounded queueing.
* **dedup** — a submission whose every run key is already complete in
  the store never takes a slot (pure cache hit; answered on the event
  loop when the read cache holds every run's manifest), and a
  submission identical to one currently in flight *joins* that job
  instead of re-simulating.
* **the read cache** — the manager owns the service's
  :class:`~repro.serve.cache.ReadCache`, because a job's end is what
  may change a run's manifest: it drops its runs' cached manifests then.
* **progress events** — supervisor lifecycle events
  (:class:`~repro.core.supervisor.SupervisorEvent`) are forwarded onto
  the owning event loop and appended to the job's ordered event log,
  which the streaming endpoint replays and tails.
* **gc exclusion** — a job puts each blob before the manifest that
  names it, so a gc must not run beside one: ``POST /v1/admin/gc`` is
  refused while a job is in flight, and fresh work while a gc runs
  (``collecting``).
* **drain** — shutdown stops admissions and waits for in-flight jobs;
  because every seed checkpoints through the store, anything a hard kill
  would lose is bounded by one snapshot, and a drained shutdown loses
  nothing.
"""

from __future__ import annotations

import asyncio
import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core.parallel import run_plans
from ..core.supervisor import SupervisedRun, SupervisorConfig, SupervisorEvent
from ..errors import ServiceBusyError, StoreError
from ..store.campaign import CampaignPlan
from ..store.manifest import STATUS_COMPLETE
from ..store.runstore import RunStore
from ..store.wallclock import now as wall_now
from .cache import ReadCache
from .metrics import ServiceMetrics
from .submission import SubmissionSpec

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_COMPLETE = "complete"
JOB_FAILED = "failed"

#: Terminal jobs kept for listing/event replay before eviction.
JOB_HISTORY_LIMIT = 256

#: Seconds a refused submission (busy or draining service) is told to
#: wait, as the 429's ``Retry-After``.
RETRY_AFTER = 2.0

#: Dispositions a submission can come back with.
DISPOSITION_CACHED = "cached"
DISPOSITION_JOINED = "joined"
DISPOSITION_QUEUED = "queued"


def _forward_event(
    loop: asyncio.AbstractEventLoop, job: "Job", event: SupervisorEvent
) -> None:
    """Supervisor thread -> event loop bridge for progress events."""
    loop.call_soon_threadsafe(job.supervisor_event, event)


@dataclass
class SeedRun:
    """One seed's serving-side status within a job."""

    seed: int
    run_id: str
    key: str
    #: True when the run was already complete in the store at submit.
    cached_at_submit: bool
    status: str = "pending"
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "run_id": self.run_id,
            "key": self.key,
            "cached_at_submit": self.cached_at_submit,
            "status": self.status,
            "detail": self.detail,
        }


class Job:
    """One submission's lifecycle: status, per-seed runs, event log."""

    def __init__(
        self,
        job_id: str,
        spec: SubmissionSpec,
        runs: List[SeedRun],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.runs = runs
        self.status = JOB_QUEUED
        self.created_at = wall_now()
        self.events: List[Dict[str, Any]] = []
        self._by_seed = {run.seed: run for run in runs}
        self._changed = asyncio.Event()
        self._loop = loop

    # ------------------------------------------------------------------
    # Event log (loop thread only)
    # ------------------------------------------------------------------
    def post(self, kind: str, **fields: Any) -> None:  # repro-lint: loop-owned
        event = {"seq": len(self.events), "kind": kind, "t": wall_now()}
        event.update(fields)
        self.events.append(event)
        waker, self._changed = self._changed, asyncio.Event()
        waker.set()

    # repro-lint: loop-owned
    def supervisor_event(self, event: SupervisorEvent) -> None:
        """Forwarded per-seed lifecycle transition from the supervisor."""
        if self.status == JOB_QUEUED:
            self.status = JOB_RUNNING
            self.post("job-started")
        run = self._by_seed.get(event.label)
        if run is not None and run.status not in ("complete", "failed"):
            run.status = {
                "scheduled": "pending",
                "started": "running",
                "retrying": "retrying",
                "completed": "complete",
                "failed": "failed",
            }.get(event.kind, run.status)
            if event.detail:
                run.detail = event.detail
        self.post(
            event.kind,
            seed=event.label,
            attempt=event.attempt,
            detail=event.detail,
        )

    async def wait_events(self, seen: int) -> None:
        """Return once ``events[seen]`` exists or the job is terminal."""
        while len(self.events) <= seen and not self.terminal:
            await self._changed.wait()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.status in (JOB_COMPLETE, JOB_FAILED)

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "status": self.status,
            "created_at": self.created_at,
            "seeds": list(self.spec.seeds),
            "runs": [run.to_dict() for run in self.runs],
            "events": len(self.events),
            "events_url": f"/v1/jobs/{self.id}/events",
        }


class JobManager:
    """Admission control + execution for campaign jobs."""

    def __init__(
        self,
        store: RunStore,
        metrics: ServiceMetrics,
        slots: int = 1,
        queue_limit: int = 8,
        workers: int = 1,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        self.store = store
        self.metrics = metrics
        self.slots = max(1, slots)
        self.queue_limit = max(0, queue_limit)
        self.workers = max(1, workers)
        self.supervisor = supervisor
        #: The service's read cache (loop-owned).
        self.cache = ReadCache()
        self.draining = False
        #: True while a gc deletes blobs; fresh work is refused meanwhile.
        self.collecting = False
        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._inflight: Dict[str, Job] = {}
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-serve-job"
        )
        # Admission's store lookups and the end-of-job manifest reads
        # are file I/O kept off the loop; one thread is all they need.
        self._admission = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-admit"
        )
        self._run_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Jobs admitted but not yet terminal (queued + running)."""
        return len(self._inflight)

    @property
    def running_count(self) -> int:
        return sum(
            1 for job in self._inflight.values() if job.status == JOB_RUNNING
        )

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        return [self.jobs[job_id].describe() for job_id in self._order]

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _job_key(self, spec: SubmissionSpec) -> str:
        hasher = hashlib.sha256()
        for plan in spec.plans:
            hasher.update(plan.key.encode())
        return hasher.hexdigest()

    @staticmethod
    def _seed_run(plan: CampaignPlan, cached: bool) -> SeedRun:
        return SeedRun(
            seed=plan.seed,
            run_id=plan.run_id,
            key=plan.key,
            cached_at_submit=cached,
            status="complete" if cached else "pending",
            detail="store cache hit" if cached else "",
        )

    def _cached_runs(self, spec: SubmissionSpec) -> Optional[List[SeedRun]]:
        """Per-seed run records if every run's complete manifest is in
        the read cache, else ``None`` (loop thread: the cache is
        loop-owned)."""
        runs: List[SeedRun] = []
        for plan in spec.plans:
            if self.cache.manifest(plan.run_id) is None:
                return None
            runs.append(self._seed_run(plan, True))
        return runs

    def _seed_runs(self, spec: SubmissionSpec) -> Tuple[List[SeedRun], int]:
        """Per-seed run records + how many need fresh simulation."""
        runs: List[SeedRun] = []
        fresh = 0
        for plan in spec.plans:
            cached = False
            if self.store.has_run(plan.run_id):
                manifest = self.store.load_manifest(plan.run_id)
                cached = manifest.status == STATUS_COMPLETE
            if not cached:
                fresh += 1
            runs.append(self._seed_run(plan, cached))
        return runs, fresh

    def _remember(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._order.append(job.id)
        while len(self._order) > JOB_HISTORY_LIMIT:
            victim_id = None
            for job_id in self._order:
                candidate = self.jobs[job_id]
                if candidate.terminal:
                    victim_id = job_id
                    break
            if victim_id is None:
                break  # everything old is still in flight; keep it all
            self._order.remove(victim_id)
            del self.jobs[victim_id]

    async def submit(self, spec: SubmissionSpec) -> Tuple[Job, str]:
        """Admit a submission; returns ``(job, disposition)``.

        Raises :class:`~repro.errors.ServiceBusyError` over capacity or
        while a gc runs.  The store lookups are file I/O, dispatched
        onto the admission executor so the event loop never blocks.
        """
        loop = asyncio.get_running_loop()
        key = self._job_key(spec)

        inflight = self._inflight.get(key)
        if inflight is not None:
            self.metrics.submit_cache_hits += 1
            return inflight, DISPOSITION_JOINED

        cached = self._cached_runs(spec)
        if cached is not None:
            runs, fresh = cached, 0
        else:
            runs, fresh = await loop.run_in_executor(
                self._admission, self._seed_runs, spec
            )
            # An identical submission may have been admitted while we
            # were reading the store; join it rather than double-running.
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.metrics.submit_cache_hits += 1
                return inflight, DISPOSITION_JOINED
        if fresh == 0:
            # Every run key is already complete in the store: answer
            # without taking a slot.
            self.metrics.submit_cache_hits += 1
            self._run_counter += 1
            job = Job(f"job-{key[:12]}-{self._run_counter}", spec, runs, loop)
            job.status = JOB_COMPLETE
            for run in runs:
                job.post("completed", seed=run.seed, attempt=0,
                         detail="store cache hit")
            job.post("job-complete", cached=True)
            self._remember(job)
            return job, DISPOSITION_CACHED

        if self.draining:
            raise ServiceBusyError(
                "service is draining and not accepting new campaigns",
                retry_after=RETRY_AFTER,
            )
        if self.collecting:
            raise ServiceBusyError(
                "a gc is running; fresh runs are admitted once it ends",
                retry_after=RETRY_AFTER,
            )
        if self.active_count >= self.slots + self.queue_limit:
            self.metrics.rejected_busy += 1
            raise ServiceBusyError(
                f"{self.active_count} job(s) in flight >= "
                f"{self.slots} slot(s) + {self.queue_limit} queued",
                retry_after=RETRY_AFTER,
            )
        self.metrics.submit_misses += 1
        self._run_counter += 1
        job = Job(f"job-{key[:12]}-{self._run_counter}", spec, runs, loop)
        job.post("job-queued", fresh=fresh, cached=len(runs) - fresh)
        self._remember(job)
        self._inflight[key] = job
        task = loop.create_task(self._run_job(key, job))
        self._tasks[job.id] = task
        return job, DISPOSITION_QUEUED

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(
        self, job: Job, loop: asyncio.AbstractEventLoop
    ) -> SupervisedRun:
        """Worker-thread body: the job's plans, one supervised fan-out."""
        return run_plans(
            job.spec.plans,
            store=self.store.root,
            workers=self.workers,
            supervisor=self.supervisor,
            on_event=partial(_forward_event, loop, job),
        )

    async def _run_job(self, key: str, job: Job) -> None:
        try:
            await self._finish_job(job)
        finally:
            # Whatever the outcome, the job may have rewritten its runs'
            # manifests: the next read of each loads it from the store.
            self.cache.drop_manifests(run.run_id for run in job.runs)
            self._inflight.pop(key, None)

    async def _finish_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        try:
            run = await loop.run_in_executor(
                self._executor, self._execute, job, loop
            )
        except Exception as exc:  # noqa: BLE001 - job turns failed, not lost
            job.status = JOB_FAILED
            job.post("job-failed", detail=f"{type(exc).__name__}: {exc}")
            return
        for run_record, result in zip(job.runs, run.results):
            if result is not None:
                run_record.status = "complete"
        for index, failure in zip(run.failed_indexes, run.failures):
            job.runs[index].status = "failed"
            job.runs[index].detail = failure.cause
        truncated = await loop.run_in_executor(
            self._admission, self._truncated_runs, job
        )
        for run_record in truncated:
            run_record.detail = "truncated"
        if run.ok:
            job.status = JOB_COMPLETE
            job.post("job-complete", cached=False,
                     retried=list(run.retried_labels))
        else:
            job.status = JOB_FAILED
            job.post("job-failed",
                     detail=f"{len(run.failures)} seed(s) failed permanently",
                     failed=list(run.failed_labels))

    def _truncated_runs(self, job: Job) -> List[SeedRun]:
        """The completed runs whose manifests say ``truncated``.

        Runs on the admission executor (manifest reads are file I/O) and
        returns the runs instead of marking them: the job's records are
        loop-owned, so the caller marks them back on the loop.
        """
        truncated: List[SeedRun] = []
        for run in job.runs:
            if run.status != "complete":
                continue
            try:
                if self.store.load_manifest(run.run_id).truncated:
                    truncated.append(run)
            except StoreError:
                continue
        return truncated

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting; wait for every in-flight job to finish."""
        self.draining = True
        tasks = [task for task in self._tasks.values() if not task.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._admission.shutdown(wait=True)
