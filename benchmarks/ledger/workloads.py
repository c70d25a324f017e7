"""The four workloads, driven through the public functions of ``repro``.

Every workload is fixed work sized from ``--seconds`` (``sized``): the
same seed and size give the same simulated statistics on every run, so a
run's *fingerprint* must repeat exactly and only host time may move.
The two protocol workloads are sized in *events*, not simulated seconds:
how many events a simulated hour holds swings +-20 % with the seed (the
departure count is Poisson), while a fixed event count costs every seed
about the same.  The program receives constructed config objects and
nothing else — no environment variable, no switch.

A workload object is used once::

    setup()    outside the timed region (counted in ``setup_s``)
    run()      the timed region (``run_s``); profiled in the traced pass
    collect()  fingerprint, output checks, counters — untimed
    close()    release what setup() opened
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import CampaignRunner
from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.netmodel.scenario import (
    LongitudinalConfig,
    LongitudinalScenario,
    ProtocolConfig,
    ProtocolScenario,
)
from repro.serve import Client
from repro.serve.metrics import percentile
from repro.store import RunStore
from repro.store.campaign import run_stored_campaign

from .catalog import OUT_DIR, REPO_ROOT, RUN_SECONDS
from . import probes

#: Paper figures the accuracy block sets the simulated values against
#: (reported beside the numbers, never gated).
PAPER_MEAN_SYNC_2020_PCT = 61.91
PAPER_ADDR_UNREACHABLE_PCT = 85.1


def sized(workload: str, seconds: float, smoke: bool) -> Dict[str, Any]:
    """The size of one run.

    The full sizes are the issue's configs cut to about ``RUN_SECONDS``
    of timed work each on the 2-core reference box (so that the driver's
    92 runs fit its cap with room to spare); ``--seconds`` scales the
    duration-like knob linearly from there.  ``--smoke`` is a fixed tiny
    size for the self-test.
    """
    k = seconds / RUN_SECONDS
    if workload == "gossip_scale":
        if smoke:
            return {"n_reachable": 100, "warmup": 15.0, "events": 50_000}
        return {"n_reachable": 600, "warmup": 15.0, "events": round(1_000_000 * k)}
    if workload == "sync_churn":
        if smoke:
            return {"n_reachable": 12, "events": 40_000}
        return {"n_reachable": 80, "events": round(600_000 * k)}
    if workload == "crawl_campaign":
        if smoke:
            return {"scale": 0.01, "snapshots": 4}
        return {"scale": 0.05, "snapshots": max(2, round(24 * k))}
    if workload == "serve_stored":
        if smoke:
            return {"scale": 0.005, "snapshots": 2, "resubmits": 10,
                    "cold_reads": 20, "warm_reads": 20}
        return {"scale": 0.02, "snapshots": max(2, round(5 * k)),
                "resubmits": 100, "cold_reads": 150, "warm_reads": 1000}
    raise KeyError(workload)


#: Simulated seconds no sized run reaches: the event cap always ends a
#: protocol run first (600 K events are about 1.3 simulated hours).
_LONG_ENOUGH = 48 * 3600.0


def _scheduler_counts(scheduler: Any) -> Dict[str, int]:
    return {
        "simnet.events.fired": scheduler.fired,
        "simnet.events.scheduled": scheduler.scheduled_total,
        "simnet.events.cancelled": scheduler.cancelled_total,
        "simnet.events.compactions": scheduler.compactions,
    }


def _digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=sorted).encode()
    ).hexdigest()[:16]


class Workload:
    """Common state; see the module docstring for the call order."""

    name = ""

    #: Another workload class to profile in this one's place, if any.
    traced_as: Optional[type] = None

    def __init__(
        self, seed: int, size: Dict[str, Any], tracer: Any, host: Any
    ) -> None:
        self.seed = seed
        self.size = size
        self.tracer = tracer
        self.host = host
        #: Exact simulated statistics; must repeat for one seed and size.
        self.fingerprint: Dict[str, Any] = {}
        #: check name -> passed.  Every check is one attempted operation.
        self.checks: Dict[str, bool] = {}
        #: Operations beyond the checks (requests sent, runs made).
        self.attempted = 0
        self.failed = 0
        #: End-to-end metrics only this workload reports.
        self.extra: Dict[str, float] = {}
        #: Always-on counters, by per-layer metric name.
        self.counts: Dict[str, float] = {}
        #: Simulated-vs-paper values (never gated).
        self.accuracy: Dict[str, Dict[str, float]] = {}

    def setup(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError

    def collect(self, run_s: float) -> None:
        raise NotImplementedError

    def census(self) -> Dict[str, float]:
        """Extra per-layer readings that need the finished workload
        alive (traced pass only)."""
        return {}

    @staticmethod
    def probes(smoke: bool) -> Dict[str, float]:
        """The direct probes of the layers this workload leans on."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# gossip_scale
# ----------------------------------------------------------------------
class GossipScale(Workload):
    """`bench_scale`'s config: build and warm-up are set-up, the timed
    region is ``sim.run_for`` until the event cap."""

    name = "gossip_scale"

    def setup(self) -> None:
        config = ProtocolConfig(
            seed=self.seed,
            n_reachable=self.size["n_reachable"],
            fidelity="hybrid",
            churn_per_10min=6.0,
            pre_mined_blocks=10,
        )
        with self.tracer.span("netmodel.build"):
            self.scenario = ProtocolScenario(config)
        with self.tracer.span("netmodel.warmup"):
            self.scenario.start(warmup=self.size["warmup"])
        self._before = _scheduler_counts(self.scenario.sim.scheduler)

    def run(self) -> None:
        with self.tracer.span("simnet.run"):
            self.result = self.scenario.sim.run_for(
                _LONG_ENOUGH, max_events=self.size["events"]
            )

    def collect(self, run_s: float) -> None:
        sim = self.scenario.sim
        after = _scheduler_counts(sim.scheduler)
        self.counts = {k: after[k] - self._before[k] for k in after}
        self.attempted = 1
        self.fingerprint = {
            "events_fired": self.counts["simnet.events.fired"],
            "sim_clock": sim.now,
            "sync_fraction": self.scenario.sync_fraction(),
            "running_full_nodes": len(self.scenario.running_nodes()),
            "tier_census": self.scenario.tier_census(),
        }
        self.checks = {
            "stopped_by_event_cap": self.result.truncated,
            "fired_equals_cap": int(self.result) == self.counts["simnet.events.fired"]
            == self.size["events"],
            "light_cloud_larger_than_reachable": len(self.scenario.light_cloud)
            > self.size["n_reachable"],
        }
        self.extra = {"events_per_s": self.counts["simnet.events.fired"] / run_s}

    def census(self) -> Dict[str, float]:
        return {
            "store.snapshot_failed": probes.snapshot_failed(self.scenario.sim)
        }

    @staticmethod
    def probes(smoke: bool) -> Dict[str, float]:
        return {
            **probes.events_probes(smoke),
            **probes.addrman_probes(smoke),
            **probes.node_memory_probes(smoke),
        }


# ----------------------------------------------------------------------
# sync_churn
# ----------------------------------------------------------------------
class SyncChurn(Workload):
    """Fig. 1's "2020" arm through ``run_sync_campaign``; build and the
    900 s warm-up are inside the timed region, as users pay them.  The
    event cap, not the duration, ends the measurement run."""

    name = "sync_churn"

    def run(self) -> None:
        self.result = run_sync_campaign(
            SyncCampaignConfig(
                n_reachable=self.size["n_reachable"],
                churn_per_10min=14.0,
                duration=_LONG_ENOUGH,
                max_events=self.size["events"],
                seed=self.seed,
            )
        )

    def collect(self, run_s: float) -> None:
        result = self.result
        self.attempted = 1
        self.fingerprint = {
            "mean_sync_pct": result.mean,
            "sync_samples": len(result.sync_samples),
            "departures": result.total_departures,
        }
        self.checks = {
            "stopped_by_event_cap": result.truncated,
            "at_least_two_samples": len(result.sync_samples) >= 2,
            "sync_within_0_100": all(
                0.0 <= s <= 100.0 for s in result.sync_samples
            ),
            "churn_happened": result.total_departures > 0,
        }
        self.accuracy = {
            "mean_sync_pct": {
                "simulated": result.mean, "paper": PAPER_MEAN_SYNC_2020_PCT,
            }
        }


# ----------------------------------------------------------------------
# crawl_campaign
# ----------------------------------------------------------------------
class CrawlCampaign(Workload):
    """The unstored longitudinal crawl: scenario build plus
    ``CampaignRunner.run`` are the timed region."""

    name = "crawl_campaign"

    def run(self) -> None:
        config = LongitudinalConfig(
            scale=self.size["scale"],
            snapshots=self.size["snapshots"],
            flooder_count=73,
            fidelity="hybrid",
            seed=self.seed,
        )
        with self.tracer.span("netmodel.build"):
            self.scenario = LongitudinalScenario(config)
        with self.tracer.span("core.campaign"):
            self.result = CampaignRunner(self.scenario).run()

    def collect(self, run_s: float) -> None:
        result, sim = self.result, self.scenario.sim
        self.counts = _scheduler_counts(sim.scheduler)
        self.attempted = 1
        self.failed = int(result.truncated)
        self.fingerprint = {
            "events_fired": self.counts["simnet.events.fired"],
            "sim_clock": sim.now,
            "snapshots": len(result.snapshots),
            "cumulative_reachable": len(result.cumulative_reachable),
            "cumulative_unreachable": len(result.cumulative_unreachable),
            "cumulative_responsive": len(result.cumulative_responsive),
            "series_digest": _digest(
                [result.fig4_series(), result.fig5_series()]
            ),
        }
        self.checks = {
            "all_snapshots_ran": len(result.snapshots) == self.size["snapshots"],
            "responsive_within_unreachable": result.cumulative_responsive
            <= result.cumulative_unreachable,
            "reachable_found": len(result.cumulative_reachable) > 0,
        }
        self.extra = {"events_per_s": self.counts["simnet.events.fired"] / run_s}
        self.accuracy = {
            "addr_unreachable_pct": {
                "simulated": 100.0 * (1.0 - result.mean_addr_reachable_share()),
                "paper": PAPER_ADDR_UNREACHABLE_PCT,
            }
        }


# ----------------------------------------------------------------------
# serve_stored
# ----------------------------------------------------------------------
def _submission(seed: int, size: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "scenario": {
            "scale": size["scale"],
            "fidelity": "hybrid",
            "flooder_count": 73,
            "seed": seed,
        },
        "snapshots": size["snapshots"],
    }


class ServeStored(Workload):
    """One closed-loop client, one keep-alive connection, one service
    process started as ``python -m repro.cli serve``.

    The whole process tree is pinned to one CPU: the host-speed sampler
    runs in this client and can only see the core it is on, so the
    service and its per-seed worker have to be on that core too.
    """

    name = "serve_stored"
    service: Optional[subprocess.Popen] = None

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        self.log = open(os.path.join(self.tmp, "service.log"), "wb")
        with self.tracer.span("serve.start"):
            self.service = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--store", os.path.join(self.tmp, "store"), "--port", "0"],
                stdout=subprocess.PIPE, stderr=self.log, env=env,
                cwd=self.tmp, start_new_session=True,
            )
            # "serving <root> on http://host:port (...)" is the CLI's
            # ready line; the port is ephemeral so runs cannot collide.
            announce = self.service.stdout.readline().decode()
            if " on http://" not in announce:
                raise RuntimeError(f"service did not start: {announce!r}")
            self.port = int(announce.split(" on http://")[1].split()[0].rsplit(":", 1)[1])
            asyncio.run(self._wait_healthy())

    async def _wait_healthy(self) -> None:
        async with Client("127.0.0.1", self.port) as client:
            response = await client.request("GET", "/v1/healthz")
            if response.status != 200:
                raise RuntimeError(f"healthz answered {response.status}")

    def run(self) -> None:
        asyncio.run(self._client())

    async def _get(self, client: Client, method: str, path: str,
                   body: Any = None, ok: Tuple[int, ...] = (200,)) -> Any:
        response = await client.request(method, path, body=body)
        self.attempted += 1
        if response.status not in ok:
            self.failed += 1
        return response

    async def _timed(self, client: Client, method: str, path: str,
                     count: int, body: Any = None) -> Tuple[List[float], Any]:
        """``count`` sequential requests; latencies in quiet-host ms.
        The host is sampled between requests, never inside one."""
        samples: List[float] = []
        response = None
        self.host.sample()
        begin = sampled = time.perf_counter()
        for _ in range(count):
            t0 = time.perf_counter()
            if t0 - sampled > self.host.period:
                self.host.sample()
                sampled = t0 = time.perf_counter()
            response = await self._get(client, method, path, body)
            samples.append((time.perf_counter() - t0) * 1000.0)
        end = time.perf_counter()
        self.host.sample()
        wall, quiet = self.host.interval(begin, end)
        return [ms * quiet / wall for ms in samples], response

    async def _client(self) -> None:
        size, span = self.size, self.tracer.span
        submission = _submission(self.seed, size)
        async with Client("127.0.0.1", self.port) as client:
            # (a) submit -> follow SSE to the terminal event -> result
            with span("serve.submit"):
                t0 = time.perf_counter()
                accepted = await self._get(
                    client, "POST", "/v1/campaigns", submission, ok=(202,)
                )
                job = accepted.json()
                run_id = job["runs"][0]["run_id"]
                first_event_ms = None
                last: Dict[str, Any] = {}
                async for last in client.stream_events(job["events_url"]):
                    if first_event_ms is None:
                        first_event_ms = (time.perf_counter() - t0) * 1000.0
                result_path = f"/v1/runs/{run_id}/result"
                csv_path = f"/v1/runs/{run_id}/export/campaign_series.csv"
                served = await self._get(client, "GET", result_path)
                t1 = time.perf_counter()
            # Periodic sampling would land inside individual requests;
            # from here on each batch is bracketed by two samples instead.
            self.host.stop()
            submit_to_result_s = self.host.interval(t0, t1)[1]
            # (b) identical resubmits: answered from the index
            with span("serve.resubmit"):
                resubmit_ms, again = await self._timed(
                    client, "POST", "/v1/campaigns", size["resubmits"], submission
                )
            # (c) read cache off: every read walks the store
            with span("serve.read_cold"):
                await self._get(client, "POST", "/v1/admin/cache", {"enabled": False})
                cold_ms, cold_result = await self._timed(
                    client, "GET", result_path, size["cold_reads"])
                cold_csv_ms, cold_csv = await self._timed(
                    client, "GET", csv_path, size["cold_reads"])
            # (d) cache on and pre-warmed: memory hits behind the same HTTP
            with span("serve.read_warm"):
                await self._get(client, "POST", "/v1/admin/cache", {"enabled": True})
                await self._get(client, "GET", result_path)
                await self._get(client, "GET", csv_path)
                warm_ms, warm_result = await self._timed(
                    client, "GET", result_path, size["warm_reads"])
                warm_csv_ms, warm_csv = await self._timed(
                    client, "GET", csv_path, size["warm_reads"])
            metrics = (await self._get(client, "GET", "/v1/metrics")).json()

        summary = served.json() if served.status == 200 else {}
        self.fingerprint = {
            "result_digest": summary.get("result_digest"),
            "snapshots": summary.get("snapshots"),
            "cumulative_unreachable": summary.get("cumulative_unreachable"),
            "result_body_sha": hashlib.sha256(cold_result.body).hexdigest()[:16],
            "csv_sha": hashlib.sha256(cold_csv.body).hexdigest()[:16],
        }
        self.checks = {
            "job_completed": last.get("kind") == "job-complete",
            "all_snapshots_stored": summary.get("snapshots") == size["snapshots"],
            "not_truncated": summary.get("truncated") is False,
            "resubmit_cached": again.status == 200
            and again.json().get("disposition") == "cached",
            "csv_non_empty": len(cold_csv.body) > 0,
            "csv_cold_equals_warm": cold_csv.body == warm_csv.body,
            "result_cold_equals_warm": served.body == cold_result.body
            == warm_result.body,
        }
        cold, warm = cold_ms + cold_csv_ms, warm_ms + warm_csv_ms
        self.extra = {
            "submit_to_result_s": submit_to_result_s,
            "cached_resubmit_p50_ms": statistics.median(resubmit_ms),
            "read_cold_p50_ms": statistics.median(cold),
            "read_warm_p50_ms": statistics.median(warm),
        }
        routes = metrics["routes"].values()
        self.counts = {
            "serve.requests": sum(r["count"] for r in routes),
            "serve.failed": sum(r["errors"] for r in routes) + self.failed,
            "serve.cache_hit_ratio": metrics["read_cache"]["hit_ratio"],
            "serve.first_event_ms": first_event_ms or 0.0,
            # Tails with at least ten samples beyond them.
            "serve.read_cold_p95_ms": percentile(cold, 0.95),
            "serve.read_warm_p99_ms": percentile(warm, 0.99),
        }

    def collect(self, run_s: float) -> None:
        store = RunStore(os.path.join(self.tmp, "store"))
        self.counts["store.blobs_written"] = len(store.blobs)
        self.counts["store.bytes_written"] = store.blobs.total_bytes()

    @staticmethod
    def probes(smoke: bool) -> Dict[str, float]:
        return probes.store_probes(OUT_DIR, smoke)

    def close(self) -> None:
        service = self.service
        if service is not None:
            service.send_signal(signal.SIGTERM)
            try:
                service.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
            # The service's workers share its session; make sure none
            # outlives the run even if the drain was cut short.
            try:
                os.killpg(service.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            service.wait()
            service.stdout.close()
            self.log.close()
        shutil.rmtree(self.tmp, ignore_errors=True)


class StoredInProcess(Workload):
    """`serve_stored`'s campaign through ``run_stored_campaign`` on a
    fresh store, then one cached re-fetch.  Not a workload of its own:
    the service runs in another process where the harness cannot
    profile it, so `serve_stored`'s layer profile, its digest check and
    ``serve.submit_overhead_s`` are taken from this in-process twin."""

    name = "serve_stored"

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        scenario = _submission(self.seed, self.size)["scenario"]
        self.config = LongitudinalConfig(**scenario)

    def _fetch(self) -> Any:
        return run_stored_campaign(
            self.tmp, self.config, snapshots=self.size["snapshots"]
        )

    def run(self) -> None:
        with self.tracer.span("store.run_stored_campaign"):
            t0 = time.perf_counter()
            self.stored = self._fetch()
            self.stored_span = (t0, time.perf_counter())
        with self.tracer.span("store.cached_fetch"):
            t0 = time.perf_counter()
            self.again = self._fetch()
            self.cached_fetch_ms = (time.perf_counter() - t0) * 1000.0

    def collect(self, run_s: float) -> None:
        store = RunStore(self.tmp)
        self.attempted = 2
        self.failed = int(self.stored.result.truncated)
        self.fingerprint = {"result_digest": self.stored.manifest.result_digest}
        self.checks = {
            "first_run_simulated": not self.stored.cached,
            "second_run_cached": self.again.cached,
        }
        self.counts = {
            "store.cached_fetch_ms": self.cached_fetch_ms,
            "store.stored_run_s": self.host.interval(*self.stored_span)[1],
            "store.blobs_written": len(store.blobs),
            "store.bytes_written": store.blobs.total_bytes(),
        }

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


ServeStored.traced_as = StoredInProcess

BY_NAME = {
    cls.name: cls for cls in (GossipScale, SyncChurn, CrawlCampaign, ServeStored)
}
