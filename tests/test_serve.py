"""Tests for the campaign service (repro.serve).

Each test boots a real service on an ephemeral port and talks to it
over the wire through :class:`repro.serve.client.Client` — the HTTP
layer, routing, streaming, and error mapping are all exercised for
real, not mocked.  Campaigns use the tiny test scenario (scale=0.002,
2 snapshots, ~1s fresh) so the suite stays fast on one core.
"""

import asyncio
import hashlib
import math
import re
import threading

import pytest

from repro.serve import (
    CampaignService, Client, ReadCache, ServiceConfig, http, parse_submission,
)
from repro.serve.app import REFUSED_ROUTE, UNMATCHED_ROUTE
from repro.serve.jobs import RETRY_AFTER
from repro.store import CampaignPlan, RunManifest, RunStore

#: The tiny campaign used throughout; fresh ~1s, cached ~ms.
TINY = {"scenario": {"scale": 0.002, "campaign_days": 1.0}, "snapshots": 2}


def tiny(**overrides):
    spec = {"scenario": dict(TINY["scenario"]), "snapshots": 2}
    spec.update(overrides)
    return spec


def with_service(tmp_path, body, **config_kwargs):
    """Boot a service on an ephemeral port, run ``body(service, client)``."""

    async def main():
        config = ServiceConfig(
            store_root=str(tmp_path / "store"),
            port=0,
            **config_kwargs,
        )
        service = CampaignService(config)
        await service.start()
        try:
            async with Client("127.0.0.1", service.port) as client:
                return await body(service, client)
        finally:
            await service.shutdown()

    return asyncio.run(main())


async def stream_to_end(client, job_id, after=0):
    events = []
    async for ev in client.stream_events(
        f"/v1/jobs/{job_id}/events?after={after}"
    ):
        events.append(ev)
    return events


class TestSubmitStreamFetch:
    def test_full_round_trip(self, tmp_path):
        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r.status == 202
            payload = r.json()
            assert payload["disposition"] == "queued"
            job_id = payload["id"]

            events = await stream_to_end(client, job_id)
            kinds = [ev["kind"] for ev in events]
            assert kinds[0] == "job-queued"
            assert kinds[-1] == "job-complete"
            # Per-seed supervisor events came through in grammar order.
            assert kinds.index("scheduled") < kinds.index("started")
            assert kinds.index("started") < kinds.index("completed")
            # Sequence numbers are contiguous from 0 (seq == how many
            # events precede it, matching the ?after= cursor).
            assert [ev["seq"] for ev in events] == list(range(len(events)))

            r = await client.request("GET", f"/v1/jobs/{job_id}")
            desc = r.json()
            assert desc["status"] == "complete"
            (run,) = desc["runs"]
            assert run["status"] == "complete"

            r = await client.request("GET", f"/v1/runs/{run['run_id']}/result")
            assert r.status == 200
            result = r.json()
            assert result["status"] == "complete"
            assert result["snapshots"] == 2
            assert len(result["fig4"]["per_snapshot"]) == 2

            r = await client.request(
                "GET",
                f"/v1/runs/{run['run_id']}/export/campaign_series.csv",
            )
            assert r.status == 200
            assert r.body.startswith(b"snapshot,time_s,")
            return None

        with_service(tmp_path, body)

    def test_event_replay_from_offset(self, tmp_path):
        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            job_id = r.json()["id"]
            full = await stream_to_end(client, job_id)
            # Replay after the first two events: same tail, same seqs.
            tail = await stream_to_end(client, job_id, after=2)
            assert [ev["seq"] for ev in tail] == [
                ev["seq"] for ev in full[2:]
            ]
            return None

        with_service(tmp_path, body)

    @pytest.mark.parametrize("after", [-2, -1000])
    def test_negative_replay_offset_is_rejected(self, tmp_path, after):
        """A negative cursor used to index the log from its end (``-2``
        replayed the last two events, then all of them) or past it
        (``-1000``: IndexError after the 200 header was out)."""

        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            job_id = r.json()["id"]
            full = await stream_to_end(client, job_id)
            r = await client.request(
                "GET", f"/v1/jobs/{job_id}/events?after={after}"
            )
            assert r.status == 400
            assert "after" in r.json()["error"]
            assert service.metrics.internal_errors == 0
            # The refusal left nothing behind: a fresh connection gets
            # the whole log once, in order.
            again = await stream_to_end(client, job_id)
            assert [ev["seq"] for ev in again] == list(range(len(full)))
            return None

        with_service(tmp_path, body)

    def test_events_of_unknown_job_is_404(self, tmp_path):
        async def body(service, client):
            r = await client.request("GET", "/v1/jobs/nope/events")
            assert r.status == 404
            assert "no such job" in r.json()["error"]
            assert service.metrics.internal_errors == 0
            return None

        with_service(tmp_path, body)

    def test_runs_and_manifest_endpoints(self, tmp_path):
        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            job_id = r.json()["id"]
            await stream_to_end(client, job_id)
            r = await client.request("GET", "/v1/runs")
            index = r.json()["runs"]
            assert len(index) == 1
            (run_id,) = index
            r = await client.request("GET", f"/v1/runs/{run_id}")
            manifest = r.json()
            assert manifest["run_id"] == run_id
            assert manifest["status"] == "complete"
            # The raw result blob is fetchable by digest.
            r = await client.request(
                "GET", f"/v1/blobs/{manifest['result_digest']}"
            )
            assert r.status == 200
            assert len(r.body) > 0
            return None

        with_service(tmp_path, body)


class TestDeduplication:
    def test_two_identical_submissions_one_simulation(self, tmp_path):
        """The acceptance path: same config twice -> ONE simulation run,
        TWO successful result fetches."""

        async def body(service, client):
            r1 = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r1.status == 202
            assert r1.json()["disposition"] == "queued"
            await stream_to_end(client, r1.json()["id"])

            r2 = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r2.status == 200
            assert r2.json()["disposition"] == "cached"
            assert r2.json()["status"] == "complete"

            # Both jobs point at the same run; fetch its result twice.
            run_ids = {
                run["run_id"]
                for payload in (r1.json(), r2.json())
                for run in payload["runs"]
            }
            assert len(run_ids) == 1
            (run_id,) = run_ids
            for _ in range(2):
                r = await client.request("GET", f"/v1/runs/{run_id}/result")
                assert r.status == 200

            m = (await client.request("GET", "/v1/metrics")).json()
            assert m["submissions"]["cache_hits"] == 1
            assert m["submissions"]["misses"] == 1
            assert m["submissions"]["hit_ratio"] == 0.5
            return None

        with_service(tmp_path, body)
        # Exactly one manifest in the store: one simulation ever ran.
        store = RunStore(str(tmp_path / "store"))
        assert len(store.manifests()) == 1

    def test_identical_inflight_submission_joins(self, tmp_path):
        async def body(service, client):
            r1 = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r1.json()["disposition"] == "queued"
            # Same config while the first is still simulating: join it.
            r2 = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r2.status == 200
            assert r2.json()["disposition"] == "joined"
            assert r2.json()["id"] == r1.json()["id"]
            await stream_to_end(client, r1.json()["id"])
            return None

        with_service(tmp_path, body)
        store = RunStore(str(tmp_path / "store"))
        assert len(store.manifests()) == 1


class TestBackpressure:
    def test_busy_service_returns_429_with_retry_after(self, tmp_path):
        async def body(service, client):
            r1 = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r1.status == 202
            # Different config while the only slot is busy and the
            # queue is zero-length: explicit backpressure.
            other = tiny(seeds=[99])
            r2 = await client.request("POST", "/v1/campaigns", body=other)
            assert r2.status == 429
            assert r2.headers["retry-after"] == str(math.ceil(RETRY_AFTER))
            await stream_to_end(client, r1.json()["id"])
            m = (await client.request("GET", "/v1/metrics")).json()
            assert m["submissions"]["rejected_busy"] == 1
            return None

        with_service(tmp_path, body, slots=1, queue_limit=0)


def in_scenario(**block):
    """TINY with ``block`` added to its scenario."""
    return {"scenario": dict(TINY["scenario"], **block), "snapshots": 2}


def _fault(**spec):
    return in_scenario(faults={"faults": [dict({"kind": "drop"}, **spec)]})


def _attacker(**spec):
    return in_scenario(
        attack={"attackers": [dict({"kind": "addr_flooder"}, **spec)]}
    )


#: ``(body, the path the refusal must name)``: every value the decoder
#: refuses, once per kind of mistake and once per nesting level.
REFUSALS = {
    "bool-count": (_attacker(count=True), "scenario.attack.attackers[0].count"),
    "string-probability": (
        _fault(probability="0.5"), "scenario.faults.faults[0].probability"
    ),
    "string-asns": (
        _fault(scope={"asns": "12"}), "scenario.faults.faults[0].scope.asns"
    ),
    "object-attackers": (
        in_scenario(attack={"attackers": {}}), "scenario.attack.attackers"
    ),
    "null-fault-scope": (_fault(scope=None), "scenario.faults.faults[0].scope"),
    "unknown-top": (dict(TINY, bogus=1), "Submission"),
    "unknown-scenario": (in_scenario(bogus=1), "scenario"),
    "unknown-campaign": (dict(TINY, campaign={"bogus": 1}), "campaign"),
    "unknown-campaign-probe": (
        dict(TINY, campaign={"probe": {"bogus": 1}}), "campaign.probe"
    ),
    "unknown-churn": (in_scenario(churn={"bogus": 1}), "scenario.churn"),
    "unknown-faults": (
        in_scenario(faults={"faults": [], "bogus": 1}), "scenario.faults"
    ),
    "unknown-fault": (_fault(bogus=1), "scenario.faults.faults[0]"),
    "unknown-fault-scope": (
        _fault(scope={"bogus": 1}), "scenario.faults.faults[0].scope"
    ),
    "unknown-attack": (
        in_scenario(attack={"attackers": [], "bogus": 1}), "scenario.attack"
    ),
    "unknown-attacker": (_attacker(bogus=1), "scenario.attack.attackers[0]"),
    "unknown-attacker-scope": (
        _attacker(scope={"bogus": 1}), "scenario.attack.attackers[0].scope"
    ),
    "unknown-policies": (
        in_scenario(policies={"bogus": 1}), "scenario.policies"
    ),
    # An empty plan or policy is spelled empty, never null.
    "null-faults": (in_scenario(faults=None), "scenario.faults"),
    "null-attack": (in_scenario(attack=None), "scenario.attack"),
    "null-policies": (in_scenario(policies=None), "scenario.policies"),
    # "No flooders" is spelled ``flooder_count: 0`` and nothing else.
    "flooders-switch": (
        in_scenario(flooders=False), "['flooders'] for scenario"
    ),
    "negative-flooder-count": (in_scenario(flooder_count=-1), "flooder_count"),
    # Flood pools have one volume rule, ``FloodVolumeModel()``; the
    # knob that once chose another is gone.
    "flood-volume-model": (
        in_scenario(flood_volume_model={"median": 1500.0}),
        "['flood_volume_model'] for scenario",
    ),
    "flooder-count-beside-attack": (
        in_scenario(
            flooder_count=5, attack={"attackers": [{"kind": "addr_flooder"}]}
        ),
        "flooder_count",
    ),
    # A share outside [0, 1] used to pass here and fail in the worker.
    "rst-fraction-out-of-range": (in_scenario(rst_fraction=2.0), "rst_fraction"),
}


class TestValidation:
    @pytest.mark.parametrize(
        "body, name",
        [
            (in_scenario(churn={"retire_prob": 0}), "retire_prob"),
            (in_scenario(campaign_days=0), "campaign_days"),
            (tiny(campaign={"getaddr": {"concurrency": 0}}), "concurrency"),
            (tiny(campaign={"probe": {"concurrency": -1}}), "concurrency"),
            (in_scenario(seed_views={}), "unknown field(s) ['seed_views']"),
            (
                in_scenario(table_reachable_sample=150),
                "unknown field(s) ['table_reachable_sample']",
            ),
            (
                in_scenario(churn={"campaign_days": 1.0}),
                "unknown field(s) ['campaign_days']",
            ),
            (
                tiny(campaign={"detect_min_addresses": 1000}),
                "unknown field(s) ['detect_min_addresses']",
            ),
        ],
        ids=[
            "retire-prob-0", "campaign-days-0", "getaddr-concurrency-0",
            "probe-concurrency-negative", "retired-seed-views",
            "retired-table-sample", "retired-churn-horizon",
            "retired-detect-threshold",
        ],
    )
    def test_what_the_worker_would_refuse_is_400(self, tmp_path, body, name):
        """Refused at submit, by name, not accepted and failed in the
        worker; a retired field is an unknown one."""

        async def run(service, client):
            r = await client.request("POST", "/v1/campaigns", body=body)
            assert r.status == 400, r.json()
            assert name in r.json()["error"]
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, run)
        assert RunStore(tmp_path / "store").manifests() == []

    def test_unknown_scenario_field_is_400(self, tmp_path):
        async def body(service, client):
            bad = {"scenario": {"scale": 0.002, "sclae": 1}}
            r = await client.request("POST", "/v1/campaigns", body=bad)
            assert r.status == 400
            assert "sclae" in r.json()["error"]
            return None

        with_service(tmp_path, body)

    def test_light_tier_variant_under_full_fidelity_is_400(self, tmp_path):
        """``fidelity="full"`` is no model any more: refused by name at
        submit time; ``unreachable-relay``, which acts only through the
        light cloud, is admitted under the default."""

        async def body(service, client):
            spec = tiny()
            spec["scenario"]["policies"] = {"variant": "unreachable-relay"}
            spec["scenario"]["fidelity"] = "full"
            r = await client.request("POST", "/v1/campaigns", body=spec)
            assert r.status == 400
            error = r.json()["error"]
            assert "fidelity must be 'hybrid'" in error and "'full'" in error
            assert service.metrics.internal_errors == 0
            assert RunStore(tmp_path / "store").manifests() == []
            del spec["scenario"]["fidelity"]
            r = await client.request("POST", "/v1/campaigns", body=spec)
            assert r.status == 202, r.json()
            events = await stream_to_end(client, r.json()["id"])
            assert events[-1]["kind"] == "job-complete"
            return None

        with_service(tmp_path, body)

    def test_snapshots_beyond_the_scenario_are_400(self, tmp_path):
        """More snapshots than the scenario schedules used to be admitted
        and charged, then die at the first missing one — leaving a
        manifest stuck at ``running`` that every resume failed on."""

        async def body(service, client):
            bad = tiny(snapshots=3)
            bad["scenario"]["snapshots"] = 2
            r = await client.request("POST", "/v1/campaigns", body=bad)
            assert r.status == 400
            assert "snapshots" in r.json()["error"]
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, body)
        assert RunStore(tmp_path / "store").manifests() == []

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"scenario": {"scale": "0.1"}}, "scenario.scale"),
            ({"scenario": {"scale": None}}, "scenario.scale"),
            ({"scenario": {"scale": 0.002, "snapshots": True}},
             "scenario.snapshots"),
            ({"scenario": {"scale": 0.002, "seed": 1.5}}, "scenario.seed"),
            ({"scenario": {"scale": 0.002, "flooder_count": True}},
             "scenario.flooder_count"),
            ({"scenario": {"scale": 0.002}, "campaign": {"probe_enabled": "no"}},
             "campaign.probe_enabled"),
        ],
    )
    def test_mistyped_scalar_is_400_naming_the_field(
        self, tmp_path, body, field
    ):
        """A scalar of the wrong JSON type used to be a 500 (``TypeError``
        out of ``validate``) or, for ``true`` as an integer, a run keyed
        apart from ``1``."""

        async def run(service, client):
            r = await client.request(
                "POST", "/v1/campaigns", body=dict(body, snapshots=1)
            )
            assert r.status == 400, r.json()
            assert field in r.json()["error"]
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, run)
        assert RunStore(tmp_path / "store").manifests() == []

    def test_refusals_are_400_naming_the_path(self, tmp_path):
        """``REFUSALS`` over the wire: each one a 400 that names its
        path, none a 500, nothing stored."""

        async def run(service, client):
            for name, (body, path) in REFUSALS.items():
                r = await client.request("POST", "/v1/campaigns", body=body)
                assert r.status == 400, (name, r.json())
                assert path in r.json()["error"], name
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, run)
        assert RunStore(tmp_path / "store").manifests() == []

    def test_malformed_fault_plan_is_400_not_500(self, tmp_path):
        """A fault plan that decodes but fails its own ``validate()``
        raised ``FaultInjectionError``, which the service did not map:
        a 500 for a client's typo."""

        async def run(service, client):
            for spec in (
                {"kind": "bogus"},
                {"kind": "drop", "probability": 0.1, "scope": {"asns": [-1]}},
            ):
                body = in_scenario(faults={"faults": [spec]})
                r = await client.request("POST", "/v1/campaigns", body=body)
                assert r.status == 400, r.json()
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, run)
        assert RunStore(tmp_path / "store").manifests() == []

    def test_int_is_a_number_and_null_fills_an_optional(self):
        spec = parse_submission(
            {"scenario": {"scale": 1, "flooder_count": None}}
        )
        assert spec.plans[0].scenario_config.scale == 1

    def test_malformed_json_is_400(self, tmp_path):
        async def body(service, client):
            r = await client.request(
                "POST", "/v1/campaigns", body=b"{not json"
            )
            assert r.status == 400
            return None

        with_service(tmp_path, body)

    def test_bad_seeds_are_400(self, tmp_path):
        async def body(service, client):
            for seeds in ([], [1, 1], ["x"], [True]):
                r = await client.request(
                    "POST", "/v1/campaigns", body=tiny(seeds=seeds)
                )
                assert r.status == 400, seeds
            return None

        with_service(tmp_path, body)

    def test_unknown_routes_and_ids_are_404(self, tmp_path):
        async def body(service, client):
            for path in (
                "/v1/nope",
                "/v1/jobs/job-missing",
                "/v1/runs/campaign-missing",
                "/v1/runs/campaign-missing/result",
            ):
                r = await client.request("GET", path)
                assert r.status == 404, path
            with pytest.raises(ConnectionError):
                await stream_to_end(client, "job-missing")
            return None

        with_service(tmp_path, body)

    def test_unknown_routes_share_one_metrics_label(self, tmp_path):
        """A path a client invents adds no route to the metrics."""
        async def body(service, client):
            for index in range(3):
                r = await client.request("GET", f"/nope/{index}")
                assert r.status == 404
            metrics = (await client.request("GET", "/v1/metrics")).json()
            # Nothing else was answered before this read of the metrics.
            assert list(metrics["routes"]) == [UNMATCHED_ROUTE]
            assert metrics["routes"][UNMATCHED_ROUTE]["count"] == 3
            return None

        with_service(tmp_path, body)


class TestRetiredCheckpointFormat:
    def test_format_1_result_is_a_4xx_with_the_reason(self, tmp_path):
        """A run a format-1 build stored stays listed; reading its result
        fails once, as a client error that names both formats — not a
        500, and not a cache entry that hides the reason next time."""
        from repro.store import RunManifest

        from .reference_pickler import format_1_blob

        store = RunStore(tmp_path / "store")
        old = RunManifest(
            run_id="campaign-0123456789ab", key="0123456789ab" + "c" * 52,
            kind="campaign", seed=13, snapshots_total=2,
            config={"scenario": {}, "campaign": {}}, status="complete",
            result_digest=store.put_blob(
                format_1_blob("a result", kind="campaign-result")
            ),
        )
        store.save_manifest(old)

        async def body(service, client):
            r = await client.request("GET", "/v1/runs")
            assert list(r.json()["runs"]) == [old.run_id]
            r = await client.request("GET", f"/v1/runs/{old.run_id}")
            assert r.status == 200
            for _ in range(2):
                for tail in ("result", "export/campaign_series.csv"):
                    r = await client.request(
                        "GET", f"/v1/runs/{old.run_id}/{tail}"
                    )
                    assert 400 <= r.status < 500, (tail, r.status)
                    message = r.json()["error"]
                    assert "format 1" in message and "format 2" in message
            assert service.metrics.internal_errors == 0
            # The same experiment submitted now is a fresh run, not a
            # "cached" hit on the unreadable blob.
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r.json()["disposition"] == "queued"
            await stream_to_end(client, r.json()["id"])
            return None

        with_service(tmp_path, body)


def _refusal(raw):
    """The status ``read_request`` refuses ``raw`` with (None: accepted)."""

    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        try:
            await http.read_request(reader)
        except http.HttpError as exc:
            return exc.status
        return None

    return asyncio.run(parse())


def _post(*headers, body=b""):
    head = "".join(f"{line}\r\n" for line in headers)
    return f"POST /v1/campaigns HTTP/1.1\r\n{head}\r\n".encode() + body


async def _raw_exchange(port, raw):
    """Send ``raw`` and read until the service closes the connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=10.0)
    finally:
        writer.close()


class TestHttpRefusals:
    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GET //[x/ HTTP/1.1\r\n\r\n", 400),
            (_post("Content-Length: 1_0", body=b"0123456789"), 400),
            (_post("Content-Length: +5", body=b"01234"), 400),
            (_post("Content-Length: 3", "Content-Length: 4", body=b"0123"), 400),
            (b"GET /" + b"a" * http.MAX_REQUEST_LINE + b" HTTP/1.1\r\n\r\n", 400),
            (_post(*[f"X-H{i}: v" for i in range(http.MAX_HEADER_COUNT + 1)]), 400),
            (_post("Transfer-Encoding: chunked", body=b"0\r\n\r\n"), 501),
            (_post(f"Content-Length: {http.MAX_BODY_BYTES + 1}"), 413),
            (_post("Content-Length: 10", body=b"abc"), 400),
            (b"GET / HTTP/2.0\r\n\r\n", 400),
        ],
        ids=[
            "unparseable-target", "underscore-length", "signed-length",
            "conflicting-lengths", "long-request-line", "too-many-headers",
            "chunked-body", "body-too-large", "short-body", "bad-version",
        ],
    )
    def test_read_request_refusals(self, raw, status):
        assert _refusal(raw) == status

    def test_unparseable_target_is_a_400_over_the_wire(self, tmp_path):
        async def body(service, client):
            reply = await _raw_exchange(
                service.port, b"GET //[x/ HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            assert reply.startswith(b"HTTP/1.1 400 ")
            # The service is still up for everyone else.
            r = await client.request("GET", "/v1/healthz")
            assert r.status == 200
            return None

        with_service(tmp_path, body)

    def test_refused_requests_reach_the_metrics(self, tmp_path):
        async def body(service, client):
            for raw in (
                b"GET //[x/ HTTP/1.1\r\nHost: x\r\n\r\n",
                _post(f"Content-Length: {http.MAX_BODY_BYTES + 1}"),
            ):
                await _raw_exchange(service.port, raw)
            metrics = (await client.request("GET", "/v1/metrics")).json()
            # Nothing else was answered before this read of the metrics.
            assert list(metrics["routes"]) == [REFUSED_ROUTE]
            refused = metrics["routes"][REFUSED_ROUTE]
            assert refused["count"] == 2
            assert refused["errors"] == 0
            assert refused["bytes_out"] > 0
            return None

        with_service(tmp_path, body)

    @pytest.mark.parametrize(
        "raw",
        [b"GET /v1/hea", _post("Content-Length: 10", body=b"abc")],
        ids=["partial-request-line", "short-post-body"],
    )
    def test_stalled_request_is_a_408_then_eof(self, tmp_path, monkeypatch, raw):
        # raising=False: a build without the bound fails below, on the
        # missing response, rather than here on the missing name.
        monkeypatch.setattr(http, "REQUEST_TIMEOUT", 0.2, raising=False)

        async def body(service, client):
            # _raw_exchange reads to EOF: the 408 and then the close.
            reply = await _raw_exchange(service.port, raw)
            assert reply.startswith(b"HTTP/1.1 408 ")
            return None

        with_service(tmp_path, body)


#: What ``repro campaign --scale 0.002 --snapshots 2 --seed 3 --seeds 2``
#: runs, as a submission.
BOTH_FRONT_ENDS = {"scenario": {"scale": 0.002, "snapshots": 2}, "seeds": [3, 4]}


def cli_campaign(store, capsys):
    from repro.cli import main

    argv = ["campaign", "--scale", "0.002", "--snapshots", "2", "--seed", "3",
            "--seeds", "2", "--workers", "1", "--store", str(store)]
    assert main(argv) == 0
    return capsys.readouterr().out


class TestOneCache:
    """``repro campaign --seeds N --store`` and ``POST /v1/campaigns``
    build the same plans and run them the same way: either front end's
    runs are the other's cache hits."""

    def test_cli_runs_are_served_as_cached(self, tmp_path, capsys):
        stored = re.findall(
            r"stored as run (\S+)", cli_campaign(tmp_path / "store", capsys)
        )
        assert len(stored) == 2

        async def body(service, client):
            r = await client.request(
                "POST", "/v1/campaigns", body=BOTH_FRONT_ENDS
            )
            assert r.status == 200
            assert r.json()["disposition"] == "cached"
            return [run["run_id"] for run in r.json()["runs"]]

        assert with_service(tmp_path, body) == stored

    def test_served_runs_are_cli_cache_hits(self, tmp_path, capsys):
        async def body(service, client):
            r = await client.request(
                "POST", "/v1/campaigns", body=BOTH_FRONT_ENDS
            )
            assert r.status == 202
            events = await stream_to_end(client, r.json()["id"])
            assert events[-1]["kind"] == "job-complete"
            return [run["run_id"] for run in r.json()["runs"]]

        served = with_service(tmp_path, body)
        out = cli_campaign(tmp_path / "store", capsys)
        assert re.findall(r"cache hit: run (\S+) is complete", out) == served


#: The two read endpoints, and the stored view each is served from.
READS = {
    "result": "summary.json",
    "export/campaign_series.csv": "campaign_series.csv",
}

#: sha256 of what the commit before stored views (9eccb42) served for
#: ``TINY`` — it unpickled the result and rendered both bodies on every
#: cold read.  The ``/result`` body names the run, so a change to the
#: run-key payload moves its pin (and must say so); nothing else may.
#: It moved four times since, when an empty plan stopped having a
#: ``None`` spelling, when ``fidelity="hybrid"`` became the only and
#: default value, when the crawl config lost ``flood_volume_model``, and
#: when the crawl and pipeline configs lost the fields nothing set (old
#: digests in CHANGES.md).
_SERVED_BEFORE_VIEWS = {
    "result": (
        "c77d4caf7ab26a97c13c7c07f5bef2a8d3153b619a1a60e59a451ce5d0990d6d"
    ),
    "export/campaign_series.csv": (
        "efec76f94c08903fc215c5dad8d8c4ff5d37c0eec009e997307a30e0bc042c4d"
    ),
}


def served_as_before(tail, response):
    digest = hashlib.sha256(response.body).hexdigest()
    return response.status == 200 and digest == _SERVED_BEFORE_VIEWS[tail]


async def run_tiny(client):
    r = await client.request("POST", "/v1/campaigns", body=tiny())
    await stream_to_end(client, r.json()["id"])
    return r.json()["runs"][0]["run_id"]


async def read_both(client, run_id):
    return {
        tail: await client.request("GET", f"/v1/runs/{run_id}/{tail}")
        for tail in READS
    }


async def set_cache(client, enabled):
    r = await client.request(
        "POST", "/v1/admin/cache", body={"enabled": enabled}
    )
    assert r.json()["enabled"] is enabled


class TestStoredViews:
    """A read serves what the run wrote beside its result."""

    def test_cold_read_unpickles_nothing(self, tmp_path, monkeypatch):
        def refuse(data, run_id):
            raise AssertionError(f"a read of {run_id} unpickled its result")

        async def body(service, client):
            run_id = await run_tiny(client)
            monkeypatch.setattr(CampaignPlan, "decode_result", refuse)
            await set_cache(client, False)
            for tail, served in (await read_both(client, run_id)).items():
                assert served_as_before(tail, served), (tail, served.body)
            shown = (await client.request("GET", f"/v1/runs/{run_id}")).json()
            assert sorted(shown["views"]) == sorted(READS.values())
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, body)

    def test_manifest_without_views_serves_the_same_bytes(self, tmp_path):
        """A store written before manifests carried views: the read
        renders with the plan's own renderer what a newer run stored."""

        async def body(service, client):
            run_id = await run_tiny(client)
            await set_cache(client, False)
            stored = await read_both(client, run_id)
            manifest = service.store.load_manifest(run_id)
            assert sorted(manifest.views) == sorted(READS.values())
            manifest.views = {}
            service.store.save_manifest(manifest)
            rounds = [await read_both(client, run_id)]
            await set_cache(client, True)
            rounds += [await read_both(client, run_id) for _ in range(2)]
            for legacy in rounds:
                for tail in READS:
                    assert legacy[tail].status == 200
                    assert legacy[tail].body == stored[tail].body, tail
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, body)

    def test_corrupt_view_fails_once_by_digest_and_is_not_cached(
        self, tmp_path
    ):
        async def body(service, client):
            run_id = await run_tiny(client)
            manifest = service.store.load_manifest(run_id)
            for tail, name in READS.items():
                path = service.store.blobs._path(manifest.views[name])
                good = path.read_bytes()
                path.write_bytes(bytes([good[0] ^ 1]) + good[1:])
                entries = service.cache.stats()["entries"]
                url = f"/v1/runs/{run_id}/{tail}"
                r = await client.request("GET", url)
                assert r.status == 404, (tail, r.status)
                assert manifest.views[name] in r.json()["error"]
                assert "corrupt" in r.json()["error"]
                assert service.cache.stats()["entries"] == entries
                path.write_bytes(good)
                r = await client.request("GET", url)
                assert served_as_before(tail, r), (tail, r.status)
            assert service.metrics.internal_errors == 0

        with_service(tmp_path, body)

    def test_run_without_a_result_is_404_on_both(self, tmp_path):
        running = RunManifest(
            run_id="campaign-0123456789ab", key="0123456789ab" + "c" * 52,
            kind="campaign", seed=13, snapshots_total=2,
            config={"scenario": {}, "campaign": {}},
        )
        RunStore(tmp_path / "store").save_manifest(running)

        async def body(service, client):
            for tail, served in (
                await read_both(client, running.run_id)
            ).items():
                assert served.status == 404, tail
                assert "no result yet" in served.json()["error"]
            assert service.cache.stats()["entries"] == 0

        with_service(tmp_path, body)

    def test_a_complete_run_pins_its_units_result_and_views(self, tmp_path):
        """...and nothing else: no state blob."""
        async def body(service, client):
            run_id = await run_tiny(client)
            manifest = service.store.load_manifest(run_id)
            pinned = set(manifest.referenced_digests())
            assert manifest.checkpoint is None
            assert pinned == {
                *(record.digest for record in manifest.snapshots),
                manifest.result_digest,
                *manifest.views.values(),
            }
            # The pinned bytes are every byte in the store: the run
            # deleted its state blobs as it went, and left gc nothing.
            assert service.store.blobs.total_bytes() == sum(
                service.store.blobs.size_bytes(digest) for digest in pinned
            )
            assert service.store.gc(dry_run=True)["removed"] == []

        with_service(tmp_path, body)


class TestReadCache:
    """The read path's byte-budgeted LRU, on a 10-byte budget."""

    def test_a_get_saves_an_entry_from_eviction(self):
        cache = ReadCache(10)
        cache.put(("a",), b"aaaa")
        cache.put(("b",), b"bbbb")
        assert cache.get(("a",)) == b"aaaa"
        cache.put(("c",), b"cccc")  # 12 bytes > 10: b is the LRU
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == b"aaaa"
        assert cache.get(("c",)) == b"cccc"
        assert cache.stats()["bytes"] == 8

    def test_an_entry_over_the_budget_is_refused_alone(self):
        cache = ReadCache(10)
        cache.put(("a",), b"aaaa")
        cache.put(("b",), b"bbbb")
        cache.put(("big",), b"x" * 11)
        assert cache.get(("big",)) is None
        assert cache.get(("a",)) == b"aaaa"
        assert cache.get(("b",)) == b"bbbb"
        assert (cache.stats()["entries"], cache.stats()["bytes"]) == (2, 8)

    def test_re_putting_a_key_replaces_its_bytes(self):
        cache = ReadCache(10)
        cache.put(("a",), b"aaaa")
        cache.put(("a",), b"aaaaaa")
        assert (cache.stats()["entries"], cache.stats()["bytes"]) == (1, 6)
        cache.put(("b",), b"bbbb")  # 10 bytes: fits, nothing evicted
        assert cache.get(("a",)) == b"aaaaaa"
        assert cache.get(("b",)) == b"bbbb"

    def test_disabling_drops_every_entry_and_misses(self):
        cache = ReadCache(10)
        cache.put(("a",), b"aaaa")
        cache.put(("b",), b"bbbb")
        cache.set_enabled(False)
        assert (cache.stats()["entries"], cache.stats()["bytes"]) == (0, 0)
        hits, misses = cache.hits, cache.misses
        cache.put(("a",), b"aaaa")
        assert cache.get(("a",)) is None
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        cache.set_enabled(True)
        assert cache.get(("a",)) is None  # dropped, and not re-put


class TestAdmin:
    def test_gc_dry_run_reports_without_deleting(self, tmp_path):
        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            await stream_to_end(client, r.json()["id"])
            orphan = service.store.put_blob(b"orphaned bytes")
            r = await client.request("POST", "/v1/admin/gc?dry_run=1")
            dry = r.json()
            assert dry["dry_run"] is True
            assert orphan in dry["removed_sample"]
            assert service.store.blobs.has(orphan)  # nothing deleted
            r = await client.request("POST", "/v1/admin/gc")
            real = r.json()
            assert real["dry_run"] is False
            assert orphan in real["removed_sample"]
            assert not service.store.blobs.has(orphan)
            return None

        with_service(tmp_path, body)

    def test_gc_is_refused_while_a_job_is_in_flight(self, tmp_path):
        """A job puts each blob before the manifest that names it, so a
        gc beside it used to delete what the job had just written."""

        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r.status == 202
            gc = await client.request("POST", "/v1/admin/gc")
            assert gc.status == 429
            assert gc.headers["retry-after"] == str(math.ceil(RETRY_AFTER))
            dry = await client.request("POST", "/v1/admin/gc?dry_run=1")
            assert dry.status == 200
            await stream_to_end(client, r.json()["id"])
            gc = await client.request("POST", "/v1/admin/gc")
            assert gc.status == 200
            assert gc.json()["removed_count"] == 0
            manifest = service.store.load_manifest(r.json()["runs"][0]["run_id"])
            assert manifest.status == "complete"
            assert all(
                service.store.blobs.has(digest)
                for digest in manifest.referenced_digests()
            )

        with_service(tmp_path, body)

    def test_fresh_work_is_refused_while_a_gc_runs(self, tmp_path):
        """...and the other way round: a job admitted mid-gc would write
        blobs the gc has not yet seen named."""
        release = threading.Event()

        async def body(service, client):
            collect = service.store.gc

            def held_gc(dry_run=False):
                release.wait(10)
                return collect(dry_run=dry_run)

            service.store.gc = held_gc
            try:
                async with Client("127.0.0.1", service.port) as admin:
                    gc = asyncio.ensure_future(
                        admin.request("POST", "/v1/admin/gc")
                    )
                    while not service.jobs.collecting:
                        await asyncio.sleep(0.01)
                    r = await client.request(
                        "POST", "/v1/campaigns", body=tiny()
                    )
                    assert r.status == 429
                    again = await client.request("POST", "/v1/admin/gc")
                    assert again.status == 429
                    release.set()
                    assert (await gc).status == 200
            finally:
                release.set()
            assert not service.jobs.collecting
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r.status == 202
            await stream_to_end(client, r.json()["id"])

        with_service(tmp_path, body)

    def test_read_cache_serves_repeats_and_can_be_disabled(self, tmp_path):
        async def body(service, client):
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            await stream_to_end(client, r.json()["id"])
            run_id = r.json()["runs"][0]["run_id"]
            first = await client.request("GET", f"/v1/runs/{run_id}/result")
            second = await client.request("GET", f"/v1/runs/{run_id}/result")
            assert first.body == second.body
            stats = service.cache.stats()
            assert stats["hits"] >= 1
            r = await client.request(
                "POST", "/v1/admin/cache", body={"enabled": False}
            )
            assert r.json()["enabled"] is False
            assert r.json()["entries"] == 0  # disabling clears
            third = await client.request("GET", f"/v1/runs/{run_id}/result")
            assert third.status == 200 and third.body == first.body
            r = await client.request(
                "POST", "/v1/admin/cache", body={"enabled": True}
            )
            assert r.json()["enabled"] is True
            return None

        with_service(tmp_path, body)

    def test_draining_service_refuses_submissions_503(self, tmp_path):
        async def body(service, client):
            service.draining = True
            r = await client.request("POST", "/v1/campaigns", body=tiny())
            assert r.status == 503
            r = await client.request("GET", "/v1/healthz")
            assert r.json()["status"] == "draining"
            return None

        with_service(tmp_path, body)

    def test_metrics_track_routes_and_latency(self, tmp_path):
        async def body(service, client):
            await client.request("GET", "/v1/healthz")
            await client.request("GET", "/v1/healthz")
            m = (await client.request("GET", "/v1/metrics")).json()
            health = m["routes"]["GET /v1/healthz"]
            assert health["count"] == 2
            assert health["p50_ms"] is not None
            assert health["errors"] == 0
            return None

        with_service(tmp_path, body)
