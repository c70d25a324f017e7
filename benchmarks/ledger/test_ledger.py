"""Self-test of the ledger harness.  Not part of tier-1 (``testpaths``
does not collect it); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

It runs the smoke sizes once with ``--trace`` (about 40 s) and checks the
shape of what comes out, not the numbers.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import catalog, cli
from benchmarks.ledger.trace import module_layers

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV = dict(os.environ, PYTHONPATH=os.path.join(catalog.REPO_ROOT, "src"))


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "run", "--smoke", "--trace",
         "--repeats", "1", "--out", str(out)],
        cwd=catalog.REPO_ROOT, env=ENV, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_result_schema_and_hygiene(ledger):
    result, _ = ledger
    assert result["schema"] == cli.SCHEMA
    assert set(result["host"]) == {
        "nproc", "loadavg_1min_start", "loadavg_1min_end", "python",
        "platform", "git_commit",
    }
    assert result["seed"] == catalog.DEFAULT_SEED and result["repeats"] == 1
    assert sorted(result["workloads"]) == sorted(catalog.WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["seed"] == catalog.DEFAULT_SEED + catalog.SEED_OFFSETS[name]
        assert entry["failed"] == 0 and entry["fingerprints_agree"], entry
        assert entry["fingerprint"]
        for row in entry["end_to_end"].values():
            assert row["n"] == len(row["values"])
            assert row["min"] <= row["median"] <= row["max"]


def test_every_metric_is_named_and_described(ledger):
    result, stdout = ledger
    declared = {m.name: m for m in catalog.END_TO_END}
    for metric in catalog.END_TO_END:
        assert NAME.match(metric.name) and UNIT.match(metric.unit)
        assert metric.better in ("lower", "higher") and metric.bound is not None
    layered = {m.name for m in catalog.PER_LAYER}
    for metric in catalog.PER_LAYER:
        assert NAME.match(metric.name) and UNIT.match(metric.unit)
    for name, entry in result["workloads"].items():
        reported = set(entry["end_to_end"])
        expected = {
            m.name for m in catalog.END_TO_END
            if m.workloads is None or name in m.workloads
        }
        assert reported == expected, (name, reported ^ expected)
        for metric, row in entry["end_to_end"].items():
            assert (row["unit"], row["better"], row["bound"]) == declared[metric][1:4]
            assert metric in stdout
        assert set(entry["per_layer"]) <= layered, set(entry["per_layer"]) - layered
        assert "trace.overhead_ratio" in entry["per_layer"]
    assert "simulated vs paper" in stdout


def test_spans_are_well_nested_with_one_run_id(ledger):
    result, _ = ledger
    for entry in result["workloads"].values():
        with open(os.path.join(catalog.REPO_ROOT, entry["trace_file"]), encoding="utf-8") as handle:
            trace = json.load(handle)
        spans = trace["spans"]
        assert spans and {s["run_id"] for s in spans} == {trace["run_id"]}
        by_id = {s["id"]: s for s in spans}
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        roots = sorted(
            (s for s in spans if s["parent"] is None), key=lambda s: s["start"]
        )
        for before, after in zip(roots, roots[1:]):
            assert before["end"] <= after["start"]


def test_layer_shares_account_for_the_profile(ledger):
    result, _ = ledger
    for name, entry in result["workloads"].items():
        shares = {
            layer: entry["per_layer"][f"{layer}.self_share"] for layer in catalog.LAYERS
        }
        assert abs(sum(shares.values()) - 1.0) <= 0.01, (name, shares)
        assert shares[catalog.OTHER] <= 0.10, (name, shares)


def test_layer_map_covers_every_module():
    root = os.path.join(catalog.REPO_ROOT, "src", "repro") + os.sep
    unmapped = [path for path, layer in module_layers(root).items() if layer is None]
    assert not unmapped, unmapped
    assert set(catalog.LAYERS) == {layer for _, layer in catalog.LAYER_TABLE}


def test_benchmark_json_is_the_catalog_and_meets_the_contract():
    with open(os.path.join(catalog.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == catalog.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_contract_line(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(catalog.LEDGER_DIR, "run.py"), "--workload",
         "crawl_campaign", "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=catalog.REPO_ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    declared = catalog.benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reading = last["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], (int, float))
        assert trace or reading["value"] > 0


def _file(**medians):
    def row(value, spread=0.0):
        return {"median": value, "min": value * (1 - spread), "max": value * (1 + spread)}
    return {"workloads": {"gossip_scale": {"end_to_end": {
        name: row(*value) if isinstance(value, tuple) else row(value)
        for name, value in medians.items()
    }}}}


def test_compare_verdicts():
    base = _file(run_s=10.0, events_per_s=1000.0, failed_ratio=0.0)
    same = cli.compare(base, _file(run_s=10.5, events_per_s=980.0, failed_ratio=0.0))
    assert {r["metric"]: r["verdict"] for r in same} == {
        "run_s": "ok", "events_per_s": "ok", "failed_ratio": "ok",
    }
    worse = cli.compare(base, _file(run_s=12.0, events_per_s=800.0, failed_ratio=0.1))
    assert {r["verdict"] for r in worse} == {"regressed"}
    assert next(r for r in worse if r["metric"] == "run_s")["ratio"] == pytest.approx(1.2)
    # Too noisy to tell: either side spreads wider than the bound and
    # the two ranges overlap.
    noisy = cli.compare(_file(run_s=(10.0, 0.2)), _file(run_s=(11.5, 0.2)))
    assert [r["verdict"] for r in noisy] == ["unresolved"]
    # Wide but disjoint ranges still resolve.
    apart = cli.compare(_file(run_s=(10.0, 0.2)), _file(run_s=(20.0, 0.2)))
    assert [r["verdict"] for r in apart] == ["regressed"]
