"""A process imports what it runs.

``import repro`` — and so every CLI command, ``repro serve`` before its
first answer, and every ledger child — loads the repo's own modules and
nothing else.  A third-party package that one analysis uses is imported
inside that analysis (docs/architecture.md, "Cold start"): numpy by the
array analyses (``analysis.kde``, ``analysis.stats.summarize``,
``core.figures``, ``core.churn_matrix``), scipy by ``analysis.kde.kde``,
networkx by the ``netmodel.metrics`` topology helpers.
``test_analysis.py``, ``test_figures.py`` and
``test_metrics_propagation.py`` show those still work once called.

The first child also imports ``repro.core.decode`` — the one
JSON-to-config decoder the CLI's plan files and the service's
submissions share — with ``repro.serve`` blocked, so the decoder cannot
drift back into the service layer.  The second child runs what a
simulation process runs — a sync campaign and its means, a stored crawl
and its views, ``repro serve`` until it answers — with numpy blocked.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from http.client import HTTPConnection
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``sys.modules[name] = None`` makes any ``import name`` raise
# ImportError ("import of name halted"), so a module-level import of
# any of these packages anywhere on the import path fails the child.
BLOCK = 'sys.modules["numpy"] = sys.modules["scipy"] = sys.modules["networkx"] = None'

PROGRAM = f"""
import runpy
import sys

{BLOCK}
sys.modules["repro.serve"] = None
import repro.core.decode
del sys.modules["repro.serve"]
import repro, repro.cli, repro.store, repro.serve, repro.core
import repro.netmodel, repro.analysis

sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro.cli", run_name="__main__")
except SystemExit as exc:
    sys.exit(exc.code)
"""

SIMULATE = f"""
import runpy
import sys

{BLOCK}
from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.netmodel.scenario import LongitudinalConfig
from repro.store import RunStore
from repro.store.campaign import run_stored_campaign

sync = run_sync_campaign(
    SyncCampaignConfig(n_reachable=12, duration=600.0, warmup=300.0,
                       pre_mined_blocks=20, seed=3)
)
print("sync", len(sync.sync_samples), sync.mean, sync.median, flush=True)

store = RunStore(sys.argv[1])
stored = run_stored_campaign(
    store, LongitudinalConfig(seed=13, scale=0.002, snapshots=2, campaign_days=1.0)
)
views = stored.manifest.views
assert sorted(views) == ["campaign_series.csv", "summary.json"], views
assert all(store.get_blob(digest) for digest in views.values())
print("stored", stored.manifest.run_id, flush=True)

sys.argv = ["repro", "serve", "--store", sys.argv[1], "--port", "0"]
runpy.run_module("repro.cli", run_name="__main__")
"""


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def test_import_and_help_load_neither_scipy_nor_networkx():
    child = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        cwd=str(SRC),
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert "usage: repro" in child.stdout


def test_simulation_runs_and_serves_without_numpy(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-c", SIMULATE, str(tmp_path / "store")],
        cwd=str(SRC),
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # A child that hangs before it serves is killed, which ends the read.
    watchdog = threading.Timer(120.0, child.kill)
    watchdog.start()
    try:
        lines = []
        for line in child.stdout:
            lines.append(line)
            if line.startswith("serving "):
                break
        assert lines and lines[-1].startswith("serving "), (
            "".join(lines) + child.stderr.read()
        )
        kind, samples, mean, median = lines[0].split()
        assert kind == "sync" and int(samples) >= 2
        assert 0.0 <= float(mean) <= 100.0 and 0.0 <= float(median) <= 100.0
        assert lines[1].startswith("stored campaign-")
        host, port = lines[-1].split("http://")[1].split()[0].split(":")
        conn = HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", "/v1/healthz")
        assert conn.getresponse().status == 200
        conn.close()
    finally:
        watchdog.cancel()
        child.terminate()
        child.communicate(timeout=30)
