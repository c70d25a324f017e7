"""A process imports what it runs.

``import repro`` — and so every CLI command, ``repro serve`` before its
first answer, and every ledger child — loads numpy and the repo's own
modules and nothing else.  A third-party package that one analysis uses
is imported inside that analysis (docs/architecture.md, "Cold start"):
scipy by ``analysis.kde.kde``, networkx by the ``netmodel.metrics``
topology helpers.  ``test_analysis.py`` and ``test_metrics_propagation.py``
show those still work once called.

The child also imports ``repro.core.decode`` — the one JSON-to-config
decoder the CLI's plan files and the service's submissions share — with
``repro.serve`` blocked, so the decoder cannot drift back into the
service layer.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# ``sys.modules[name] = None`` makes any ``import name`` raise
# ImportError ("import of name halted"), so a module-level import of
# either package anywhere on the import path fails the child.
PROGRAM = """
import runpy
import sys

sys.modules["scipy"] = sys.modules["networkx"] = None
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


def test_import_and_help_load_neither_scipy_nor_networkx():
    child = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        cwd=str(SRC),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert "usage: repro" in child.stdout
