"""Tests for ``repro lint``: rules, suppressions, config, CLI gate.

The fixture tests write small known-bad sources to a temp tree and
assert each rule fires exactly where intended (and stays quiet on the
idiomatic deterministic alternative).  The subprocess tests at the
bottom are the gate's acceptance pins: the real tree is clean, and each
``seeded`` test puts one shipped bug back into a copy of a shipped
module — a wall-clock read in the simulator (DET002), a blocking call
in an ``async def`` (ASYNC001), a loop-owned post from the admission
thread (ASYNC004) — and requires the flagless CLI to exit 1 with that
code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, RULES, all_rules, lint_paths, load_config
from repro.lint.config import LintConfigError
from repro.lint.engine import render_text
from repro.lint.suppressions import parse_suppressions

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, source: str, name: str = "mod.py", **config):
    """Write ``source`` into the temp tree and lint just that file."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    cfg = LintConfig(root=str(tmp_path), **config)
    return lint_paths([str(path)], cfg)


def codes(result) -> list:
    return [finding.code for finding in result.findings]


# ----------------------------------------------------------------------
# DET001 — unseeded global RNG
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_module_level_random_calls_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def jitter():
                return random.random() + random.uniform(0, 1)
            """,
        )
        assert codes(result) == ["DET001", "DET001"]

    def test_numpy_global_rng_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        assert codes(result) == ["DET001"]

    def test_argless_constructors_flagged_seeded_ok(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            bad = random.Random()
            good = random.Random(42)
            """,
        )
        assert codes(result) == ["DET001"]
        assert result.findings[0].line == 3

    def test_injected_stream_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def jitter(sim):
                rng = sim.random.stream("jitter")
                return rng.random()
            """,
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------
class TestWallClock:
    def test_calls_and_references_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time
            import datetime
            from dataclasses import field

            stamp = time.time()
            when = datetime.datetime.now()
            deadline = time.monotonic()
            factory = field(default_factory=time.time)
            """,
        )
        # The bare ``time.time`` reference in default_factory must be
        # caught too: it never appears as a Call node.
        assert codes(result) == ["DET002"] * 4

    def test_fires_without_an_import(self, tmp_path):
        # The CI guard appends ``time.time()`` to an existing module; the
        # rule must not depend on seeing the import statement.
        result = lint_source(tmp_path, "_t = time.time()\n")
        assert codes(result) == ["DET002"]

    def test_allowlisted_boundary_is_exempt(self, tmp_path):
        source = "import time\nstamp = time.time()\n"
        clean = lint_source(
            tmp_path,
            source,
            name="allowed/clock.py",
            clock_allowlist=("allowed",),
        )
        assert codes(clean) == []
        flagged = lint_source(
            tmp_path,
            source,
            name="elsewhere/clock.py",
            clock_allowlist=("allowed",),
        )
        assert codes(flagged) == ["DET002"]

    def test_sim_clock_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def when(sim):
                return sim.now
            """,
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# DET003 — ordering-sensitive iteration over sets
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_for_loop_over_local_set_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def fanout(peers):
                targets = set(peers)
                for peer in targets:
                    peer.send()
            """,
        )
        assert codes(result) == ["DET003"]

    def test_sorted_iteration_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def fanout(peers):
                targets = set(peers)
                for peer in sorted(targets):
                    peer.send()
                return len(targets), max(targets)
            """,
        )
        assert codes(result) == []

    def test_cross_file_attribute_recognized(self, tmp_path):
        # ``Peer.known`` is declared a set in one file; iterating
        # ``peer.known`` in another file must still fire.
        (tmp_path / "peer.py").write_text(
            textwrap.dedent(
                """
                from typing import Set

                class Peer:
                    def __init__(self):
                        self.known: Set[int] = set()
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "node.py").write_text(
            "def drain(peer):\n    return [item for item in peer.known]\n",
            encoding="utf-8",
        )
        result = lint_paths([str(tmp_path)], LintConfig(root=str(tmp_path)))
        assert [(f.code, Path(f.path).name) for f in result.findings] == [
            ("DET003", "node.py")
        ]

    def test_set_pop_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def take(pending):
                backlog = set(pending)
                return backlog.pop()
            """,
        )
        assert codes(result) == ["DET003"]


# ----------------------------------------------------------------------
# DET004 — id()/hash() as ordering keys
# ----------------------------------------------------------------------
class TestIdentityHash:
    def test_id_and_hash_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def tie_break(a, b):
                return min(a, b, key=id)

            def bucket(obj, n):
                return hash(obj) % n
            """,
        )
        assert codes(result) == ["DET004", "DET004"]

    def test_shadowed_name_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def lookup(table, id):
                return table[id]
            """,
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# PICK001 — unpicklable callbacks on the event queue
# ----------------------------------------------------------------------
class TestQueueLambda:
    def test_lambda_on_scheduler_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def arm(sim, node):
                sim.call_every(5.0, lambda: node.tick())
            """,
        )
        assert codes(result) == ["PICK001"]

    def test_nested_function_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def arm(sim, node):
                def tick():
                    node.tick()
                sim.schedule(5.0, tick)
            """,
        )
        assert codes(result) == ["PICK001"]

    def test_partial_over_module_function_is_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import functools

            def _tick(node):
                node.tick()

            def arm(sim, node):
                sim.call_every(5.0, functools.partial(_tick, node))
            """,
        )
        assert codes(result) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_directive_silences_one_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            a = time.time()  # repro-lint: disable=DET002  (boot stamp)
            b = time.time()
            """,
        )
        assert codes(result) == ["DET002"]
        assert result.findings[0].line == 4

    def test_file_directive_silences_whole_file(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            # repro-lint: disable-file=DET002
            import time

            a = time.time()
            b = time.time()
            """,
        )
        assert codes(result) == []

    def test_directive_only_covers_named_code(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time, random

            a = time.time() + random.random()  # repro-lint: disable=DET002
            """,
        )
        assert codes(result) == ["DET001"]

    def test_unknown_code_reported_as_diagnostic(self, tmp_path):
        result = lint_source(
            tmp_path,
            "x = 1  # repro-lint: disable=DET999\n",
        )
        assert codes(result) == []
        assert any("DET999" in note for note in result.diagnostics)

    def test_parse_suppressions_bare_disable(self):
        smap = parse_suppressions(
            ["import time", "t = time.time()  # repro-lint: disable"],
            known_codes=["DET002"],
        )
        assert smap.suppressed(2, "DET002")
        assert not smap.suppressed(1, "DET002")

    def test_directive_that_suppressed_nothing_is_a_note(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            a = time.time()  # repro-lint: disable=DET002  (boot stamp)
            b = tuple(a)  # repro-lint: disable=DET002,DET003  (stale)
            """,
        )
        assert codes(result) == [] and not result.failed
        assert result.diagnostics == [
            "mod.py: line 4: disable=DET002 suppressed nothing",
            "mod.py: line 4: disable=DET003 suppressed nothing",
        ]
        assert "note: mod.py: line 4" in render_text(result)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
class TestConfig:
    def test_load_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.repro-lint]
                paths = ["lib"]
                clock-allowlist = ["lib/perf"]
                disable = ["DET004"]
                baseline = "lint.json"

                [tool.repro-lint.severity]
                DET003 = "info"
                """
            ),
            encoding="utf-8",
        )
        # ``disable`` / ``baseline`` / ``severity`` are keys older trees
        # set; like any unknown key they are ignored, not an error.
        config = load_config(tmp_path)
        assert config.paths == ("lib",)
        assert config.clock_allowlisted("lib/perf/recorder.py")
        assert not config.clock_allowlisted("lib/perfect.py")

    def test_malformed_table_raises(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\npaths = 3\n", encoding="utf-8"
        )
        with pytest.raises(LintConfigError):
            load_config(tmp_path)

    def test_every_rule_has_catalog_prose(self):
        assert set(RULES) == {
            "DET001", "DET002", "DET003", "DET004", "PICK001",
            "ASYNC001", "ASYNC004", "HOT001",
        }
        for rule in all_rules():
            assert rule.summary and rule.rationale
            assert rule.scope in ("file", "project")


# ----------------------------------------------------------------------
# The real tree, through the real CLI
# ----------------------------------------------------------------------
def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestRepositoryGate:
    def test_src_is_clean_through_the_flagless_cli(self):
        proc = run_cli("src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert ": 0 finding(s)" in proc.stdout
        # No dead suppressions either: every directive in the tree
        # still silences something.
        assert "note:" not in proc.stdout, proc.stdout

    def test_seeded_wall_clock_read_is_caught(self, tmp_path):
        # The CI guard in miniature: copy the shipped simulator module,
        # append a wall-clock read, and the linter must fail with DET002.
        original = (
            REPO_ROOT / "src" / "repro" / "simnet" / "simulator.py"
        ).read_text(encoding="utf-8")
        seeded = tmp_path / "simulator.py"
        seeded.write_text(
            original + "\n_LINT_CANARY = time.time()\n", encoding="utf-8"
        )
        proc = run_cli(str(seeded), cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "DET002" in proc.stdout

    def test_json_output_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n", encoding="utf-8")
        proc = run_cli(str(bad), "--format", "json", cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["failed"] is True
        assert [f["code"] for f in payload["findings"]] == ["DET002"]

    def test_seeded_async_sleep_is_caught(self, tmp_path):
        # The second CI canary in miniature: append a blocking call
        # inside an async def to the shipped serve app and the
        # interprocedural gate must fail with ASYNC001.
        original = (
            REPO_ROOT / "src" / "repro" / "serve" / "app.py"
        ).read_text(encoding="utf-8")
        seeded = tmp_path / "app.py"
        seeded.write_text(
            original
            + "\n\nasync def _lint_canary() -> None:\n    time.sleep(0.1)\n",
            encoding="utf-8",
        )
        proc = run_cli(str(seeded), cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "ASYNC001" in proc.stdout

    def test_seeded_cross_thread_post_is_caught(self, tmp_path):
        # ``_truncated_runs`` runs on the admission executor and returns
        # the truncated runs to the loop; seeded, it posts to the
        # loop-owned job event log directly instead.
        original = (
            REPO_ROOT / "src" / "repro" / "serve" / "jobs.py"
        ).read_text(encoding="utf-8")
        fixed = "                    truncated.append(run)\n"
        post = '                    job.post("truncated", seed=run.seed)'
        assert original.count(fixed) == 1
        seeded_source = original.replace(fixed, f"{post}\n")
        seeded = tmp_path / "jobs.py"
        seeded.write_text(seeded_source, encoding="utf-8")
        proc = run_cli(str(seeded), "--format", "json", cwd=tmp_path)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        line = seeded_source.splitlines().index(post) + 1
        assert [
            (f["code"], f["line"]) for f in json.loads(proc.stdout)["findings"]
        ] == [("ASYNC004", line)]

    def test_list_rules_and_explain(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in RULES:
            assert code in proc.stdout
        proc = run_cli("--explain", "DET003")
        assert proc.returncode == 0
        assert "DET003" in proc.stdout and "suppress with" in proc.stdout

    def test_list_rules_grouped_by_family(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        out = proc.stdout
        for family in ("ASYNC —", "DET —", "HOT —", "PICK —"):
            assert family in out
        # Family headers precede their member rules.
        assert out.index("ASYNC —") < out.index("ASYNC001")
        assert out.index("DET —") < out.index("DET001")

    def test_explain_async001_shows_worked_example(self):
        proc = run_cli("--explain", "ASYNC001")
        assert proc.returncode == 0
        assert "example:" in proc.stdout
        assert "run_in_executor" in proc.stdout

    def test_unknown_rule_code_exits_2(self):
        proc = run_cli("--explain", "NOPE999")
        assert proc.returncode == 2
