"""Tests for the interprocedural pass: call graph + ASYNC/HOT rules.

The engine-level fixtures write multi-file trees to a temp dir and run
the full :func:`repro.lint.lint_paths` pipeline, so they pin resolution
end-to-end: symbol tables, relative imports, self-type inference,
``functools.partial``, taint propagation, and the rules' reporting —
exactly the path CI exercises.  The graph-level tests poke
:func:`repro.lint.callgraph.build_call_graph` directly where the
property under test (cycle termination, hot origins) is easier to
assert on the graph than through findings.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths
from repro.lint.callgraph import build_call_graph, module_name_for
from repro.lint.config import LintConfigError


def lint_tree(tmp_path: Path, files: dict, **config):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it all."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            textwrap.dedent(source).lstrip("\n"), encoding="utf-8"
        )
    cfg = LintConfig(root=str(tmp_path), **config)
    return lint_paths([str(tmp_path)], cfg)


def graph_for(files: dict, **config):
    """Build a call graph straight from in-memory sources."""
    modules = []
    for rel, source in files.items():
        text = textwrap.dedent(source).lstrip("\n")
        modules.append((rel, ast.parse(text), text.splitlines()))
    return build_call_graph(modules, LintConfig(**config))


def codes(result):
    return [finding.code for finding in result.findings]


class TestModuleNaming:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/serve/app.py") == (
            "repro.serve.app", False,
        )

    def test_package_init(self):
        assert module_name_for("src/repro/lint/__init__.py") == (
            "repro.lint", True,
        )


class TestTransitiveBlocking:
    def test_three_deep_chain_reported_at_async_frontier(self, tmp_path):
        # handler -> a -> b -> c -> time.sleep: the finding lands on the
        # call inside the async def, and the message names the chain.
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import time

                    def c():
                        time.sleep(1)

                    def b():
                        c()

                    def a():
                        b()

                    async def handler():
                        a()
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]
        finding = result.findings[0]
        assert "handler" in finding.message
        for hop in ("a", "b", "c", "time.sleep"):
            assert hop in finding.message

    def test_executor_dispatch_cuts_the_taint(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import asyncio
                    import time

                    def work():
                        time.sleep(1)

                    async def handler():
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(None, work)

                    async def handler2():
                        await asyncio.to_thread(work)
                    """,
            },
        )
        assert codes(result) == []

    def test_sync_only_chain_is_clean(self, tmp_path):
        # Blocking I/O with no async caller is ordinary code.
        result = lint_tree(
            tmp_path,
            {
                "io.py": """
                    def save(path, data):
                        with open(path, "w") as handle:
                            handle.write(data)
                    """,
            },
        )
        assert codes(result) == []

    def test_await_of_async_callee_reports_at_callee_not_caller(
        self, tmp_path
    ):
        # The async callee owns its blocking frontier; the awaiting
        # caller is not double-reported.
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import time

                    async def inner():
                        time.sleep(1)

                    async def outer():
                        await inner()
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]
        assert "inner" in result.findings[0].message
        assert result.findings[0].line == 4


class TestMethodResolution:
    def test_self_attribute_type_from_constructor_call(self, tmp_path):
        # svc.Store is assigned in __init__ via a constructor call; the
        # handler's self.store.load() resolves through the inferred
        # attribute type, across modules.
        result = lint_tree(
            tmp_path,
            {
                "store.py": """
                    class Store:
                        def load(self, name):
                            with open(name) as handle:
                                return handle.read()
                    """,
                "svc.py": """
                    from store import Store

                    class Service:
                        def __init__(self, root):
                            self.store = Store(root)

                        async def handler(self, name):
                            return self.store.load(name)
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]
        assert "Store.load" in result.findings[0].message

    def test_annotated_param_infers_attribute_type(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "store.py": """
                    class Store:
                        def load(self, name):
                            with open(name) as handle:
                                return handle.read()
                    """,
                "svc.py": """
                    from store import Store

                    class Service:
                        def __init__(self, store: Store):
                            self.store = store

                        async def handler(self, name):
                            return self.store.load(name)
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]

    def test_path_division_keeps_path_type(self, tmp_path):
        # self.runs = self.root / "runs" stays Path-typed, so the
        # read_text below it is recognized as blocking.
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    from pathlib import Path

                    class Service:
                        def __init__(self, root):
                            self.root = Path(root)
                            self.runs = self.root / "runs"

                        async def handler(self):
                            return self.runs.read_text()
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]
        assert "read_text" in result.findings[0].message


class TestPartialAndAliases:
    def test_partial_invocation_carries_taint(self, tmp_path):
        # Calling a local bound to functools.partial(blocking_fn, ...)
        # is a real invocation — taint flows.
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import functools
                    import time

                    def work(n):
                        time.sleep(n)

                    async def handler():
                        bound = functools.partial(work, 1)
                        bound()
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]

    def test_partial_construction_alone_is_not_a_call(self, tmp_path):
        # Building partial(blocking_fn) and handing it somewhere else
        # (e.g. into an executor wrapper) must NOT count as calling it —
        # that is precisely how serve dispatches store.gc.
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import asyncio
                    import functools
                    import time

                    def work(n):
                        time.sleep(n)

                    async def handler():
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(
                            None, functools.partial(work, 1)
                        )
                    """,
            },
        )
        assert codes(result) == []

    def test_aliased_import_resolves(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/io_mod.py": """
                    def fetch(name):
                        with open(name) as handle:
                            return handle.read()
                    """,
                "pkg/svc.py": """
                    from .io_mod import fetch as grab

                    async def handler(name):
                        return grab(name)
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]
        assert "fetch" in result.findings[0].message

    def test_aliased_module_import_resolves(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import time as clock

                    async def handler():
                        clock.sleep(1)
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]


class TestCycleTermination:
    def test_mutual_recursion_terminates_and_propagates(self):
        graph = graph_for(
            {
                "m.py": """
                    import time

                    def ping(n):
                        if n:
                            pong(n - 1)
                        time.sleep(1)

                    def pong(n):
                        ping(n)

                    def clean_ping(n):
                        if n:
                            clean_pong(n - 1)

                    def clean_pong(n):
                        clean_ping(n)
                    """,
            }
        )
        assert "m.ping" in graph.may_block
        assert "m.pong" in graph.may_block
        assert "m.clean_ping" not in graph.may_block
        assert "m.clean_pong" not in graph.may_block
        # chain() on a cyclic graph must terminate too.
        assert graph.chain("m.pong")

    def test_self_recursion_terminates(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "m.py": """
                    import time

                    def spin(n):
                        if n:
                            spin(n - 1)
                        time.sleep(1)

                    async def handler():
                        spin(3)
                    """,
            },
        )
        assert codes(result) == ["ASYNC001"]


class TestCrossThreadMutation:
    def test_thread_callback_calling_loop_owned_flagged(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import asyncio

                    class Job:
                        # repro-lint: loop-owned
                        def post(self, kind):
                            pass

                    def forward(job: Job, event):
                        job.post(event)

                    def forward_safe(loop, job: Job, event):
                        loop.call_soon_threadsafe(job.post, event)

                    class Manager:
                        def run(self, job: Job, loop):
                            loop.run_in_executor(None, forward, job)
                    """,
            },
        )
        # `forward` enters thread context via run_in_executor and calls
        # the loop-owned mutator directly; `forward_safe` bridges
        # through call_soon_threadsafe and stays clean.
        assert codes(result) == ["ASYNC004"]
        finding = result.findings[0]
        assert "forward" in finding.message
        assert "Job.post" in finding.message

    def test_thread_kwarg_entry_point(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "svc.py": """
                    import threading

                    class Job:
                        # repro-lint: loop-owned
                        def post(self, kind):
                            pass

                    def worker(job: Job):
                        job.post("tick")

                    def start(job):
                        thread = threading.Thread(target=worker)
                        thread.start()
                    """,
            },
        )
        assert codes(result) == ["ASYNC004"]


class TestHotPaths:
    def test_marker_flags_allocations(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "hot.py": """
                    # repro-lint: hot
                    def dispatch(items):
                        labels = [str(item) for item in items]
                        return labels
                    """,
            },
        )
        assert codes(result) == ["HOT001"]
        assert "list comprehension" in result.findings[0].message

    def test_config_seed_propagates_to_callees(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "hot.py": """
                    def helper(x):
                        return {"x": x}

                    def entry(x):
                        return helper(x)
                    """,
            },
            hot_paths=("hot.entry",),
        )
        assert codes(result) == ["HOT001"]
        finding = result.findings[0]
        assert "helper" in finding.message
        assert "called from" in finding.message

    def test_stale_hot_path_key_is_a_configuration_error(self, tmp_path):
        """A seed whose module is linted but whose function is gone must
        fail the run, not silently un-mark the path below it."""
        files = {
            "hot.py": """
                class Queue:
                    def push(self, x):
                        return {"x": x}
                """,
        }
        with pytest.raises(LintConfigError, match=r"hot\.Base\.push"):
            lint_tree(tmp_path, files, hot_paths=("hot.Base.push",))
        # The same key is legal when its module is outside the linted
        # paths (per-package gates share one pyproject) ...
        result = lint_tree(
            tmp_path, files, hot_paths=("elsewhere.mod.Base.push",)
        )
        assert codes(result) == []
        # ... and the corrected key restores the coverage.
        result = lint_tree(tmp_path, files, hot_paths=("hot.Queue.push",))
        assert codes(result) == ["HOT001"]

    def test_stale_hot_path_key_exits_2_from_the_cli(
        self, tmp_path, monkeypatch, capsys
    ):
        import argparse

        from repro.lint.cli import add_lint_arguments, run_from_args

        (tmp_path / "hot.py").write_text("def entry():\n    return 1\n")
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\npaths = ["."]\nhot-paths = ["hot.gone"]\n'
        )
        monkeypatch.chdir(tmp_path)
        parser = argparse.ArgumentParser()
        add_lint_arguments(parser)
        args = parser.parse_args([])
        assert run_from_args(args) == 2
        assert "hot.gone" in capsys.readouterr().out

    def test_tuples_and_raise_paths_exempt(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "hot.py": """
                    # repro-lint: hot
                    def send(when, seq, payload):
                        if payload is None:
                            raise ValueError(f"empty payload at {when}")
                        return (when, seq, payload)
                    """,
            },
        )
        assert codes(result) == []

    def test_inline_suppression_honored(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "hot.py": """
                    # repro-lint: hot
                    def dispatch(items):
                        return [i for i in items]  # repro-lint: disable=HOT001 (amortized)
                    """,
            },
        )
        assert codes(result) == []

    def test_hot_origin_recorded(self):
        graph = graph_for(
            {
                "hot.py": """
                    def helper(x):
                        return x

                    # repro-lint: hot
                    def entry(x):
                        return helper(x)
                    """,
            }
        )
        assert graph.hot["hot.entry"] == "marked '# repro-lint: hot'"
        assert graph.hot["hot.helper"] == "called from entry"


class TestRepositoryGraph:
    """The graph over ``src`` with the repo's own ``[tool.repro-lint]``:
    HOT001's hot set and ASYNC004's loop-owned set, as
    docs/architecture.md ("Static analysis") lists them."""

    def test_hot_and_loop_owned_sets_pinned(self):
        # Imported here so no line above moves: the whole-tree lint's
        # notes name lines of this file.
        from repro.lint import load_config
        from repro.lint.engine import iter_python_files

        root = Path(__file__).resolve().parent.parent
        modules = []
        for path in iter_python_files([root / "src"]):
            text = path.read_text(encoding="utf-8")
            label = path.relative_to(root).as_posix()
            modules.append((label, ast.parse(text), text.splitlines()))
        graph = build_call_graph(modules, load_config(root))
        assert set(graph.hot) == {
            "repro.simnet.events.Scheduler.lane_schedule",
            "repro.simnet.events.Scheduler.lane_schedule_at",
            "repro.simnet.transport.Network._arrive",
            "repro.simnet.transport.Network._arrive_pair",
            "repro.bitcoin.node.BitcoinNode.run_pass",
            "repro.bitcoin.light.LightNode.on_message",
            "repro.bitcoin.light.LightNode._relay_request",
            "repro.bitcoin.light.LightNode._relay_accept",
            "repro.bitcoin.light.LightNode._relay_serve",
            "repro.bitcoin.light.shared_addr_records",
            "repro.simnet.transport.Socket.send",
            "repro.simnet.transport.Network._deliver",
            "repro.simnet.transport.Network._schedule_arrival",
            "repro.simnet.latency.LatencyModel.sample",
            "repro.simnet.rand.derive_seed",
        }
        assert graph.loop_owned == {
            "repro.serve.jobs.Job.post",
            "repro.serve.jobs.Job.supervisor_event",
        }
