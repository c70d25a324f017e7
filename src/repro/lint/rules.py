"""The rule catalog.

Each rule is a :class:`~repro.lint.visitor.Rule` subclass registered in
:data:`RULES`.  Rules are pure event consumers: the traversal and name
resolution live in :mod:`repro.lint.visitor`, so a rule is only its
policy — what resolved names or shapes are hazards, and what to say
about them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Type

from ..errors import LintError
from .callgraph import CallGraph, ProjectRule
from .visitor import FileContext, Rule

#: Rule families, by code prefix.  ``--list-rules`` groups by these.
FAMILIES: Dict[str, str] = {
    "DET": "determinism — hidden global state and ordering hazards",
    "PICK": "picklability — checkpoint/snapshot safety",
    "ASYNC": "asyncio — event-loop blocking and cross-thread mutation "
             "hazards (interprocedural)",
    "HOT": "hot path — allocation discipline in marked fast-lane "
           "functions (interprocedural)",
}


def family_of(code: str) -> str:
    """The family prefix of a rule code (leading capital letters)."""
    prefix = ""
    for char in code:
        if char.isalpha():
            prefix += char
        else:
            break
    return prefix

#: Wall-clock reads that leak host time into simulation state.
WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random constructors that are fine *when given a seed*.
_NUMPY_SEEDED_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "RandomState",
        "Generator",
        "SeedSequence",
        "PCG64",
        "MT19937",
        "Philox",
        "SFC64",
    }
)


class UnseededRandomRule(Rule):
    """DET001: module-level RNG draws bypass the seeded streams."""

    code = "DET001"
    name = "unseeded-global-rng"
    summary = (
        "call to the global random/numpy.random state instead of an "
        "injected sim.random.stream"
    )
    rationale = (
        "Module-level random functions share one hidden global state: any "
        "draw anywhere perturbs every later draw, so adding a log line can "
        "change a simulation's entire trajectory, and two runs with the "
        "same master seed stop agreeing.  Every stochastic component must "
        "draw from its own named stream (sim.random.stream(name)) derived "
        "from the master seed; see repro.simnet.rand."
    )

    def on_call(self, ctx: FileContext, node: ast.Call, resolved: str) -> None:
        has_args = bool(node.args or node.keywords)
        if resolved.startswith("random."):
            member = resolved.split(".", 1)[1]
            if member == "Random":
                if not has_args:
                    self.report(
                        ctx, node,
                        "random.Random() without a seed argument",
                        "derive the seed with repro.simnet.rand.derive_seed "
                        "or use sim.random.stream(name)",
                    )
                return
            if member == "SystemRandom":
                self.report(
                    ctx, node,
                    "random.SystemRandom draws OS entropy and can never "
                    "be reproduced",
                    "use sim.random.stream(name)",
                )
                return
            self.report(
                ctx, node,
                f"call to global random.{member}",
                "draw from an injected sim.random.stream(name) instead",
            )
        elif resolved.startswith("numpy.random."):
            member = resolved.split(".", 2)[2]
            if member in _NUMPY_SEEDED_CONSTRUCTORS:
                if not has_args:
                    self.report(
                        ctx, node,
                        f"numpy.random.{member}() without a seed",
                        "pass a seed derived from the master seed "
                        "(repro.simnet.rand.derive_seed)",
                    )
                return
            self.report(
                ctx, node,
                f"call to global numpy.random.{member}",
                "use a seeded numpy Generator (numpy.random.default_rng"
                "(derive_seed(...))) or sim.random.stream(name)",
            )


class WallClockRule(Rule):
    """DET002: wall-clock reads outside the allowlisted boundary."""

    code = "DET002"
    name = "wall-clock-read"
    summary = (
        "wall-clock read (time.time, datetime.now, ...) outside the "
        "allowlisted host-time boundary"
    )
    rationale = (
        "Simulation code must read time from the scenario clock (sim.now / "
        "SimClock), which only the event scheduler advances.  A host clock "
        "read makes output depend on machine speed and run date, breaks "
        "bit-identical kill-and-resume checkpoints, and invalidates "
        "longitudinal comparisons.  Host timestamps are legitimate only as "
        "provenance metadata (store manifests, via repro.store.wallclock), "
        "the supervisor's worker watchdog and serve's request latency — "
        "all outside sim state."
    )

    def on_reference(
        self, ctx: FileContext, node: ast.AST, resolved: str
    ) -> None:
        if ctx.clock_allowlisted or resolved not in WALL_CLOCK_NAMES:
            return
        self.report(
            ctx, node,
            f"wall-clock read {resolved}",
            "use the scenario clock (sim.now) in simulation code, or "
            "repro.store.wallclock.now for provenance timestamps",
        )


class SetIterationRule(Rule):
    """DET003: ordering-sensitive iteration over sets."""

    code = "DET003"
    name = "unordered-set-iteration"
    summary = "order-sensitive iteration over a set/frozenset"
    rationale = (
        "A set's iteration order depends on its insertion history and, for "
        "str keys, on interpreter hash randomization — so the same logical "
        "state can replay events in a different order after a checkpoint "
        "restore or across hosts.  Checkpoints neutralize the hazard at "
        "serialization time (set-holding classes pickle sorted tuples, see "
        "simnet.simulator.canonical_sets); in live simulation and export "
        "paths it must be neutralized at the source: "
        "iterate sorted(s), or consume the set with an order-insensitive "
        "reduction (len, sum, min, max, any, all, set arithmetic)."
    )

    def on_iteration(
        self, ctx: FileContext, node: ast.AST, iter_node: ast.AST, context: str
    ) -> None:
        self.report(
            ctx, node,
            f"iteration over a set in a {context}",
            "wrap the set in sorted(...) or restructure into an "
            "order-insensitive reduction",
        )

    def on_set_pop(self, ctx: FileContext, node: ast.Call) -> None:
        self.report(
            ctx, node,
            "set.pop() removes an arbitrary (order-dependent) element",
            "pop from sorted(...) or use an explicit deterministic choice",
        )


class IdentityHashRule(Rule):
    """DET004: object identity as ordering or keying material."""

    code = "DET004"
    name = "identity-as-key"
    summary = "id()/hash() used where a stable key is required"
    rationale = (
        "id() is a memory address: it differs between runs and is never "
        "preserved across a checkpoint restore, so id-based tie-breakers "
        "or map keys replay differently.  Builtin hash() is salted per "
        "interpreter for str/bytes (PYTHONHASHSEED).  Scheduling "
        "tie-breakers must use explicit sequence numbers (as the event "
        "queue's (time, seq) ordering does) and keys must be stable "
        "domain identifiers (addresses, txids, names)."
    )

    # A reference hook, not a call hook: the hazard usually appears as a
    # bare ``key=id`` / ``key=hash`` tie-breaker, which is never a Call.
    def on_reference(
        self, ctx: FileContext, node: ast.AST, resolved: str
    ) -> None:
        if resolved == "id":
            self.report(
                ctx, node,
                "id() of an object is not stable across runs or restores",
                "key or order by a stable domain identifier instead",
            )
        elif resolved == "hash":
            self.report(
                ctx, node,
                "builtin hash() is salted per interpreter run for "
                "str/bytes keys",
                "use hashlib (as repro.simnet.rand.derive_seed does) or a "
                "stable domain identifier",
            )


class QueueLambdaRule(Rule):
    """PICK001: unpicklable callbacks reachable from a snapshot."""

    code = "PICK001"
    name = "unpicklable-callback"
    summary = (
        "lambda or nested function scheduled on the event queue or stored "
        "on an object"
    )
    rationale = (
        "Simulator.snapshot() pickles the live event queue and everything "
        "its callbacks reach.  Lambdas and nested functions cannot be "
        "pickled, so one of them on the queue (or stored on any "
        "snapshot-reachable object) turns every checkpoint attempt into a "
        "PicklingError at the worst possible moment — mid-campaign.  "
        "Callbacks must be module-level functions, bound methods, or "
        "functools.partial over those."
    )

    def on_schedule_callback(
        self,
        ctx: FileContext,
        call: ast.Call,
        arg: ast.AST,
        kind: str,
        method: str,
    ) -> None:
        what = "lambda" if kind == "lambda" else "nested function"
        self.report(
            ctx, arg,
            f"{what} passed to .{method}() ends up on the event queue and "
            f"breaks Simulator.snapshot()",
            "use a bound method or functools.partial over a module-level "
            "function",
        )

    def on_lambda_attr(
        self, ctx: FileContext, node: ast.AST, target: str
    ) -> None:
        self.report(
            ctx, node,
            f"lambda stored on self.{target} makes the object unpicklable",
            "store a bound method or functools.partial instead",
        )


class BlockingInAsyncRule(ProjectRule):
    """ASYNC001: a blocking call reachable from an ``async def``."""

    code = "ASYNC001"
    name = "blocking-call-in-async"
    summary = (
        "blocking call (sleep/file/socket/subprocess I/O) reachable from "
        "an async def without run_in_executor/to_thread"
    )
    rationale = (
        "The serve layer runs every request handler on one event loop: a "
        "single synchronous sleep, file read, or subprocess wait inside a "
        "coroutine stalls every connection, SSE stream, and job "
        "completion callback at once.  The blocking call is rarely "
        "visible in the handler itself — it hides two or three calls "
        "down, inside the store.  This rule propagates a may-block taint "
        "up the project call graph and reports the frontier: the exact "
        "call inside the async function where blocking work enters the "
        "loop.  Dispatching through loop.run_in_executor(...) or "
        "asyncio.to_thread(...) cuts the taint — that is the fix, not a "
        "suppression."
    )
    example = (
        "    async def _h_export(self, run_id):          # handler\n"
        "        data = self.store.load_manifest(run_id)  # ASYNC001:\n"
        "            # load_manifest -> Path.read_text -> file I/O\n"
        "\n"
        "fix — move the blocking chain onto a worker thread:\n"
        "\n"
        "    async def _h_export(self, run_id):\n"
        "        loop = asyncio.get_running_loop()\n"
        "        data = await loop.run_in_executor(\n"
        "            self._io, self.store.load_manifest, run_id)"
    )

    def check(self, graph: CallGraph) -> None:
        for func in graph.functions.values():
            if not func.is_async:
                continue
            for site in func.calls:
                reason = graph.blocking_reason(site.target)
                if reason is not None:
                    self.report_site(
                        func.path, site.lineno, site.col,
                        f"async {func.display} calls {site.target} "
                        f"({reason}), blocking the event loop",
                        "dispatch it with loop.run_in_executor(...) or "
                        "asyncio.to_thread(...)",
                    )
                    continue
                callee = graph.resolve_function(site.target)
                if callee is None or callee.is_async:
                    # Async callees report their own blocking frontier.
                    continue
                cause = graph.may_block.get(callee.key)
                if cause is None:
                    continue
                chain = " -> ".join(graph.chain(callee.key))
                self.report_site(
                    func.path, site.lineno, site.col,
                    f"async {func.display} reaches blocking I/O via "
                    f"{chain}",
                    "dispatch the sync chain with "
                    "loop.run_in_executor(...) or asyncio.to_thread(...)",
                )


class CrossThreadMutationRule(ProjectRule):
    """ASYNC004: loop-owned state touched from a non-loop thread."""

    code = "ASYNC004"
    name = "cross-thread-loop-mutation"
    summary = (
        "function marked '# repro-lint: loop-owned' called from "
        "executor/thread context without call_soon_threadsafe"
    )
    rationale = (
        "Job state, SSE subscriber lists, and metrics in the serve layer "
        "are mutated without locks because every mutation happens on the "
        "event-loop thread.  Supervisor callbacks, however, fire on "
        "executor threads — calling a loop-owned mutator from there is a "
        "data race that corrupts state rarely enough to survive testing. "
        " Mark loop-owned mutators with '# repro-lint: loop-owned'; the "
        "analysis traces which functions execute in thread context "
        "(executor submissions, Thread targets, on_event callbacks) and "
        "flags direct calls across the boundary.  "
        "loop.call_soon_threadsafe(fn, ...) is the sanctioned bridge and "
        "is recognized as such."
    )
    example = (
        "    def _on_event(job, event):        # runs on executor thread\n"
        "        job.supervisor_event(event)   # ASYNC004: loop-owned\n"
        "\n"
        "fix — hop onto the loop first:\n"
        "\n"
        "    def _on_event(loop, job, event):\n"
        "        loop.call_soon_threadsafe(job.supervisor_event, event)"
    )

    def check(self, graph: CallGraph) -> None:
        for key, context in graph.thread_ctx.items():
            func = graph.functions.get(key)
            if func is None:
                continue
            for site in func.calls:
                callee = graph.resolve_function(site.target)
                if callee is None or callee.key not in graph.loop_owned:
                    continue
                self.report_site(
                    func.path, site.lineno, site.col,
                    f"{func.display} runs in thread context ({context}) "
                    f"but calls loop-owned {callee.display} directly",
                    "bridge with loop.call_soon_threadsafe"
                    f"({callee.display.rsplit('.', 1)[-1]}, ...)",
                )


class HotPathAllocationRule(ProjectRule):
    """HOT001: allocation-bearing constructs in hot-path functions."""

    code = "HOT001"
    name = "hot-path-allocation"
    summary = (
        "allocation-bearing construct (closure, lambda, comprehension, "
        "dict/list/set literal, f-string) in a hot-path function"
    )
    rationale = (
        "The fast lane dispatches tens of thousands of events per second "
        "on one core; PR 6 bought its 2.15x by stripping per-event "
        "allocations (singleton replies, interned addresses, bare-tuple "
        "lane entries).  One careless f-string or list literal on that "
        "path re-introduces a malloc per event and quietly halves "
        "throughput — a regression the scale gate only catches after the "
        "fact.  Functions named in [tool.repro-lint] hot-paths or marked "
        "'# repro-lint: hot' — and everything they call, transitively — "
        "are held to the no-allocation discipline.  Tuples are exempt "
        "(cheap, often interned), as are allocations feeding a raise "
        "(error paths are cold).  A justified allocation (amortized "
        "caches, rare slow paths) takes an inline suppression with a "
        "rationale."
    )
    example = (
        "    # repro-lint: hot\n"
        "    def run_pass(self):\n"
        "        ready = [p for p in self.dirty]   # HOT001: allocates\n"
        "                                          # per event\n"
        "\n"
        "fix — hoist or restructure:\n"
        "\n"
        "    # repro-lint: hot\n"
        "    def run_pass(self):\n"
        "        dirty = self.dirty                # iterate the dict\n"
        "        while dirty:                      # directly; no copy\n"
        "            addr, peer = dirty.popitem()"
    )

    def check(self, graph: CallGraph) -> None:
        for key, origin in graph.hot.items():
            func = graph.functions.get(key)
            if func is None:
                continue
            for alloc in func.allocs:
                self.report_site(
                    func.path, alloc.lineno, alloc.col,
                    f"{alloc.what} in hot-path {func.display} "
                    f"({origin})",
                    "hoist the allocation out of the hot path, reuse a "
                    "preallocated object, or suppress with a rationale if "
                    "it is amortized",
                )


#: Registered rules, by code.
RULES: Dict[str, Type[Rule]] = {
    rule.code: rule
    for rule in (
        UnseededRandomRule,
        WallClockRule,
        SetIterationRule,
        IdentityHashRule,
        QueueLambdaRule,
        BlockingInAsyncRule,
        CrossThreadMutationRule,
        HotPathAllocationRule,
    )
}


def get_rule(code: str) -> Type[Rule]:
    try:
        return RULES[code]
    except KeyError:
        raise LintError(
            f"unknown rule code {code!r} (known: {', '.join(sorted(RULES))})"
        ) from None


def all_rules() -> List[Rule]:
    """A fresh instance of every rule, in code order."""
    return [rule_cls() for _, rule_cls in sorted(RULES.items())]
