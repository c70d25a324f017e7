"""Tests for the supervised runner (repro.core.supervisor / parallel)."""

import os
import time
from dataclasses import replace
from functools import partial

import pytest

from repro.core.decode import decode_file
from repro.core.parallel import seed_range
from repro.core.supervisor import Supervisor, SupervisorConfig, run_supervised
from repro.core.sync_experiments import SyncCampaignConfig, run_sync_campaign
from repro.errors import ConfigurationError, SeedTaskError
from repro.faults.plan import FaultPlan

EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "examples")

#: Fast supervision for tests: immediate retries, no polling slack.
FAST = SupervisorConfig(retries=2, backoff=0.0)


# ---------------------------------------------------------------------------
# Module-level tasks (must be picklable for worker processes)
# ---------------------------------------------------------------------------
def _double(seed):
    return seed * 2


def _raise_on(bad_seed, seed):
    if seed == bad_seed:
        raise ValueError(f"deterministic failure for {seed}")
    return seed * 2


def _always_crash(seed):
    os._exit(3)


def _crash_once(sentinel_dir, seed):
    sentinel = os.path.join(sentinel_dir, f"crashed-{seed}")
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("x")
        os._exit(7)
    return seed * 10


def _faulted_sync_then_crash(sentinel, crash_seed, config):
    """A sync run under faults whose worker dies once after the work:
    a pure infrastructure crash."""
    result = run_sync_campaign(config)
    if config.seed == crash_seed and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(17)
    return result


def _hang(hang_seed, seed):
    if seed == hang_seed:
        time.sleep(60.0)
    return seed * 2


def _stored_then_crash(store_root, sentinel_dir, seed):
    """Complete a stored campaign, then die once — the retry must be a
    pure cache hit (completed seeds are never recomputed)."""
    from repro.netmodel.scenario import LongitudinalConfig
    from repro.store.campaign import run_stored_campaign

    config = LongitudinalConfig(seed=seed, scale=0.002, snapshots=2)
    stored = run_stored_campaign(store_root, config)
    sentinel = os.path.join(sentinel_dir, f"crashed-{seed}")
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as fh:
            fh.write("x")
        os._exit(9)
    return stored.cached


# ---------------------------------------------------------------------------
# Happy path and ordering
# ---------------------------------------------------------------------------
class TestSupervisedHappyPath:
    def test_results_in_input_order(self):
        run = run_supervised(_double, [5, 3, 9, 1], workers=4, config=FAST)
        assert run.ok
        assert run.results == [10, 6, 18, 2]
        assert run.failures == []
        assert run.retried_indexes == []

    def test_inline_matches_parallel(self):
        seeds = [4, 7, 2]
        inline = run_supervised(_double, seeds, workers=1, config=FAST)
        parallel = run_supervised(_double, seeds, workers=3, config=FAST)
        assert inline.results == parallel.results

    def test_single_item_runs_inline(self):
        run = run_supervised(_double, [6], workers=8, config=FAST)
        assert run.results == [12]

    def test_labels_default_to_items(self):
        run = run_supervised(_double, [5, 6], workers=1, config=FAST)
        assert run.labels == [5, 6]

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="labels"):
            run_supervised(_double, [1, 2], workers=1, labels=[1])


# ---------------------------------------------------------------------------
# Crash handling
# ---------------------------------------------------------------------------
class TestCrashes:
    def test_crash_once_is_retried_and_reported(self, tmp_path):
        task = partial(_crash_once, str(tmp_path))
        run = run_supervised(task, [11, 12, 13], workers=3, config=FAST)
        assert run.ok
        assert run.results == [110, 120, 130]
        # Every seed crashed exactly once, then succeeded on retry.
        assert run.retried_indexes == [0, 1, 2]
        assert run.retried_labels == [11, 12, 13]

    def test_permanent_crash_yields_partial_results(self):
        config = SupervisorConfig(retries=1, backoff=0.0)
        run = run_supervised(_mixed_crash, [1, 2, 3], workers=3, config=config)
        assert not run.ok
        assert run.results == [2, None, 6]
        assert run.failed_indexes == [1]
        [failure] = run.failures
        assert isinstance(failure, SeedTaskError)
        assert failure.seed == 2
        assert failure.attempts == 2  # first try + one retry
        assert "crashed" in failure.cause
        assert "exit code" in failure.cause

    def test_faulted_seed_retried_after_a_crash_equals_a_clean_run(self, tmp_path):
        """A short sync campaign under the shipped partition plan, one
        worker dying once after its work: the retry is reported, no seed
        fails, the faults fired, and the retried seed is bit-identical
        to an undisturbed run."""
        base = SyncCampaignConfig(
            n_reachable=10, churn_per_10min=3.0, pre_mined_blocks=15,
            sample_period=200.0, poll_spread=80.0, warmup=150.0,
            duration=2400.0,
            faults=decode_file(FaultPlan, os.path.join(EXAMPLES, "faultplan_partition.json")),
        )
        seeds, crash_seed = [3, 7, 11], 7
        task = partial(_faulted_sync_then_crash, str(tmp_path / "crashed-once"), crash_seed)
        run = run_supervised(
            task, [replace(base, seed=seed) for seed in seeds], workers=3,
            config=SupervisorConfig(timeout=900.0, retries=2, backoff=0.1),
            labels=seeds,
        )
        assert run.ok, run.failures
        assert run.failed_labels == [] and run.retried_labels == [crash_seed]
        for stat in ("messages_dropped", "messages_delayed"):
            assert sum(result.fault_stats[stat] for result in run.results) > 0
        clean = run_sync_campaign(replace(base, seed=crash_seed))
        redone = run.results[seeds.index(crash_seed)]
        assert redone.sync_samples == clean.sync_samples
        assert redone.fault_stats == clean.fault_stats

    def test_crash_records_exit_code(self):
        config = SupervisorConfig(retries=0, backoff=0.0)
        run = run_supervised(_always_crash, [1, 2], workers=2, config=config)
        assert run.results == [None, None]
        assert all("exit code 3" in f.cause for f in run.failures)


def _mixed_crash(seed):
    if seed == 2:
        os._exit(5)
    return seed * 2


# ---------------------------------------------------------------------------
# Hang handling
# ---------------------------------------------------------------------------
class TestHangs:
    def test_hung_worker_is_timed_out(self):
        config = SupervisorConfig(timeout=1.5, retries=0, backoff=0.0)
        run = run_supervised(
            partial(_hang, 2), [1, 2, 3], workers=3, config=config
        )
        assert run.results == [2, None, 6]
        [failure] = run.failures
        assert failure.seed == 2
        assert "hung" in failure.cause

    def test_campaign_with_crash_and_hang_completes(self, tmp_path):
        """Acceptance: one worker crashing (retried, succeeds) and one
        seed hanging past its timeout; the campaign still completes with
        correct partial/retried bookkeeping."""
        config = SupervisorConfig(timeout=2.0, retries=1, backoff=0.0)
        task = partial(_crash_then_hang, str(tmp_path))
        run = run_supervised(task, [1, 2, 3, 4], workers=4, config=config)
        assert run.results[0] == 10
        assert run.results[1] is None  # hangs on every attempt
        assert run.results[2] == 30
        assert run.results[3] == 40
        assert run.failed_labels == [2]
        assert "hung" in run.failures[0].cause
        assert run.failures[0].attempts == 2
        assert run.retried_labels == [1]


def _crash_then_hang(sentinel_dir, seed):
    if seed == 1:
        return _crash_once(sentinel_dir, seed)
    if seed == 2:
        time.sleep(60.0)
    return seed * 10


# ---------------------------------------------------------------------------
# Task exceptions are not retried
# ---------------------------------------------------------------------------
class TestTaskExceptions:
    def test_exception_fails_without_retry(self):
        run = run_supervised(
            partial(_raise_on, 7), [6, 7, 8], workers=3, config=FAST
        )
        assert run.results == [12, None, 16]
        [failure] = run.failures
        assert failure.seed == 7
        assert failure.attempts == 1  # no retries for clean exceptions
        assert "ValueError" in failure.cause
        assert "deterministic failure" in failure.cause

    def test_inline_exception_is_structured_too(self):
        run = run_supervised(
            partial(_raise_on, 7), [7], workers=1, config=FAST
        )
        assert run.results == [None]
        assert run.failures[0].seed == 7


# ---------------------------------------------------------------------------
# Degradation when processes cannot be spawned
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_spawn_failure_degrades_to_inline(self, monkeypatch):
        import repro.core.supervisor as sup

        class _Unspawnable:
            def __init__(self, *args, **kwargs):
                self._args = kwargs.get("args", ())

            def start(self):
                raise OSError("no processes for you")

        monkeypatch.setattr(sup.multiprocessing, "Process", _Unspawnable)
        run = run_supervised(_double, [1, 2, 3], workers=3, config=FAST)
        assert run.ok
        assert run.results == [2, 4, 6]


# ---------------------------------------------------------------------------
# Partial reporting and configuration validation
# ---------------------------------------------------------------------------
class TestStrictWrapper:
    def test_run_supervised_reports_instead_of_raising(self):
        run = run_supervised(
            partial(_raise_on, 2), [1, 2, 3], workers=3, config=FAST
        )
        assert not run.ok
        assert run.results == [2, None, 6]
        assert run.failed_labels == [2]

    def test_supervisor_config_validation(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            SupervisorConfig(timeout=0.0).validate()
        with pytest.raises(ConfigurationError, match="retries"):
            SupervisorConfig(retries=-1).validate()
        with pytest.raises(ConfigurationError, match="backoff"):
            SupervisorConfig(backoff=-0.5).validate()


class TestWorkerConfiguration:
    def test_seed_range_error_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            seed_range(10, 0)


# ---------------------------------------------------------------------------
# Store integration: completed seeds are never recomputed
# ---------------------------------------------------------------------------
class TestStoreIntegration:
    def test_retry_after_crash_is_a_cache_hit(self, tmp_path):
        store_root = str(tmp_path / "store")
        task = partial(_stored_then_crash, store_root, str(tmp_path))
        run = run_supervised(task, [3, 4], workers=2, config=FAST)
        assert run.ok
        assert run.retried_labels == [3, 4]
        # The retry found each seed's completed campaign in the store:
        # the returned flags are the retry attempts' `cached` markers.
        assert run.results == [True, True]


class TestSupervisorClassSurface:
    def test_supervisor_object_reusable_configuration(self):
        supervisor = Supervisor(_double, [2, 4], workers=1, config=FAST)
        run = supervisor.run()
        assert run.results == [4, 8]
        assert run.completed() == [4, 8]


# ---------------------------------------------------------------------------
# Progress events: ordering and terminal-state invariants
# ---------------------------------------------------------------------------
def _check_event_grammar(events, n_items):
    """Assert the per-item event grammar the serving layer relies on:

    ``scheduled`` -> (``started`` [-> ``retrying``])* -> exactly one
    ``completed`` | ``failed``, and nothing after the terminal event.
    """
    by_index = {}
    for ev in events:
        by_index.setdefault(ev.index, []).append(ev)
    assert sorted(by_index) == list(range(n_items))
    for index, stream in by_index.items():
        kinds = [ev.kind for ev in stream]
        assert kinds[0] == "scheduled", (index, kinds)
        assert stream[0].attempt == 0
        assert kinds.count("scheduled") == 1, (index, kinds)
        # Exactly one terminal event, and it is last.
        terminals = [k for k in kinds if k in ("completed", "failed")]
        assert len(terminals) == 1, (index, kinds)
        assert kinds[-1] in ("completed", "failed"), (index, kinds)
        assert stream[-1].terminal
        # Every attempt opens with `started`; `retrying` only between
        # a started attempt and the next one.
        for prev, ev in zip(stream, stream[1:]):
            if ev.kind == "started":
                assert prev.kind in ("scheduled", "retrying"), (index, kinds)
                assert ev.attempt == prev.attempt + 1
            if ev.kind == "retrying":
                assert prev.kind == "started", (index, kinds)
                assert ev.attempt == prev.attempt
            if ev.kind in ("completed", "failed"):
                assert prev.kind == "started", (index, kinds)
                assert ev.attempt == prev.attempt


class TestSupervisorEvents:
    def _collect(self, task, items, **kwargs):
        events = []
        run = run_supervised(task, items, on_event=events.append, **kwargs)
        return run, events

    def test_inline_happy_path_grammar(self):
        run, events = self._collect(_double, [5, 9], workers=1, config=FAST)
        assert run.ok
        _check_event_grammar(events, 2)
        assert [ev.kind for ev in events if ev.index == 0] == [
            "scheduled", "started", "completed",
        ]

    def test_all_items_scheduled_before_any_starts(self):
        run, events = self._collect(
            _double, [1, 2, 3], workers=2, config=FAST
        )
        assert run.ok
        first_start = next(
            i for i, ev in enumerate(events) if ev.kind == "started"
        )
        scheduled = [ev for ev in events[:first_start]]
        assert [ev.kind for ev in scheduled] == ["scheduled"] * 3
        assert [ev.index for ev in scheduled] == [0, 1, 2]

    def test_parallel_happy_path_grammar(self):
        run, events = self._collect(
            _double, [5, 3, 9, 1], workers=4, config=FAST
        )
        assert run.ok
        _check_event_grammar(events, 4)
        assert all(
            ev.kind in ("scheduled", "started", "completed") for ev in events
        )

    def test_crash_retry_emits_retrying_between_attempts(self, tmp_path):
        # Two items so the supervisor stays in worker processes (a
        # single item degrades to inline, where os._exit would kill us).
        task = partial(_crash_once, str(tmp_path))
        run, events = self._collect(task, [7, 8], workers=2, config=FAST)
        assert run.ok and run.retried_labels == [7, 8]
        _check_event_grammar(events, 2)
        first = [ev for ev in events if ev.index == 0]
        assert [ev.kind for ev in first] == [
            "scheduled", "started", "retrying", "started", "completed",
        ]
        assert [ev.attempt for ev in first] == [0, 1, 1, 2, 2]
        assert "exit code" in first[2].detail

    def test_permanent_crash_terminates_with_failed(self):
        run, events = self._collect(
            _always_crash, [1, 2], workers=2,
            config=SupervisorConfig(retries=1, backoff=0.0),
        )
        assert not run.ok
        _check_event_grammar(events, 2)
        first = [ev for ev in events if ev.index == 0]
        assert [ev.kind for ev in first] == [
            "scheduled", "started", "retrying", "started", "failed",
        ]

    def test_task_exception_fails_without_retry(self):
        task = partial(_raise_on, 3)
        run, events = self._collect(task, [3, 4], workers=2, config=FAST)
        assert run.failed_labels == [3]
        _check_event_grammar(events, 2)
        bad = [ev for ev in events if ev.index == 0]
        assert [ev.kind for ev in bad] == ["scheduled", "started", "failed"]
        assert "deterministic failure" in bad[-1].detail

    def test_inline_task_exception_grammar_matches(self):
        task = partial(_raise_on, 3)
        run, events = self._collect(task, [3], workers=1, config=FAST)
        assert run.failed_labels == [3]
        _check_event_grammar(events, 1)
        assert [ev.kind for ev in events] == ["scheduled", "started", "failed"]

    def test_event_labels_and_to_dict(self):
        run, events = self._collect(
            _double, [5], workers=1, config=FAST, labels=["seed-5"]
        )
        assert run.ok
        assert {ev.label for ev in events} == {"seed-5"}
        payload = events[-1].to_dict()
        assert payload["kind"] == "completed"
        assert payload["index"] == 0
        assert payload["label"] == "seed-5"
        assert payload["attempt"] == 1

    def test_detail_is_truncated(self):
        task = partial(_raise_on, 3)
        _, events = self._collect(task, [3], workers=1, config=FAST)
        assert all(len(ev.detail) <= 500 for ev in events)

    def test_no_callback_is_the_default_and_free(self):
        run = run_supervised(_double, [2], workers=1, config=FAST)
        assert run.results == [4]
