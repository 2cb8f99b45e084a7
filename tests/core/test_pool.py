"""Tests for the warm execution backend: pool mechanics, equivalence,
crash isolation, and cost-model dispatch ordering.

The acceptance bar is the module's contract: pooled and serial results
are byte-for-byte identical, a second batch spawns zero new workers,
and a failed run fails only itself.
"""

import json
import os
import signal

import pytest

from repro.config import SystemConfig
from repro.core import (
    clear_cache,
    execute_runs,
    make_run_key,
    order_longest_first,
    plan_runs,
    run_key_digest,
    set_cost_ledger,
    set_disk_cache,
    shared_pool,
    shared_pool_stats,
    shutdown_shared_pool,
)
from repro.core.experiment import cache_lookup
from repro.core.pool import TaskResult, WorkerPool
from repro.core.runcache import CostModel, cost_model

HORIZON = 1_000_000
CPUS = ["x264", "blackscholes"]
GPUS = ["bfs", "ubench"]


@pytest.fixture(autouse=True)
def isolated_everything():
    """Fresh caches, fresh cost model, no leftover resident workers."""
    clear_cache()
    set_disk_cache(None)
    set_cost_ledger(None)
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()
    clear_cache()
    set_disk_cache(None)
    set_cost_ledger(None)


def kwargs_for(experiment_id: str) -> dict:
    kwargs = {"horizon_ns": HORIZON}
    if experiment_id in ("fig3a", "fig3b"):
        kwargs["cpu_names"] = CPUS
        kwargs["gpu_names"] = GPUS
    if experiment_id == "fig4":
        kwargs["gpu_names"] = GPUS
    return kwargs


def fig4_keys():
    keys, skipped = plan_runs(["fig4"], kwargs_for)
    assert keys and skipped == []
    return keys


def snapshot(keys) -> dict:
    """Byte-exact view of the memory cache for ``keys``."""
    return {
        run_key_digest(key): json.dumps(
            cache_lookup(key).as_dict(), sort_keys=True
        )
        for key in keys
    }


# ----------------------------------------------------------------------
# Lightweight runners for direct pool-mechanics tests (module-level so
# fork workers can resolve them by reference).
# ----------------------------------------------------------------------
def echo_task(value):
    return value * 2


def faulty_task(value):
    if value == 2:
        raise ValueError(f"injected failure for value {value}")
    return value * 2


def deadly_task(value):
    if value == 1:
        os._exit(3)
    return value * 2


class TestRunTask:
    def test_dropped_results_leave_no_trace_event_alive(self):
        """A finished run's System is cyclic garbage until the next full
        collection; the events run_task hands over must not live as long."""
        import gc

        from repro.core.pool import run_task
        from repro.telemetry import TraceEvent

        gc.collect()
        gc.disable()
        try:
            for key in fig4_keys()[:3]:
                metrics, info = run_task(key, 4000)
                assert info["events"]
                del metrics, info
            alive = sum(isinstance(o, TraceEvent) for o in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0


class TestWorkerPool:
    """Direct pool mechanics with trivial runners (no simulation)."""

    def make_pool(self, workers, **kwargs):
        kwargs.setdefault("start_method", "fork")
        kwargs.setdefault("recycle_after", 0)
        return WorkerPool(workers, **kwargs)

    def test_batch_returns_every_result(self):
        pool = self.make_pool(2, runner=echo_task)
        try:
            results = pool.run_batch([(i,) for i in range(6)])
            assert len(results) == 6
            assert all(isinstance(r, TaskResult) and r.ok for r in results)
            by_index = {r.index: r.payload for r in results}
            assert by_index == {i: i * 2 for i in range(6)}
            assert pool.stats.tasks_completed == 6
            assert pool.stats.spawned_workers == 2
        finally:
            pool.shutdown()

    def test_second_batch_reuses_workers(self):
        pool = self.make_pool(2, runner=echo_task)
        try:
            pool.run_batch([(i,) for i in range(4)])
            assert pool.stats.warm_hits == 0  # everyone spawned this batch
            pool.run_batch([(i,) for i in range(4)])
            assert pool.stats.spawned_workers == 2  # nobody new
            assert pool.stats.batches == 2
            assert pool.stats.warm_hits == 4  # all of batch 2 served warm
            assert pool.stats.warm_hit_ratio == pytest.approx(0.5)
        finally:
            pool.shutdown()

    def test_worker_recycles_after_n_tasks(self):
        pool = self.make_pool(1, recycle_after=2, runner=echo_task)
        try:
            results = pool.run_batch([(i,) for i in range(5)])
            assert sorted(r.payload for r in results) == [0, 2, 4, 6, 8]
            # 5 tasks at 2-per-life: two planned retirements, three spawns.
            assert pool.stats.recycled_workers == 2
            assert pool.stats.spawned_workers == 3
            assert pool.stats.crashed_workers == 0
        finally:
            pool.shutdown()

    def test_task_exception_fails_only_that_task(self):
        pool = self.make_pool(2, runner=faulty_task)
        try:
            results = pool.run_batch([(1,), (2,), (3,)])
            failed = [r for r in results if not r.ok]
            assert len(failed) == 1
            assert "ValueError" in failed[0].error
            assert "injected failure for value 2" in failed[0].error
            assert sorted(r.payload for r in results if r.ok) == [2, 6]
            assert pool.stats.tasks_failed == 1
            assert pool.stats.crashed_workers == 0  # the worker survived
        finally:
            pool.shutdown()

    def test_worker_death_fails_only_its_task(self):
        pool = self.make_pool(2, runner=deadly_task)
        try:
            results = pool.run_batch([(0,), (1,), (2,)])
            failed = [r for r in results if not r.ok]
            assert len(failed) == 1
            assert "died with exit code 3" in failed[0].error
            assert sorted(r.payload for r in results if r.ok) == [0, 4]
            assert pool.stats.crashed_workers >= 1
            # The pool is still serviceable after the crash.
            again = pool.run_batch([(0,), (2,)])
            assert all(r.ok for r in again)
        finally:
            pool.shutdown()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_terminate_ends_a_worker_despite_the_parent_handler(self):
        # hiss serve installs a SIGTERM handler that only sets a drain
        # flag; fork workers inherit it.  Interpreter exit terminates and
        # then joins every daemonic worker, so a worker that survived
        # SIGTERM would hang the daemon after "drained, bye".
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        pool = self.make_pool(1, runner=echo_task)
        try:
            assert pool.run_batch([(1,)])[0].ok  # the worker is serving
            (handle,) = pool._workers.values()
            handle.process.terminate()
            handle.process.join(timeout=10)
            assert not handle.process.is_alive()
        finally:
            signal.signal(signal.SIGTERM, previous)
            pool.shutdown()


class TestSharedPool:
    def test_shared_pool_is_a_singleton_per_worker_count(self):
        pool = shared_pool(2)
        assert shared_pool(2) is pool
        other = shared_pool(3)  # different strength: fresh pool
        assert other is not pool
        assert not pool.alive
        shutdown_shared_pool()
        assert not other.alive

    def test_stats_are_zero_without_a_pool(self):
        stats = shared_pool_stats()
        assert stats["spawned_workers"] == 0.0
        assert stats["live_workers"] == 0.0
        assert stats["warm_hit_ratio"] == 0.0


class TestWarmEquivalence:
    """Warm-pool and serial runs agree byte for byte."""

    def test_serial_warm_cold_results_identical(self):
        keys = fig4_keys()
        report = execute_runs(keys, jobs=1)
        assert report.executed == len(keys) and not report.failed
        serial = snapshot(keys)

        # Warm: two batches through the resident pool.
        clear_cache()
        half = len(keys) // 2
        first = execute_runs(keys[:half], jobs=2)
        stats_after_first = shared_pool_stats()
        second = execute_runs(keys[half:], jobs=2)
        stats_after_second = shared_pool_stats()
        assert first.executed == half and second.executed == len(keys) - half
        assert not first.failed and not second.failed
        assert first.pool and second.pool  # warm path reports pool stats
        assert snapshot(keys) == serial

        # The second batch spawned nobody and ran entirely warm.
        assert stats_after_first["spawned_workers"] == 2.0
        assert stats_after_second["spawned_workers"] == 2.0
        assert stats_after_second["batches"] == 2.0
        assert stats_after_second["warm_hits"] == float(len(keys) - half)

    def test_predicted_core_s_reported_before_execution(self):
        keys = fig4_keys()
        report = execute_runs(keys, jobs=1)
        # No observations yet: every key's cost is unknown (0.0).
        assert report.predicted_core_s == 0.0
        # The serial pass observed real timings; a re-run of the same
        # keys is all cache hits and predicts nothing.
        again = execute_runs(keys, jobs=1)
        assert again.executed == 0
        assert again.predicted_core_s == 0.0

    def test_summary_mentions_pool_when_warm(self):
        keys = fig4_keys()
        report = execute_runs(keys, jobs=2)
        assert "warm pool" in report.summary()
        assert "spawned" in report.summary()


class TestCrashIsolation:
    """A key that cannot simulate fails alone; the batch completes."""

    BOGUS = make_run_key("not-a-real-app", "bfs", True, SystemConfig(), HORIZON)

    def test_serial_path_isolates_the_failure(self):
        keys = fig4_keys()
        report = execute_runs([self.BOGUS] + keys, jobs=1)
        assert report.executed == len(keys)
        assert len(report.failed) == 1
        failed_key, error = report.failed[0]
        assert failed_key == self.BOGUS
        assert "not-a-real-app" in error
        assert all(cache_lookup(key) is not None for key in keys)
        assert cache_lookup(self.BOGUS) is None
        assert "FAILED" in report.summary()

    def test_warm_pool_path_isolates_the_failure(self):
        keys = fig4_keys()
        report = execute_runs([self.BOGUS] + keys, jobs=2)
        assert report.executed == len(keys)
        assert len(report.failed) == 1
        assert report.failed[0][0] == self.BOGUS
        assert "not-a-real-app" in report.failed[0][1]
        assert all(cache_lookup(key) is not None for key in keys)


class TestCostModel:
    KEY = make_run_key("x264", "bfs", True, SystemConfig(), HORIZON)

    def test_fallback_chain(self):
        model = CostModel()
        # 1. Nothing observed: unknown, predicted as 0.0.
        assert model.predict(self.KEY) == 0.0
        model.observe(self.KEY, 2.0)
        # 2. Exact digest: the observed mean, horizon-independent.
        assert model.predict(self.KEY) == pytest.approx(2.0)
        model.observe(self.KEY, 4.0)
        assert model.predict(self.KEY) == pytest.approx(3.0)
        # 3. Same (cpu, gpu, ssr) at another horizon: observed rate.
        doubled = make_run_key("x264", "bfs", True, SystemConfig(), HORIZON * 2)
        assert model.predict(doubled) == pytest.approx(6.0)
        # 4. Unseen pairing: global rate.
        stranger = make_run_key(
            "blackscholes", "ubench", False, SystemConfig(), HORIZON
        )
        assert model.predict(stranger) == pytest.approx(3.0)

    def test_nonpositive_observations_ignored(self):
        model = CostModel()
        model.observe(self.KEY, 0.0)
        model.observe(self.KEY, -1.0)
        assert model.observations == 0
        assert model.predict(self.KEY) == 0.0

    def test_ledger_roundtrip(self, tmp_path):
        path = str(tmp_path / "cost_ledger.jsonl")
        writer = CostModel(path)
        writer.observe(self.KEY, 2.5)
        reader = CostModel(path)
        assert reader.observations == 1
        assert reader.predict(self.KEY) == pytest.approx(2.5)

    def test_ledger_tolerates_torn_lines(self, tmp_path):
        path = tmp_path / "cost_ledger.jsonl"
        CostModel(str(path)).observe(self.KEY, 1.5)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "truncat')  # crashed writer
        survivor = CostModel(str(path))
        assert survivor.observations == 1
        assert survivor.predict(self.KEY) == pytest.approx(1.5)


class TestDispatchOrder:
    def test_order_is_deterministic_without_observations(self):
        keys = fig4_keys()
        predict = cost_model().predict
        first = order_longest_first(keys, predict)
        second = order_longest_first(list(reversed(keys)), predict)
        assert first == second
        digest = lambda key: run_key_digest(key, fingerprint="")  # noqa: E731
        assert sorted(first, key=digest) == first  # digest tie-break
        assert set(first) == set(keys)

    def test_order_does_not_move_with_the_code_fingerprint(self, monkeypatch):
        from repro.core import runcache

        keys = fig4_keys()
        orders = []
        for fingerprint in ("a" * 64, "b" * 64):
            monkeypatch.setattr(
                runcache, "code_fingerprint", lambda fingerprint=fingerprint: fingerprint
            )
            assert run_key_digest(keys[0]) != run_key_digest(keys[0], fingerprint="")
            orders.append(order_longest_first(keys, cost_model().predict))
        assert orders[0] == orders[1]

    def test_observed_long_runs_dispatch_first(self):
        keys = fig4_keys()
        model = cost_model()
        slow, fast = keys[-1], keys[0]
        model.observe(slow, 30.0)
        model.observe(fast, 0.01)
        ordered = order_longest_first(keys, model.predict)
        assert ordered[0] == slow
        assert ordered[-1] == fast
