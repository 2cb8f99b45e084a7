"""Tests for the parallel experiment engine: planning, fan-out, equivalence."""

import json

import pytest

from repro.config import SystemConfig
from repro.core import (
    clear_cache,
    execute_runs,
    make_run_key,
    plan_runs,
    planning,
    prewarm_experiments,
    resolve_jobs,
    run_workloads,
    set_disk_cache,
)
from repro.core.experiment import _CACHE
from repro.experiments import run_experiment
from repro.experiments.common import UNPLANNABLE

#: Short horizon + tiny grids keep every test here in seconds.
HORIZON = 1_000_000
CPUS = ["x264", "blackscholes"]
GPUS = ["bfs", "ubench"]


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def kwargs_for(experiment_id: str) -> dict:
    kwargs = {"horizon_ns": HORIZON}
    if experiment_id in ("fig3a", "fig3b"):
        kwargs["cpu_names"] = CPUS
        kwargs["gpu_names"] = GPUS
    if experiment_id == "fig4":
        kwargs["gpu_names"] = GPUS
    return kwargs


class TestPlanning:
    def test_planning_records_without_simulating(self):
        with planning() as collected:
            run_workloads("x264", "ubench", True, None, HORIZON)
        assert collected == {
            make_run_key("x264", "ubench", True, SystemConfig(), HORIZON)
        }
        assert not _CACHE  # nothing simulated, nothing memoized

    def test_placeholders_support_experiment_arithmetic(self):
        with planning():
            metrics = run_workloads("x264", "ubench", True, None, HORIZON)
        assert metrics.cpu_app.instructions > 0
        assert metrics.gpu.performance_metric() > 0
        assert metrics.interrupt_balance() >= 0

    def test_fig3a_plan_is_the_full_grid(self):
        keys, skipped = plan_runs(["fig3a"], kwargs_for)
        # Each (cpu, gpu) pair needs an SSR and a no-SSR run.
        assert len(keys) == len(CPUS) * len(GPUS) * 2
        assert skipped == []

    def test_shared_baselines_dedupe_across_figures(self):
        keys_a, _ = plan_runs(["fig3a"], kwargs_for)
        keys_both, _ = plan_runs(["fig3a", "fig3b"], kwargs_for)
        # fig3b reuses fig3a's SSR pair runs and adds idle-CPU baselines.
        assert len(keys_both) < len(keys_a) + len(CPUS) * len(GPUS) + len(GPUS)
        assert len(set(keys_both)) == len(keys_both)

    def test_unplannable_experiments_are_skipped(self, monkeypatch):
        from repro.core import System

        def no_simulation(self, *args, **kwargs):
            raise AssertionError("planning simulated a System")

        # table1 drives Systems directly: planning must never call it.
        monkeypatch.setattr(System, "run", no_simulation)
        keys, skipped = plan_runs(["table1"], lambda _eid: {})
        assert keys == []
        assert skipped == ["table1"]
        assert "table1" in UNPLANNABLE

    def test_planning_does_not_nest(self):
        with planning():
            with pytest.raises(RuntimeError):
                with planning():
                    pass

    def test_plan_order_is_deterministic(self):
        first, _ = plan_runs(["fig4"], kwargs_for)
        second, _ = plan_runs(["fig4"], kwargs_for)
        assert first == second


class TestExecution:
    def test_serial_vs_parallel_rows_identical(self):
        """The acceptance bar: --jobs N output == serial output, exactly."""
        serial = run_experiment("fig4", **kwargs_for("fig4"))
        clear_cache()
        report = prewarm_experiments(["fig4"], kwargs_for, jobs=2)
        assert report.executed == report.planned > 0
        parallel = run_experiment("fig4", **kwargs_for("fig4"))
        assert parallel.columns == serial.columns
        assert parallel.rows == serial.rows  # float-exact, not approximate

    def test_parallel_fig3a_equivalence(self):
        serial = run_experiment("fig3a", **kwargs_for("fig3a"))
        clear_cache()
        prewarm_experiments(["fig3a"], kwargs_for, jobs=2)
        parallel = run_experiment("fig3a", **kwargs_for("fig3a"))
        assert parallel.rows == serial.rows

    def test_execute_runs_respects_memory_cache(self):
        keys, _ = plan_runs(["fig4"], kwargs_for)
        report = execute_runs(keys, jobs=1)
        assert report.executed == len(keys)
        again = execute_runs(keys, jobs=1)
        assert again.executed == 0
        assert again.memory_hits == len(keys)

    def test_execute_runs_uses_disk_cache(self, tmp_path):
        from repro.core import DiskCache

        set_disk_cache(DiskCache(str(tmp_path)))
        keys, _ = plan_runs(["fig4"], kwargs_for)
        execute_runs(keys, jobs=1)
        clear_cache()  # drop memory level; disk must serve everything
        report = execute_runs(keys, jobs=1)
        assert report.executed == 0
        assert report.disk_hits == len(keys)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestCli:
    def test_jobs_flag_end_to_end(self, tmp_path, capsys):
        from repro.experiments.run_all import main

        code = main(
            [
                "fig4",
                "--quick",
                "--horizon-ms", "1",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "planned" in out
        assert "worker" in out
        assert "cache" in out

    def test_trace_is_the_same_at_every_jobs(self, tmp_path, capsys):
        from collections import Counter

        from repro.core.pool import run_label
        from repro.experiments.run_all import experiment_kwargs, main

        def trace(jobs: int):
            clear_cache()  # a cached run is not re-simulated, so not traced
            path = tmp_path / f"trace-j{jobs}.json"
            argv = ["fig4", "--quick", "--horizon-ms", "2", "--trace", str(path)]
            assert main(argv + ["--jobs", str(jobs)]) == 0
            doc = json.loads(path.read_text())
            tracks = {
                (e["pid"], e["tid"]): e["args"]["name"]
                for e in doc["traceEvents"]
                if e.get("ph") == "M" and e["name"] == "thread_name"
            }
            events = Counter(
                json.dumps(
                    dict(e, track=tracks[e.pop("pid"), e.pop("tid")]),
                    sort_keys=True,
                )
                for e in doc["traceEvents"]
                if e.get("ph") != "M"
            )
            return set(tracks.values()), events, doc["otherData"]["metrics"]

        keys, _ = plan_runs(
            ["fig4"], lambda e: experiment_kwargs(e, quick=True, horizon_ms=2)
        )
        labels = {run_label(key) for key in keys}
        serial, parallel = trace(1), trace(2)
        capsys.readouterr()
        for tracks, _events, _metrics in (serial, parallel):
            assert tracks and all(t.split(" | ")[0] in labels for t in tracks)
        assert serial[1] == parallel[1]
        assert serial[2] == parallel[2]
        assert serial[2]["histograms"]["ssr.latency_ns"]["count"] > 0

    def test_elapsed_s_serialized(self):
        result = run_experiment("fig4", **kwargs_for("fig4"))
        assert result.as_dict()["elapsed_s"] == result.elapsed_s
        assert result.elapsed_s > 0
