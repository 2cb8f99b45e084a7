"""Unit tests for the figure experiment functions (tiny grids).

These verify the *plumbing* of each experiment — correct rows/columns,
normalization identities, aggregate rows — on minimal workload grids.
The paper-shape assertions live in benchmarks/ and tests/integration/.
"""

import math

import pytest

from repro.core.experiment import clear_cache
from repro.experiments import run_experiment
from repro.experiments.run_all import experiment_kwargs

H = 6_000_000
CPUS = ["swaptions", "raytrace"]
GPUS = ["xsbench", "ubench"]


@pytest.fixture(scope="module", autouse=True)
def _fresh():
    clear_cache()
    yield
    clear_cache()


class TestFig3a:
    def test_grid_shape(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        assert result.columns == ["cpu_app", "xsbench", "ubench"]
        labels = [row[0] for row in result.rows]
        assert labels == CPUS + ["gmean"]

    def test_values_in_unit_range(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        for row in result.rows:
            for value in row[1:]:
                assert 0.1 < value <= 1.1

    def test_gmean_between_min_and_max(self):
        result = run_experiment("fig3a", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        column = result.column("ubench")
        body, gmean = column[:-1], column[-1]
        assert min(body) <= gmean <= max(body)


class TestFig3b:
    def test_idle_baseline_normalization(self):
        result = run_experiment("fig3b", cpu_names=CPUS, gpu_names=GPUS, horizon_ns=H)
        for row in result.rows:
            for value in row[1:]:
                assert 0.3 < value < 1.5

    def test_gpu_without_idle_progress_is_undefined(self):
        # At 2 ms bfs makes no progress even next to idle CPUs, so its
        # cells have no reference: NaN, printed n/a, and so is its gmean.
        result = run_experiment(
            "fig3b", **experiment_kwargs("fig3b", quick=True, horizon_ms=2.0)
        )
        assert all(math.isnan(value) for value in result.column("bfs"))
        for gpu_name in ("sssp", "xsbench", "ubench"):
            assert all(0.3 < value < 1.5 for value in result.column(gpu_name))
        lines = result.render().splitlines()
        assert lines[3].split()[:2] == ["blackscholes", "n/a"]
        assert lines[-2].split()[:2] == ["gmean", "n/a"]


class TestFig4:
    def test_rows_and_loss_arithmetic(self):
        result = run_experiment("fig4", gpu_names=["xsbench"], horizon_ns=H)
        row = result.rows[0]
        assert row[0] == "xsbench"
        assert row[3] == pytest.approx(row[1] - row[2])

    def test_percentages(self):
        result = run_experiment("fig4", gpu_names=["bfs", "ubench"], horizon_ns=H)
        for row in result.rows:
            assert 0.0 <= row[2] <= row[1] <= 100.0


class TestFig5:
    def test_columns_present(self):
        result = run_experiment("fig5", cpu_names=["x264"], horizon_ns=H)
        assert result.cell("x264", "l1d_miss_increase_pct") >= 0
        assert result.cell("x264", "pollution_stall_ms") >= 0


class TestFig9:
    def test_custom_combo_subset(self):
        result = run_experiment(
            "fig9", combos=["Default", "Intr_to_single_core"], horizon_ns=H
        )
        labels = [row[0] for row in result.rows]
        assert labels == ["ubench_no_SSR", "Default", "Intr_to_single_core"]


class TestFig7:
    def test_pareto_labels_marked(self):
        result = run_experiment(
            "fig7",
            cpu_names=["swaptions"],
            combos=["Default", "Intr_to_single_core"],
            horizon_ns=H,
        )
        flags = {row[0]: row[3] for row in result.rows}
        assert set(flags.values()) <= {"yes", "no"}
        assert "yes" in flags.values()


class TestFig12:
    def test_threshold_columns(self):
        result = run_experiment("fig12a", cpu_names=["swaptions"], horizon_ns=H)
        assert result.columns == ["cpu_app", "default", "th_25", "th_5", "th_1"]

    def test_gpu_panel_normalized_to_idle(self):
        result = run_experiment("fig12b", cpu_names=["swaptions"], horizon_ns=H)
        assert result.cell("swaptions", "default") <= 1.1


class TestIpiExperiment:
    def test_has_four_run_rows_plus_summary(self):
        result = run_experiment("ipi", cpu_name="swaptions", horizon_ns=H)
        assert len(result.rows) == 5
        assert result.rows[-1][0] == "ipi_increase_x"
