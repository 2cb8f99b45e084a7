"""Unit tests for workload profile dataclasses and catalogs."""

import pytest

from repro.workloads import (
    CpuAppProfile,
    GPU_APP_NAMES,
    GPU_NAMES,
    PARSEC_NAMES,
    gpu_app,
    parsec,
)


class TestCpuAppProfile:
    def test_validation_threads(self):
        with pytest.raises(ValueError):
            CpuAppProfile(name="bad", threads=0)

    def test_validation_duty_length(self):
        with pytest.raises(ValueError):
            CpuAppProfile(name="bad", threads=4, thread_duty=(1.0,))

    def test_validation_duty_range(self):
        with pytest.raises(ValueError):
            CpuAppProfile(name="bad", thread_duty=(1.0, 0.0, 1.0, 1.0))

    def test_profiles_hashable(self):
        assert hash(parsec("x264")) == hash(parsec("x264"))


class TestCatalogs:
    def test_thirteen_parsec_benchmarks(self):
        assert len(PARSEC_NAMES) == 13

    def test_paper_parsec_names_present(self):
        for name in ("blackscholes", "fluidanimate", "raytrace", "streamcluster", "x264"):
            assert name in PARSEC_NAMES

    def test_six_gpu_workloads(self):
        assert len(GPU_NAMES) == 6
        assert "ubench" in GPU_NAMES
        assert "ubench" not in GPU_APP_NAMES

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            parsec("doom")
        with pytest.raises(KeyError):
            gpu_app("doom")

    def test_paper_characterizations(self):
        """The traits the paper calls out explicitly."""
        raytrace = parsec("raytrace")
        assert raytrace.thread_duty[0] == 1.0
        assert all(duty < 0.2 for duty in raytrace.thread_duty[1:])

        fluidanimate = parsec("fluidanimate")
        assert fluidanimate.barriers

        streamcluster = parsec("streamcluster")
        assert streamcluster.barriers and streamcluster.think_ns == 0

        bfs = gpu_app("bfs")
        assert bfs.burst_faults > 0  # clustered early faults

        ubench = gpu_app("ubench")
        assert not ubench.blocking
        # A continuous storm: under 50 us between faults while computing.
        assert ubench.compute_chunk_ns / ubench.faults_per_chunk < 50_000

        sssp = gpu_app("sssp")
        assert sssp.blocking and sssp.dependent_faults > 0
