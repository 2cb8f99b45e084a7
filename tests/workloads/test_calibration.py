"""Unit tests for steady-state calibration of CPU profiles."""

import pytest

from repro.config import CpuConfig
from repro.workloads import parsec, steady_state_for
from repro.workloads.calibration import address_spec_for


class TestSpecDerivation:
    def test_spec_mirrors_profile(self):
        profile = parsec("canneal")
        spec = address_spec_for(profile)
        assert spec.lines == profile.ws_lines
        assert spec.hot_rate == profile.hot_rate


class TestSteadyState:
    def test_caching_returns_same_object(self):
        cpu = CpuConfig()
        assert steady_state_for(parsec("x264"), cpu) is steady_state_for(
            parsec("x264"), cpu
        )

    def test_cpi_at_least_base(self):
        cpu = CpuConfig()
        for name in ("x264", "canneal", "blackscholes"):
            steady = steady_state_for(parsec(name), cpu)
            assert steady.cpi >= parsec(name).base_cpi

    def test_canneal_misses_more_than_blackscholes(self):
        cpu = CpuConfig()
        assert (
            steady_state_for(parsec("canneal"), cpu).miss_rate
            > steady_state_for(parsec("blackscholes"), cpu).miss_rate
        )

    def test_instructions_for_ns(self):
        cpu = CpuConfig()
        steady = steady_state_for(parsec("swaptions"), cpu)
        instructions = steady.instructions_for_ns(1_000_000, cpu.freq_ghz)
        # ~3.7M cycles in a millisecond; CPI >= 0.8 bounds instruction count.
        assert 0 < instructions <= 1_000_000 * cpu.freq_ghz / 0.8
