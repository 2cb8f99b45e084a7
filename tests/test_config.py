"""Unit tests for system configuration."""

import pytest
from dataclasses import FrozenInstanceError

from repro.config import (
    COALESCE_WINDOW_PAPER_NS,
    CpuConfig,
    MitigationConfig,
    QosConfig,
    SystemConfig,
)


class TestImmutability:
    def test_system_config_frozen(self):
        with pytest.raises(FrozenInstanceError):
            SystemConfig().seed = 7

    def test_configs_hashable_and_cacheable(self):
        a = SystemConfig()
        b = SystemConfig()
        assert a == b and hash(a) == hash(b)
        assert a.with_mitigation(steer_to_single_core=True) != a

    def test_with_helpers_return_copies(self):
        base = SystemConfig()
        base.with_qos(enabled=True)
        assert not base.qos.enabled


class TestCpuConfig:
    def test_cycle_conversions_roundtrip(self):
        cpu = CpuConfig()
        assert cpu.cycles_to_ns(1234.0 * cpu.freq_ghz) == pytest.approx(1234.0)

    def test_frequency_matches_paper_testbed(self):
        assert CpuConfig().freq_ghz == 3.7
        assert CpuConfig().num_cores == 4


class TestLabels:
    def test_default(self):
        assert SystemConfig().label == "Default"

    def test_mitigation_label_order_stable(self):
        config = SystemConfig().with_mitigation(
            monolithic_bottom_half=True, steer_to_single_core=True
        )
        assert config.label == "Intr_to_single_core + Monolithic_bottom_half"

    def test_polling_label(self):
        assert (
            SystemConfig().with_mitigation(polling_period_ns=10_000).label == "Polling"
        )

    def test_qos_labels(self):
        assert QosConfig(enabled=True, ssr_time_threshold=0.25).label == "th_25"
        assert QosConfig(enabled=True, ssr_time_threshold=0.01).label == "th_1"
        assert QosConfig(enabled=False).label == "default"
        assert QosConfig(enabled=True, adaptive=True).label == "th_adaptive"

    def test_combined_label(self):
        config = SystemConfig().with_mitigation(coalesce_window_ns=13_000).with_qos(
            enabled=True, ssr_time_threshold=0.05
        )
        assert config.label == "Intr_coalescing + QoS(th_5)"


class TestPaperConstants:
    def test_coalesce_window(self):
        assert COALESCE_WINDOW_PAPER_NS == 13_000

    def test_qos_defaults_match_fig11(self):
        qos = QosConfig()
        assert qos.initial_delay_ns == 10_000  # 10 us, doubling
