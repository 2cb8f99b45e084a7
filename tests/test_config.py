"""Unit tests for system configuration."""

import copy
import dataclasses
import hashlib
import multiprocessing
import os
import pickle

import pytest
from dataclasses import FrozenInstanceError

from repro.config import (
    COALESCE_WINDOW_PAPER_NS,
    CpuConfig,
    MitigationConfig,
    QosConfig,
    SystemConfig,
)

#: The figure menu a served job draws from.
MENU = ("fig3a", "fig3b", "fig4", "fig5", "ipi")

#: Digests of the config schema and the default config's rendering; every
#: run-key digest, and so every disk-cache entry, rests on both.
SCHEMA_DIGEST = "d42b67a01aceb09fea76a7b8ccd4eea859cb97217316a6e76ce9f7695660ac88"
DEFAULT_JSON_SHA256 = "29329ea69e6cd91d8a35d228a4cd934a648e5a40a01af24e98d4f548713c177c"


def submit_menu():
    """Plan and dedupe-key the menu the way a submission does."""
    from repro.experiments.common import REGISTRY
    from repro.service.jobs import JobSpec
    from repro.service.scheduler import dedupe_key_for, plan_spec

    spec = JobSpec.from_document(
        {"experiments": list(MENU), "quick": True, "horizon_ms": 5}, REGISTRY
    )
    keys, _serial = plan_spec(spec)
    dedupe_key_for(spec, keys)
    return keys


def steered():
    return SystemConfig().with_mitigation(steer_to_single_core=True)


def look_up_steered(table):
    """Runs in a spawned child: find a parent-built key by a fresh config."""
    return table[steered()]


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


class TestRenderAndHashOnce:
    def test_rendering_and_schema_are_unchanged(self):
        assert SystemConfig.schema_digest() == SCHEMA_DIGEST
        rendered = SystemConfig().stable_json().encode("utf-8")
        assert hashlib.sha256(rendered).hexdigest() == DEFAULT_JSON_SHA256

    def test_replanning_renders_no_config_and_hashes_each_once(self, monkeypatch):
        from repro.core import runcache

        submit_menu()
        built, field_hashes, rendered = [], [], []
        real_init, real_hash = SystemConfig.__init__, MitigationConfig.__hash__
        real_asdict = dataclasses.asdict

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self)

        def counting_hash(self):
            # A config's field hash hashes its mitigation exactly once.
            field_hashes.append(self)
            return real_hash(self)

        def recording_asdict(obj, *args, **kwargs):
            rendered.append(type(obj).__name__)
            return real_asdict(obj, *args, **kwargs)

        monkeypatch.setattr(SystemConfig, "__init__", recording_init)
        monkeypatch.setattr(MitigationConfig, "__hash__", counting_hash)
        monkeypatch.setattr(dataclasses, "asdict", recording_asdict)
        monkeypatch.setattr(runcache, "asdict", recording_asdict)
        keys = submit_menu()
        assert len(keys) == 56
        assert "SystemConfig" not in rendered
        # Planning builds fresh but equal configs; each hashes its fields
        # once however many lookups, sorts and digests its keys go through.
        assert built
        assert 0 < len(field_hashes) <= len(built)

    def test_cached_hash_stays_out_of_pickled_and_copied_state(self):
        config = steered()
        hash(config)
        names = {f.name for f in dataclasses.fields(SystemConfig)}
        clones = (
            pickle.loads(pickle.dumps(config)),
            copy.copy(config),
            copy.deepcopy(config),
        )
        for clone in clones:
            assert clone == config
            assert set(vars(clone)) == names
        assert set(dataclasses.asdict(config)) == names

    def test_spawned_child_finds_a_key_hashed_here(self, monkeypatch):
        table = {steered(): "found"}
        # The child hashes strings with a seed other than this process's.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            found = pool.apply_async(look_up_steered, (table,)).get(timeout=60)
        assert found == "found"
