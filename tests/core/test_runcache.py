"""Tests for the persistent run cache: stable hashing, hit/miss/invalidation."""

import json
import os
import subprocess
import sys

import pytest

from repro.config import SystemConfig
from repro.core import (
    DiskCache,
    clear_cache,
    code_fingerprint,
    make_run_key,
    run_key_digest,
    run_workloads,
    set_disk_cache,
)
from repro.core.experiment import cache_lookup, cache_store
from repro.core.metrics import SystemMetrics
from repro.core.runcache import run_key_document

HORIZON = 300_000


@pytest.fixture(autouse=True)
def isolated_caches():
    clear_cache()
    set_disk_cache(None)
    yield
    clear_cache()
    set_disk_cache(None)


def small_key(**overrides):
    config = overrides.pop("config", SystemConfig())
    return make_run_key(
        overrides.pop("cpu", None),
        overrides.pop("gpu", "ubench"),
        overrides.pop("ssr", True),
        config,
        overrides.pop("horizon", HORIZON),
    )


class TestStableHashing:
    def test_digest_deterministic_within_process(self):
        key = small_key()
        assert run_key_digest(key) == run_key_digest(key)

    def test_equal_configs_equal_digests(self):
        assert run_key_digest(small_key()) == run_key_digest(
            small_key(config=SystemConfig())
        )

    def test_any_key_component_changes_digest(self):
        base = run_key_digest(small_key())
        assert run_key_digest(small_key(cpu="x264")) != base
        assert run_key_digest(small_key(ssr=False)) != base
        assert run_key_digest(small_key(horizon=HORIZON + 1)) != base
        assert (
            run_key_digest(small_key(config=SystemConfig(seed=7))) != base
        )

    def test_mitigation_fields_reach_the_digest(self):
        tuned = SystemConfig().with_mitigation(coalesce_window_ns=13_000)
        assert run_key_digest(small_key(config=tuned)) != run_key_digest(small_key())

    def test_digest_stable_across_processes(self):
        """The whole point: another interpreter computes the same address."""
        key = small_key()
        script = (
            "from repro.config import SystemConfig\n"
            "from repro.core import make_run_key, run_key_digest\n"
            f"key = make_run_key(None, 'ubench', True, SystemConfig(), {HORIZON})\n"
            "print(run_key_digest(key))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == run_key_digest(key)

    def test_fingerprint_in_digest(self):
        key = small_key()
        assert run_key_digest(key, "fp-a") != run_key_digest(key, "fp-b")

    def test_schema_digest_reflects_nested_fields(self):
        digest = SystemConfig.schema_digest()
        assert digest == SystemConfig.schema_digest()
        # The walk must reach nested config dataclasses, not just the top.
        document = run_key_document(small_key(), "fp")
        assert "coalesce_window_ns" in json.dumps(document)

    def test_config_stable_json_round_trips_floats(self):
        config = SystemConfig()
        parsed = json.loads(config.stable_json())
        assert parsed["cpu"]["freq_ghz"] == config.cpu.freq_ghz


class TestDiskCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = small_key()
        assert cache.get(key) is None
        assert cache.misses == 1
        set_disk_cache(cache)
        metrics = run_workloads(None, "ubench", True, None, HORIZON)
        assert cache.stores == 1
        # A fresh process-level cache must be served from disk, exactly.
        clear_cache()
        again = run_workloads(None, "ubench", True, None, HORIZON)
        assert cache.hits == 1
        assert again == metrics

    def test_roundtrip_is_bit_exact(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = small_key(cpu="x264")
        set_disk_cache(cache)
        metrics = run_workloads("x264", "ubench", True, None, HORIZON)
        restored = SystemMetrics.from_dict(
            json.loads(json.dumps(metrics.as_dict()))
        )
        assert restored == metrics
        clear_cache()
        assert cache_lookup(key) == metrics

    def test_fingerprint_change_invalidates(self, tmp_path):
        old = DiskCache(str(tmp_path), fingerprint="old-code")
        key = small_key()
        cache_store_key_via(old, key)
        assert old.get(key) is not None
        new = DiskCache(str(tmp_path), fingerprint="new-code")
        assert new.get(key) is None  # address differs: automatic invalidation
        assert new.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = small_key()
        cache_store_key_via(cache, key)
        with open(cache.path_for(key), "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_tampered_fingerprint_field_rejected(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = small_key()
        cache_store_key_via(cache, key)
        path = cache.path_for(key)
        with open(path) as handle:
            entry = json.load(handle)
        entry["fingerprint"] = "someone-elses-code"
        with open(path, "w") as handle:
            json.dump(entry, handle)
        assert cache.get(key) is None

    def test_len_counts_entries(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert len(cache) == 0
        cache_store_key_via(cache, small_key())
        cache_store_key_via(cache, small_key(ssr=False))
        assert len(cache) == 2

    def test_code_fingerprint_is_cached_and_hexadecimal(self):
        fingerprint = code_fingerprint()
        assert fingerprint == code_fingerprint()
        int(fingerprint, 16)
        assert len(fingerprint) == 64

    def test_reset_code_fingerprint_clears_the_memo(self):
        from repro.core import reset_code_fingerprint
        from repro.core.runcache import code_fingerprint as fp

        before = fp()
        assert fp.cache_info().currsize == 1
        reset_code_fingerprint()
        assert fp.cache_info().currsize == 0
        # Same sources on disk: same digest, freshly recomputed.
        assert fp() == before

    def test_changed_fingerprint_changes_the_memoized_digest(self, monkeypatch):
        """The digest memo keys on the resolved fingerprint: after a reset
        that yields new code state, a key seen before gets a new digest."""
        import repro
        from repro.core import reset_code_fingerprint

        key = small_key()
        before = run_key_digest(key)
        assert run_key_digest(key) == before  # served from the memo
        monkeypatch.setattr(repro, "__version__", repro.__version__ + "+edit")
        reset_code_fingerprint()
        try:
            assert run_key_digest(key) != before
        finally:
            monkeypatch.undo()
            reset_code_fingerprint()
        assert run_key_digest(key) == before

    def test_counters_are_thread_safe(self, tmp_path):
        import threading

        cache = DiskCache(str(tmp_path))
        hit_key = small_key()
        cache_store_key_via(cache, hit_key)
        miss_key = small_key(ssr=False)
        per_thread, threads = 200, 8

        def hammer():
            for _ in range(per_thread):
                assert cache.get(hit_key) is not None
                assert cache.get(miss_key) is None

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        hits, misses, stores = cache.stats()
        assert hits == per_thread * threads
        assert misses == per_thread * threads
        assert stores == 1


def cache_store_key_via(cache: DiskCache, key) -> None:
    """Simulate once (memoized) and persist through the given cache."""
    set_disk_cache(None)
    metrics = run_workloads(key[0], key[1], key[2], key[3], key[4])
    cache.put(key, metrics)
