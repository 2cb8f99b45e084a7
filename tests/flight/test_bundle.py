"""Bundle build/validate and the atomic keep-N PostmortemStore.

The store's contract mirrors ops-log rotation: whole files only — a
reader never sees a torn bundle, and eviction removes the oldest bundle
entire, never truncates it.
"""

import json
import os

import pytest

from repro.obsd import (
    FlightRing,
    PostmortemStore,
    blame_top_k,
    build_postmortem,
    list_bundles,
    postmortem_id,
    validate_postmortem,
)

CONFIG = {
    "version": "1.0.0",
    "code_fingerprint": "f" * 64,
    "schema_digest": "d" * 64,
    "label": "default",
    "system": {"gpu": {}},
}


def _bundle(sequence=0, kind="manual", ring=None):
    if ring is None:
        ring = FlightRing(16)
        ring.append(1.0, "job.started", {"job": "job-1"})
    return build_postmortem(
        trigger={"name": "manual", "kind": kind, "at_s": 2.0, "detail": "test"},
        captured_s=2.0,
        sequence=sequence,
        config=dict(CONFIG),
        flight_ring=ring.as_dict(),
    )


class TestBuildAndValidate:
    def test_well_formed_bundle_validates_clean(self):
        doc = _bundle()
        assert validate_postmortem(doc) == []
        assert doc["id"] == postmortem_id(0, "manual") == "pm-000000-manual"

    def test_round_trip_through_json_stays_valid(self):
        doc = json.loads(json.dumps(_bundle(), sort_keys=True))
        assert validate_postmortem(doc) == []

    def test_rejects_wrong_schema_and_missing_fields(self):
        assert validate_postmortem([]) != []
        assert validate_postmortem({"schema": "nope"}) != []
        doc = _bundle()
        del doc["trigger"]["at_s"]
        assert any("at_s" in p for p in validate_postmortem(doc))

    def test_rejects_id_sequence_mismatch(self):
        doc = _bundle(sequence=3)
        doc["id"] = "pm-000099-manual"
        assert any("sequence/kind" in p for p in validate_postmortem(doc))

    def test_rejects_overweight_ring(self):
        doc = _bundle()
        doc["flight_ring"]["entries"][0]["weight"] = 99
        assert any("exceed appended" in p for p in validate_postmortem(doc))

    def test_rejects_job_section_without_spans(self):
        doc = _bundle()
        doc["jobs"] = [{"job_id": "job-1"}]
        assert any("spans" in p for p in validate_postmortem(doc))


class TestBlameTopK:
    def test_sorts_by_charge_with_deterministic_ties(self):
        profiles = [
            {
                "run": "bfs+MemcachedService",
                "ledger": {
                    "entries": [
                        {"ssr": "tlb", "channel": "l2", "victim": "bfs",
                         "app": "memcached", "core": 0, "ns": 500},
                        {"ssr": "pf", "channel": "dram", "victim": "bfs",
                         "app": "memcached", "core": 1, "ns": 900},
                    ]
                },
            },
            {
                "run": "sssp+FsService",
                "ledger": {
                    "entries": [
                        {"ssr": "io", "channel": "l2", "victim": "sssp",
                         "app": "fs", "core": 0, "ns": 900},
                    ]
                },
            },
        ]
        rows = blame_top_k(profiles, k=2)
        assert [row["ns"] for row in rows] == [900, 900]
        # Equal charge: run label breaks the tie deterministically.
        assert [row["run"] for row in rows] == [
            "bfs+MemcachedService", "sssp+FsService",
        ]
        assert blame_top_k(profiles, k=2) == rows

    def test_tolerates_profiles_without_ledgers(self):
        assert blame_top_k([{"run": "x"}, None, {"ledger": {}}]) == []


class TestPostmortemStore:
    def test_write_is_atomic_and_loadable(self, tmp_path):
        store = PostmortemStore(str(tmp_path), keep=5)
        doc = _bundle()
        path = store.write(doc)
        assert os.path.exists(path)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert store.load(doc["id"]) == json.loads(json.dumps(doc, sort_keys=True))

    def test_keep_n_evicts_oldest_whole(self, tmp_path):
        store = PostmortemStore(str(tmp_path), keep=3)
        for sequence in range(6):
            store.write(_bundle(sequence=sequence))
        names = sorted(os.listdir(tmp_path))
        assert names == [f"pm-{s:06d}-manual.json" for s in (3, 4, 5)]
        assert store.written == 6
        assert store.evicted == 3
        # Survivors are intact, not truncated.
        for name in names:
            assert validate_postmortem(
                json.loads((tmp_path / name).read_text())
            ) == []

    def test_rejects_keep_below_one(self, tmp_path):
        with pytest.raises(ValueError):
            PostmortemStore(str(tmp_path), keep=0)

    def test_load_sanitizes_hostile_ids(self, tmp_path):
        store = PostmortemStore(str(tmp_path))
        store.write(_bundle())
        assert store.load("../pm-000000-manual") is None
        assert store.load("pm/../../etc/passwd") is None
        assert store.load("") is None
        assert store.load("pm-999999-manual") is None

    def test_index_and_list_bundles_summarize(self, tmp_path):
        store = PostmortemStore(str(tmp_path), keep=5)
        store.write(_bundle(sequence=0))
        store.write(_bundle(sequence=1))
        rows = store.index()
        assert [row["id"] for row in rows] == [
            "pm-000000-manual", "pm-000001-manual",
        ]
        assert all(row["ring_entries"] == 1 for row in rows)
        assert all(row["bytes"] > 0 for row in rows)
        # list_bundles never creates the directory.
        assert list_bundles(str(tmp_path / "missing")) == []
        assert not (tmp_path / "missing").exists()

    def test_list_bundles_skips_torn_json(self, tmp_path):
        store = PostmortemStore(str(tmp_path), keep=5)
        store.write(_bundle())
        (tmp_path / "pm-000009-manual.json").write_text('{"truncated')
        rows = list_bundles(str(tmp_path))
        assert [row["id"] for row in rows] == ["pm-000000-manual"]
