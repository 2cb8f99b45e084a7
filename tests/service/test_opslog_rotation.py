"""Size-based rotation for path-backed ops JSONL logs.

Includes rotation x postmortem interplay: the flight recorder writes
bundles *next to* a rotating ops log, and rotation mid-capture must
never tear a bundle or drop its ``postmortem.written`` ops event.
"""

import json
import os
import threading

import pytest

from repro.obsd import (
    FlightRecorder,
    PostmortemStore,
    TriggerSpec,
    validate_postmortem,
)
from repro.service.obs import OpsLog


def _lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestRotation:
    def test_rotates_when_the_live_file_crosses_max_bytes(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=200)
        for index in range(10):
            log.log("tick", n=index)
        log.close()
        assert log.rotations >= 1
        assert os.path.exists(f"{path}.1")
        # The live file restarted below the limit after the last rotation.
        assert os.path.getsize(path) < 200

    def test_backups_shift_and_cap_at_keep_n(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=80, backups=2)
        for index in range(40):
            log.log("tick", n=index)
        log.close()
        assert log.rotations > 3  # enough churn to exercise the cap
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")

    def test_rotation_preserves_order_and_loses_only_evicted_lines(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=120, backups=8)
        total = 25
        for index in range(total):
            log.log("tick", n=index)
        log.close()
        files = [f"{path}.{i}" for i in range(log.rotations, 0, -1)]
        files = [f for f in files if os.path.exists(f)] + [str(path)]
        collected = [record["n"] for f in files for record in _lines(f)]
        assert collected == list(range(total))  # oldest backup -> live file

    def test_no_torn_json_lines_in_any_generation(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=150, backups=4)

        def writer(worker):
            for index in range(50):
                log.log("tick", worker=worker, n=index, pad="x" * 20)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        survivors = 0
        for name in os.listdir(tmp_path):
            # Every line in every generation parses as a complete record.
            for record in _lines(tmp_path / name):
                assert record["event"] == "tick"
                survivors += 1
        # Generations beyond keep-N were evicted whole; nothing was torn.
        assert 0 < survivors <= log.lines

    def test_no_rotation_without_max_bytes(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path))
        for index in range(200):
            log.log("tick", n=index)
        log.close()
        assert log.rotations == 0
        assert not os.path.exists(f"{path}.1")
        assert len(_lines(path)) == 200

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            OpsLog(None, max_bytes=0)
        with pytest.raises(ValueError, match="backups"):
            OpsLog(None, backups=0)


class TestRotationWithPostmortems:
    def _recorder(self, tmp_path, log, keep=50):
        store = PostmortemStore(str(tmp_path / "pm"), keep=keep)
        recorder = FlightRecorder(
            store,
            triggers=(
                TriggerSpec("manual", "manual", debounce_s=0.0, max_per_hour=1000),
            ),
            ops_log=log,
        )
        log.tee = recorder.observe
        return recorder

    def test_rotation_mid_capture_never_tears_a_bundle(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        # Tiny max_bytes: nearly every record (including each capture's
        # own postmortem.written event) forces a rotation.
        log = OpsLog.open_path(str(path), max_bytes=120, backups=100)
        recorder = self._recorder(tmp_path, log)
        captures = 24
        for index in range(captures):
            log.log("tick", n=index, pad="x" * 30)
            assert recorder.trigger_manual(f"capture {index}", at_s=float(index))
        log.close()
        assert log.rotations > captures // 2  # rotation churn was real
        # Every bundle on disk is whole and validates.
        bundles = recorder.store.paths()
        assert len(bundles) == captures
        for bundle_path in bundles:
            with open(bundle_path) as handle:
                assert validate_postmortem(json.load(handle)) == []
        assert recorder.capture_errors == 0

    def test_postmortem_written_events_survive_across_generations(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=150, backups=200)
        recorder = self._recorder(tmp_path, log)
        captures = 16
        for index in range(captures):
            assert recorder.trigger_manual(f"capture {index}", at_s=float(index))
        log.close()
        written = []
        for name in os.listdir(tmp_path):
            full = tmp_path / name
            if not full.is_file():
                continue
            for record in _lines(full):
                if record["event"] == "postmortem.written":
                    written.append(record)
        # Backups are deep enough that nothing was evicted: one whole
        # postmortem.written line per capture, spread over generations.
        assert len(written) == captures
        ids = sorted(record["id"] for record in written)
        assert ids == sorted(f"pm-{i:06d}-manual" for i in range(captures))

    def test_concurrent_captures_and_rotation_stay_whole(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        log = OpsLog.open_path(str(path), max_bytes=200, backups=8)
        recorder = self._recorder(tmp_path, log, keep=100)

        def chatter():
            for index in range(60):
                log.log("tick", n=index, pad="y" * 25)

        def capture(base):
            for index in range(8):
                recorder.trigger_manual("stress", at_s=base + float(index))

        threads = [threading.Thread(target=chatter) for _ in range(2)] + [
            threading.Thread(target=capture, args=(100.0 * w,)) for w in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        assert recorder.capture_errors == 0
        for bundle_path in recorder.store.paths():
            with open(bundle_path) as handle:
                assert validate_postmortem(json.load(handle)) == []
        # Rotation kept every surviving ops line parseable.
        for name in os.listdir(tmp_path):
            full = tmp_path / name
            if full.is_file():
                _lines(full)
