"""Golden run metrics: one simulated run per event-path branch, pinned.

``data/golden_metrics_5ms.json`` holds ``SystemMetrics.as_dict()`` of
each run below at a 5 ms horizon.  Each case drives a different path
through the event loop: the split top-half/bottom-half chain, barrier
threads, a pinned-memory baseline, the GPU alone on idle cores, IOMMU
coalescing, steering with the monolithic handler, polling, and the QoS
governor at a threshold it stays under (th_25), one it enforces by
back-off (th_5), and an adaptive one.

The simulator is deterministic, so a change that only makes it faster
must reproduce every number.  Integer counters compare exactly.  Floats
compare at ``rel=1e-12``, because CPython 3.12's compensated float
``sum()`` moves some totals in the last digit relative to 3.9/3.11.  A
change that means to move a number regenerates the data file, and says
why, with::

    PYTHONPATH=src python tests/integration/test_golden_metrics.py
"""

import json
import os

import pytest

from repro.config import COALESCE_WINDOW_PAPER_NS, SystemConfig
from repro.core.experiment import make_run_key, simulate_run

DATA = os.path.join(os.path.dirname(__file__), "data", "golden_metrics_5ms.json")
HORIZON_NS = 5_000_000

_BASE = SystemConfig()

#: case id -> (cpu app, gpu app, SSRs enabled, config).
CASES = {
    "split": ("x264", "ubench", True, _BASE),
    "barrier_app": ("fluidanimate", "sssp", True, _BASE),
    "no_ssr_baseline": ("x264", "ubench", False, _BASE),
    "gpu_alone": (None, "bfs", True, _BASE),
    "coalesce_13us": (
        "x264", "ubench", True,
        _BASE.with_mitigation(coalesce_window_ns=COALESCE_WINDOW_PAPER_NS),
    ),
    "steer_monolithic": (
        "x264", "ubench", True,
        _BASE.with_mitigation(steer_to_single_core=True, monolithic_bottom_half=True),
    ),
    "polling": (
        "x264", "ubench", True, _BASE.with_mitigation(polling_period_ns=20_000)
    ),
    "qos_th_25": (
        "x264", "ubench", True, _BASE.with_qos(enabled=True, ssr_time_threshold=0.25)
    ),
    "qos_th_5": (
        "x264", "ubench", True, _BASE.with_qos(enabled=True, ssr_time_threshold=0.05)
    ),
    "qos_adaptive": (
        "x264", "ubench", True, _BASE.with_qos(enabled=True, adaptive=True)
    ),
}


def produce(case_id):
    """The case's metrics as plain JSON data (int dict keys become strings)."""
    cpu, gpu, ssr, config = CASES[case_id]
    metrics = simulate_run(make_run_key(cpu, gpu, ssr, config, HORIZON_NS))
    return json.loads(json.dumps(metrics.as_dict()))


def assert_same(value, want, where):
    if isinstance(want, dict):
        assert isinstance(value, dict) and sorted(value) == sorted(want), where
        for name in want:
            assert_same(value[name], want[name], f"{where}.{name}")
    elif isinstance(want, list):
        assert isinstance(value, list) and len(value) == len(want), where
        for index, (item, expected) in enumerate(zip(value, want)):
            assert_same(item, expected, f"{where}[{index}]")
    elif isinstance(want, float):
        assert value == pytest.approx(want, rel=1e-12, abs=0.0), where
    else:
        assert type(value) is type(want) and value == want, where


GOLDEN = {}
if os.path.exists(DATA):  # absent only until the first regeneration
    with open(DATA, "r", encoding="utf-8") as _handle:
        GOLDEN = json.load(_handle)


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


def test_cases_reach_their_branches():
    """Each pinned run exercises what its case id claims."""
    assert GOLDEN["no_ssr_baseline"]["ssr_requests"] == 0
    assert GOLDEN["gpu_alone"]["cpu_app"] is None
    for case_id in ("split", "barrier_app", "steer_monolithic", "polling"):
        assert GOLDEN[case_id]["ssr_completed"] > 0, case_id
    coalesced = GOLDEN["coalesce_13us"]
    assert coalesced["ssr_interrupts"] < coalesced["ssr_requests"]
    assert GOLDEN["polling"]["ssr_interrupts"] == 0
    assert GOLDEN["qos_th_25"]["qos_throttle_events"] == 0
    for case_id in ("qos_th_5", "qos_adaptive"):
        assert GOLDEN[case_id]["qos_throttle_events"] > 0, case_id


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_run_matches_golden(case_id):
    assert_same(produce(case_id), GOLDEN[case_id], case_id)


if __name__ == "__main__":  # pragma: no cover - manual tool
    recorded = {case_id: produce(case_id) for case_id in sorted(CASES)}
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {DATA} ({len(recorded)} cases)")
