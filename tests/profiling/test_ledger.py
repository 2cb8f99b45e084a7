"""Unit tests for the interference ledger and victim collapsing."""

import pytest

from repro.profiling import (
    ALL_CHANNELS,
    CH_BOTTOM_HALF,
    CH_IPI,
    CH_POLLUTION,
    CH_TOP_HALF,
    CH_WORKER,
    NO_VICTIM,
    NULL_LEDGER,
    InterferenceLedger,
    SIDE_CHANNELS,
    SSR_SERVICE_CHANNELS,
    victim_app,
)


class TestVictimApp:
    def test_cpu_app_worker_collapses_to_app(self):
        assert victim_app("blackscholes/3") == "blackscholes"

    def test_gpu_host_stays_whole(self):
        assert victim_app("gpu-host/bfs") == "gpu-host/bfs"

    def test_kernel_threads_collapse(self):
        for name in ("kworker/2", "iommu/bh", "iommu/poll", "kdaemon"):
            assert victim_app(name) == "kernel"

    def test_swapper_is_idle(self):
        assert victim_app("swapper/5") == "idle"

    def test_missing_victim(self):
        assert victim_app(None) == NO_VICTIM
        assert victim_app(NO_VICTIM) == NO_VICTIM


class TestInterferenceLedger:
    def test_charge_accumulates_per_cell(self):
        ledger = InterferenceLedger()
        ledger.charge("iommu-ppr", CH_TOP_HALF, "blackscholes/0", 2, 100)
        ledger.charge("iommu-ppr", CH_TOP_HALF, "blackscholes/0", 2, 50)
        ledger.charge("page_fault", CH_WORKER, None, 1, 30)
        assert len(ledger) == 2
        totals = ledger.channel_totals()
        assert totals[CH_TOP_HALF] == 150
        assert totals[CH_WORKER] == 30

    def test_service_vs_side_totals(self):
        ledger = InterferenceLedger()
        ledger.charge("iommu-ppr", CH_BOTTOM_HALF, None, 0, 70)
        ledger.charge("resched-ipi", CH_IPI, "facesim/1", 3, 11)
        ledger.charge("uarch", CH_POLLUTION, "facesim/1", 3, 9)
        assert ledger.service_total_ns() == 70
        assert ledger.side_total_ns() == 20

    def test_entries_sorted_and_app_collapsed(self):
        ledger = InterferenceLedger()
        ledger.charge("page_fault", CH_WORKER, "swapper/2", 2, 5)
        ledger.charge("iommu-ppr", CH_TOP_HALF, "fluidanimate/0", 0, 500)
        entries = ledger.entries()
        assert [e["ns"] for e in entries] == [500, 5]
        assert entries[0]["app"] == "fluidanimate"
        assert entries[1]["app"] == "idle"
        assert entries[1]["victim"] == "swapper/2"

    def test_no_victim_placeholder(self):
        ledger = InterferenceLedger()
        ledger.charge("page_fault", CH_WORKER, None, 0, 1)
        (entry,) = ledger.entries()
        assert entry["victim"] == NO_VICTIM
        assert entry["app"] == NO_VICTIM

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            InterferenceLedger().charge("x", CH_WORKER, None, 0, -1)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError):
            InterferenceLedger().charge("x", "teleport", None, 0, 1)

    def test_channel_totals_covers_all_channels(self):
        totals = InterferenceLedger().channel_totals()
        assert set(totals) == set(ALL_CHANNELS)
        assert set(SSR_SERVICE_CHANNELS).isdisjoint(SIDE_CHANNELS)

    def test_as_dict_is_json_shaped(self):
        ledger = InterferenceLedger()
        ledger.charge("iommu-ppr", CH_TOP_HALF, "blackscholes/0", 1, 42)
        doc = ledger.as_dict()
        assert doc["service_total_ns"] == 42
        assert doc["side_total_ns"] == 0
        assert doc["entries"][0]["core"] == 1
        assert doc["channel_totals"][CH_TOP_HALF] == 42


class TestNullLedger:
    def test_disabled_and_inert(self):
        assert NULL_LEDGER.enabled is False
        NULL_LEDGER.charge("x", "whatever", None, -5, -1)  # never validates
        assert len(NULL_LEDGER) == 0
        assert NULL_LEDGER.service_total_ns() == 0.0
        assert NULL_LEDGER.entries() == []
        assert NULL_LEDGER.as_dict()["entries"] == []
