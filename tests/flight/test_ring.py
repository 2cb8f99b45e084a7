"""FlightRing determinism and the pair-merge decimation invariants.

The ring's contract: byte-identical rings from identical append
sequences, conservation of the represented-record count through any
number of decimations, and near-trigger fidelity (the newest entries
stay unmerged while history coarsens).
"""

import json

import pytest

from repro.flight import FlightRing


def _fill(ring, n, kind="event"):
    for i in range(n):
        ring.append(float(i), kind, {"i": i})
    return ring


def _total_weight(ring):
    """Records the ring's entries represent, merged pairs included."""
    return sum(entry.weight for entry in ring.entries)


class TestCapacityValidation:
    def test_rejects_odd_and_tiny_capacities(self):
        for bad in (0, 8, 15, 17, -2):
            with pytest.raises(ValueError):
                FlightRing(bad)

    def test_accepts_even_capacities(self):
        assert FlightRing(16).capacity == 16
        assert FlightRing(512).capacity == 512


class TestConservation:
    @pytest.mark.parametrize("appends", [1, 15, 16, 17, 100, 1000])
    def test_total_weight_equals_appended(self, appends):
        ring = _fill(FlightRing(16), appends)
        assert ring.appended == appends
        assert _total_weight(ring) == appends

    def test_entry_count_stays_bounded(self):
        ring = _fill(FlightRing(16), 10_000)
        assert len(ring.entries) < 16
        assert _total_weight(ring) == 10_000

    def test_kind_counts_count_weights_not_entries(self):
        ring = FlightRing(16)
        for i in range(50):
            ring.append(float(i), "a" if i % 2 else "b", {})
        counts = {}
        for entry in ring.entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + entry.weight
        assert len(ring.entries) < 50
        assert counts["a"] + counts["b"] == 50


class TestDecimation:
    def test_later_payload_survives_a_merge(self):
        ring = _fill(FlightRing(16), 16)  # exactly one decimation
        assert ring.decimations == 1
        # Survivors are the odd-seq (later) halves of each pair.
        assert [entry.seq for entry in ring.entries] == [1, 3, 5, 7, 9, 11, 13, 15]
        assert all(entry.weight == 2 for entry in ring.entries)

    def test_first_ts_reaches_back_through_merges(self):
        ring = _fill(FlightRing(16), 65)
        oldest = ring.entries[0]
        assert oldest.first_ts_s == 0.0
        assert oldest.ts_s > oldest.first_ts_s
        # The entry appended right after a decimation is still unmerged.
        newest = ring.entries[-1]
        assert newest.weight == 1
        assert newest.first_ts_s == newest.ts_s

    def test_history_coarsens_toward_the_past(self):
        ring = _fill(FlightRing(16), 200)
        weights = [entry.weight for entry in ring.entries]
        # Non-strictly decreasing weight toward the present.
        assert weights == sorted(weights, reverse=True)


class TestDeterminism:
    def test_identical_sequences_produce_identical_rings(self):
        a = _fill(FlightRing(32), 777)
        b = _fill(FlightRing(32), 777)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )

    def test_as_dict_round_trips_through_json(self):
        ring = _fill(FlightRing(16), 40)
        doc = json.loads(json.dumps(ring.as_dict()))
        assert doc["appended"] == 40
        assert doc["decimations"] == ring.decimations
        assert sum(entry["weight"] for entry in doc["entries"]) == 40
