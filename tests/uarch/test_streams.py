"""Unit tests for synthetic address/branch stream generators."""

import random

import pytest

from repro.uarch import (
    AddressStreamSpec,
    BranchStreamSpec,
    generate_addresses,
    generate_branches,
)


class TestAddressStreamSpec:
    def test_validation_lines(self):
        with pytest.raises(ValueError):
            AddressStreamSpec(base=0, lines=0)

    def test_validation_hot_fraction(self):
        with pytest.raises(ValueError):
            AddressStreamSpec(base=0, lines=10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            AddressStreamSpec(base=0, lines=10, hot_fraction=1.5)

    def test_validation_hot_rate(self):
        with pytest.raises(ValueError):
            AddressStreamSpec(base=0, lines=10, hot_rate=-0.1)


class TestAddressGeneration:
    def test_addresses_stay_in_working_set(self):
        spec = AddressStreamSpec(base=0x1000, lines=16, line_size=64)
        for address in generate_addresses(spec, 500, random.Random(0)):
            assert 0x1000 <= address < 0x1000 + 16 * 64

    def test_addresses_are_line_aligned(self):
        spec = AddressStreamSpec(base=0x1000, lines=16, line_size=64)
        assert all(
            (a - 0x1000) % 64 == 0 for a in generate_addresses(spec, 100, random.Random(0))
        )

    def test_hot_lines_dominate(self):
        spec = AddressStreamSpec(
            base=0, lines=100, hot_fraction=0.1, hot_rate=0.9, line_size=64
        )
        hot_limit = 10 * 64
        addresses = list(generate_addresses(spec, 5000, random.Random(1)))
        hot = sum(1 for a in addresses if a < hot_limit)
        assert hot / len(addresses) > 0.85

    def test_deterministic_for_seed(self):
        spec = AddressStreamSpec(base=0, lines=64)
        a = list(generate_addresses(spec, 50, random.Random(7)))
        b = list(generate_addresses(spec, 50, random.Random(7)))
        assert a == b

    def test_count_respected(self):
        spec = AddressStreamSpec(base=0, lines=8)
        assert len(list(generate_addresses(spec, 33, random.Random(0)))) == 33


class TestBranchGeneration:
    def test_validation(self):
        with pytest.raises(ValueError):
            BranchStreamSpec(base_pc=0, sites=0)
        with pytest.raises(ValueError):
            BranchStreamSpec(base_pc=0, sites=4, bias=0.4)

    def test_pcs_within_site_range(self):
        spec = BranchStreamSpec(base_pc=0x4000, sites=8)
        for pc, _ in generate_branches(spec, 200, random.Random(0)):
            assert 0x4000 <= pc < 0x4000 + 8 * 4

    def test_bias_respected_per_site(self):
        spec = BranchStreamSpec(base_pc=0, sites=2, bias=0.95)
        outcomes = {}
        for pc, taken in generate_branches(spec, 4000, random.Random(2)):
            outcomes.setdefault(pc, []).append(taken)
        for pc, takens in outcomes.items():
            majority_rate = max(sum(takens), len(takens) - sum(takens)) / len(takens)
            assert majority_rate > 0.9

    def test_deterministic_for_seed(self):
        spec = BranchStreamSpec(base_pc=0, sites=16)
        a = list(generate_branches(spec, 40, random.Random(5)))
        b = list(generate_branches(spec, 40, random.Random(5)))
        assert a == b
