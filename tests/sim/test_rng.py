"""Unit tests for deterministic named RNG streams."""

from repro.sim import RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "gpu") == derive_seed(42, "gpu")

    def test_name_sensitivity(self):
        assert derive_seed(42, "gpu") != derive_seed(42, "cpu")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "gpu") != derive_seed(2, "gpu")

    def test_64_bit_range(self):
        seed = derive_seed(7, "anything")
        assert 0 <= seed < 2**64


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        registry = RngRegistry(0)
        assert registry.stream("a") is registry.stream("a")

    def test_streams_reproducible_across_registries(self):
        first = RngRegistry(123).stream("x").random()
        second = RngRegistry(123).stream("x").random()
        assert first == second

    def test_streams_independent(self):
        registry = RngRegistry(5)
        a = [registry.stream("a").random() for _ in range(10)]
        b = [registry.stream("b").random() for _ in range(10)]
        assert a != b

    def test_adding_stream_does_not_perturb_existing(self):
        reference = RngRegistry(9)
        ref_a = [reference.stream("a").random() for _ in range(5)]

        registry = RngRegistry(9)
        registry.stream("zebra").random()  # extra consumer
        got_a = [registry.stream("a").random() for _ in range(5)]
        assert got_a == ref_a

    def test_contains(self):
        registry = RngRegistry(0)
        assert "a" not in registry
        registry.stream("a")
        assert "a" in registry
