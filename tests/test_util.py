"""Unit tests for hashing utilities."""

from repro.util import stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)

    def test_seed_changes_hash(self):
        assert stable_hash(42, seed=0) != stable_hash(42, seed=1)

    def test_sequential_ids_scatter(self):
        """Unlike built-in hash, sequential ints must not map sequentially."""
        values = [stable_hash(i) % 16 for i in range(64)]
        assert values != sorted(values)
        assert len(set(values)) > 4

    def test_64_bit_range(self):
        for v in (0, 1, 2**40, 2**63):
            assert 0 <= stable_hash(v) < 2**64
