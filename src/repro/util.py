"""Small shared utilities."""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def stable_hash(value: int, seed: int = 0) -> int:
    """Deterministic 64-bit integer hash (splitmix64 finaliser).

    Python's built-in ``hash`` is the identity on small ints, which would
    make hash partitioning degenerate to round-robin on typical vertex ids.
    This mixer gives well-distributed, platform-independent hashes so runs
    are reproducible across machines and Python versions.
    """
    x = (value + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)
