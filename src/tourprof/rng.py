"""Deterministic pseudorandomness for reproducible constructions.

Everything random in this package is driven by one fixed, documented
64-bit algorithm (SplitMix64) used as a counter-based stream:

    value(seed, i) = mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where mix64 is the SplitMix64 finalizer.  Because the stream is addressed
by index rather than consumed statefully, any draw is random-access:
constructions assign stream index k to the k-th vertex pair in ascending
lexicographic order (u, v), u < v, so edge draws always read the stream
in ascending pair order and are bit-for-bit reproducible across platforms
and numpy versions.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_TWO64 = float(2**64)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def value(seed: int, index: int) -> int:
    """The index-th 64-bit value of the stream for this seed (index >= 0)."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def values(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized block [start, start+count) of the stream, dtype uint64."""
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & MASK64)
             + (np.arange(start + 1, start + count + 1, dtype=np.uint64))
             * np.uint64(GOLDEN))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
        return z ^ (z >> np.uint64(31))


def derive(seed: int, tag: int) -> int:
    """A decorrelated child seed; tag distinguishes substreams."""
    return mix64((seed ^ mix64(tag)) & MASK64)


class Stream:
    """Sequential cursor over the stream (used by the annealer).

    Draw order is part of the reproducibility contract: callers document
    how many draws each step consumes.
    """

    def __init__(self, seed: int, start: int = 0):
        self.seed = seed & MASK64
        self.cursor = start

    def next_value(self) -> int:
        v = value(self.seed, self.cursor)
        self.cursor += 1
        return v

    def next_uniform(self) -> float:
        return self.next_value() / _TWO64

    def next_below(self, n: int) -> int:
        """Integer in [0, n) via floor(u * n); n is tiny vs 2**64 so the
        modulo-style bias is < n / 2**64 and irrelevant here."""
        return int(self.next_value() * n >> 64)
