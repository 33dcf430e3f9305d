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

`Stream` reads the same values sequentially, one scalar `value` per
draw: it is the reference order, and shares no code with `values_at`,
the one array mixer, which overwrites a uint64 index array in place
with its values, so a caller hands over the index it built and no copy
is made.  Every construction in `core` reads its pairs through it, each
row's run of them at its own pair indices; `values` is `values_at` over
a uint64 arange, and the annealer and `sample_profile4` read the stream
in bounded blocks of it, turned into vertices by `below`, which equals
`Stream.next_below` value for value.
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
    """Vectorized block [start, start+count) of the stream, dtype uint64:
    values_at over a fresh uint64 arange, mixed in place."""
    return values_at(seed, np.arange(start, start + count, dtype=np.uint64))


def values_at(seed: int, index: np.ndarray) -> np.ndarray:
    """Overwrite the uint64 array `index` with value(seed, i) at each of
    its stream indices i and return it; any other argument raises
    TypeError before anything is written."""
    if not (isinstance(index, np.ndarray) and index.dtype == np.uint64):
        raise TypeError("values_at needs a uint64 index array, got "
                        f"{getattr(index, 'dtype', type(index).__name__)}")
    with np.errstate(over="ignore"):
        index *= np.uint64(GOLDEN)          # (i + 1) * GOLDEN + seed
        index += np.uint64((seed + GOLDEN) & MASK64)
        index ^= index >> np.uint64(30)
        index *= np.uint64(_MUL1)
        index ^= index >> np.uint64(27)
        index *= np.uint64(_MUL2)
        index ^= index >> np.uint64(31)
    return index


def below(vals: np.ndarray, n: int) -> np.ndarray:
    """floor(v * n / 2**64) for each uint64 v, exactly, as int64: the
    vectorized `Stream.next_below`, for 1 <= n <= 2**32.  With v = hi *
    2**32 + lo, v * n = 2**32 * (hi * n + (lo * n >> 32)) + a remainder
    below 2**32, and the bracket stays below 2**64."""
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"below needs 1 <= n <= 2**32, got {n}")
    v = np.asarray(vals, dtype=np.uint64)
    m = np.uint64(n)
    y = (v >> np.uint64(32)) * m
    y += ((v & np.uint64(0xFFFFFFFF)) * m) >> np.uint64(32)
    return (y >> np.uint64(32)).astype(np.int64)


def derive(seed: int, tag: int) -> int:
    """A decorrelated child seed; tag distinguishes substreams."""
    return mix64((seed ^ mix64(tag)) & MASK64)


class Stream:
    """Sequential cursor over the stream, the reference order for the
    annealer's and sample_profile4's block reads: the k-th draw returns
    value(seed, start + k), one scalar mix64 per draw, and `cursor` is
    the index of the next value.

    Draw order is part of the reproducibility contract: callers document
    how many draws each step consumes.
    """

    def __init__(self, seed: int, start: int = 0):
        self.seed = seed & MASK64
        self.cursor = start

    def next_value(self) -> int:
        index = self.cursor
        self.cursor = index + 1
        return value(self.seed, index)

    def next_uniform(self) -> float:
        return self.next_value() / _TWO64

    def next_below(self, n: int) -> int:
        """Integer in [0, n) via floor(u * n); n is tiny vs 2**64 so the
        modulo-style bias is < n / 2**64 and irrelevant here."""
        return int(self.next_value() * n >> 64)
