"""Shared brute-force oracles and corpus fixtures.

The oracles enumerate subsets directly from the dense adjacency matrix
and know nothing about the library's counting kernels; they are the
ground truth the fast paths are checked against.
"""

from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
import pytest

from tourprof.core import Tournament


def brute_profile3(t: Tournament):
    """(t3_count, c3_count) by 3-subset enumeration."""
    a = t.dense()
    c3 = 0
    for s in combinations(range(t.n), 3):
        sub = a[np.ix_(s, s)]
        if tuple(sorted(sub.sum(axis=1))) == (1, 1, 1):
            c3 += 1
    return comb(t.n, 3) - c3, c3


_SCORE_TO_TYPE = {(0, 1, 2, 3): "T4", (1, 1, 2, 2): "C4",
                  (0, 2, 2, 2): "W", (1, 1, 1, 3): "L"}


def brute_profile4(t: Tournament):
    """Counts dict {T4, C4, W, L} by 4-subset enumeration."""
    a = t.dense()
    counts = {"T4": 0, "C4": 0, "W": 0, "L": 0}
    for s in combinations(range(t.n), 4):
        sub = a[np.ix_(s, s)]
        counts[_SCORE_TO_TYPE[tuple(sorted(sub.sum(axis=1)))]] += 1
    return counts


def brute_edge_stats(t: Tournament):
    """Rows (u, v, cyc, thru, dom_out, dom_in) for every arc u -> v in
    np.argwhere order."""
    a = t.dense()
    rows = []
    for u in range(t.n):
        for v in range(t.n):
            if not a[u, v]:
                continue
            cyc = thru = dout = din = 0
            for w in range(t.n):
                if w == u or w == v:
                    continue
                if a[v, w] and a[w, u]:
                    cyc += 1
                elif a[u, w] and a[w, v]:
                    thru += 1
                elif a[u, w] and a[v, w]:
                    dout += 1
                else:
                    din += 1
            rows.append((u, v, cyc, thru, dout, din))
    return rows


def brute_counts3_via_matrix(dense: np.ndarray):
    """c3 count from an int64 path matrix product, independent of the
    float32 kernel and of FlipState (exact in int64 for n < 2^20)."""
    a = dense.astype(np.int64)
    p2 = a @ a
    return int((a * p2.T).sum()) // 3


def _placement_probability(host: Tournament, parts, test) -> float:
    """Probability that k vertices placed in the given host parts induce
    a tournament passing `test`; pairs in a common part are fair coins."""
    k = len(parts)
    free = [(i, j) for i, j in combinations(range(k), 2)
            if parts[i] == parts[j]]
    hits = 0
    for bits in range(1 << len(free)):
        mat = [[0] * k for _ in range(k)]
        for i, j in combinations(range(k), 2):
            if parts[i] != parts[j]:
                mat[i][j] = int(host.orient(parts[i], parts[j]))
            else:
                mat[i][j] = (bits >> free.index((i, j))) & 1
            mat[j][i] = 1 - mat[i][j]
        if test(mat):
            hits += 1
    return hits / (1 << len(free))


def brute_blowup_profile(host: Tournament, weights):
    """Asymptotic (c3, c4) of the blow-up of `host` with part weights
    `weights`, by enumerating part multisets of 3 and 4 vertices and
    every orientation of their same-part pairs."""
    def is_cyclic3(mat):
        return all(sum(row) == 1 for row in mat)

    def is_c4(mat):
        return sorted(sum(row) for row in mat) == [1, 1, 2, 2]

    out = []
    for k, test in ((3, is_cyclic3), (4, is_c4)):
        total = 0.0
        for parts in combinations_with_replacement(range(host.n), k):
            count = factorial(k)
            for part in set(parts):
                count //= factorial(parts.count(part))
            mass = count * prod(weights[part] for part in parts)
            total += mass * _placement_probability(host, parts, test)
        out.append(total)
    return tuple(out)


@pytest.fixture(scope="session")
def small_random_tournaments():
    from tourprof.core import random_tournament
    out = []
    for seed in range(40):
        n = 5 + seed % 5
        out.append(random_tournament(n, seed=seed))
    return out


@pytest.fixture(scope="session")
def small_named_tournaments():
    """Cyclic, interval and blow-up tournaments with n <= 9."""
    from tourprof.core import (BlowupSpec, blowup, cyclic, interval,
                               random_tournament, transitive)
    return [transitive(6), cyclic(5), cyclic(7), cyclic(9),
            interval(7, 4), interval(8, 5), interval(9, 6),
            blowup(BlowupSpec(host=cyclic(3), weights=(0.5, 0.3, 0.2)), 9,
                   seed=1),
            blowup(BlowupSpec(host=random_tournament(4, seed=3),
                              weights=(0.25,) * 4), 8, seed=2)]
