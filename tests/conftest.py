"""Shared brute-force oracles and corpus fixtures.

The oracles enumerate subsets directly from the dense adjacency matrix
and know nothing about the library's counting kernels; they are the
ground truth the fast paths are checked against.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial, prod

import numpy as np
import pytest

from tourprof.core import Tournament, _upper_code


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


def brute_two_paths(t: Tournament):
    """Nested lists P[a][b] = #{w : a -> w -> b}, by walking every
    triple."""
    a = t.dense()
    return [[sum(1 for w in range(t.n) if a[x, w] and a[w, y])
             for y in range(t.n)] for x in range(t.n)]


def brute_common_out(t: Tournament):
    """Nested lists G[x][y] = #{w : x -> w and y -> w}, by walking every
    triple."""
    a = t.dense()
    return [[sum(1 for w in range(t.n) if a[x, w] and a[y, w])
             for y in range(t.n)] for x in range(t.n)]


def brute_counts3_via_matrix(dense: np.ndarray):
    """c3 count from an int64 path matrix product, independent of the
    float32 kernel and of FlipState (exact in int64 for n < 2^20)."""
    a = dense.astype(np.int64)
    p2 = a @ a
    return int((a * p2.T).sum()) // 3


def gram_matrix(t: Tournament) -> np.ndarray:
    """G = A A^T whole, in one float32 product (numpy sends it to SYRK),
    exact for n < 2^24: a reference for the tiled kernel."""
    a32 = t.dense().astype(np.float32)
    return a32 @ a32.T


def gram_profile4(t: Tournament):
    """(t4, c4, w, l) counts by the full-Gram formula: G = A A^T held
    whole (exact float64), t4 = sum_{u<v} C(G[u,v], 2) in int64, c3 by
    Goodman, c4 = t4 - (C(n,3) - 4 c3)(n-3)/4, l = sum C(d,3) - t4 and
    w = sum C(n-1-d,3) - t4."""
    n = t.n
    a = t.dense().astype(np.float64)
    g = (a @ a.T).astype(np.int64)[np.triu_indices(n, 1)]
    t4 = int((g * (g - 1) // 2).sum())
    d = [int(x) for x in t.dense().sum(axis=1)]
    c3 = comb(n, 3) - sum(comb(x, 2) for x in d)
    c4 = t4 - (comb(n, 3) - 4 * c3) * (n - 3) // 4
    return (t4, c4, sum(comb(n - 1 - x, 3) for x in d) - t4,
            sum(comb(x, 3) for x in d) - t4)


def row_by_row_draws(seed: int, n: int) -> np.ndarray:
    """n x n uint64 matrix of stream values, [u, v] = the value at pair
    (u, v)'s lexicographic index for u < v and 0 elsewhere, read with one
    rng.values call per row."""
    from tourprof import rng
    vals = np.zeros((n, n), dtype=np.uint64)
    index = 0
    for u in range(n - 1):
        vals[u, u + 1:] = rng.values(seed, index, n - u - 1)
        index += n - u - 1
    return vals


def complete_upper(upper: np.ndarray) -> np.ndarray:
    """The tournament matrix of `upper`'s strict upper triangle."""
    above = np.triu(upper, 1)
    return above | np.tril(~above.T, -1)


def brute_product_counts(k: int) -> np.ndarray:
    """Flag pair counts (types, f, f) of the order 2k - 2 types, by
    walking every configuration: an arc u -> v of the type, and an
    ordered split of the other vertices into an a-side and a b-side.
    Each side's flag code is the least code over the relabelings of its
    unlabeled vertices."""
    from tourprof.flags import enumerate_flags, enumerate_types

    n_big = 2 * k - 2
    fidx = {f.code: f.index for f in enumerate_flags(k)}
    types = enumerate_types(n_big)
    counts = np.zeros((len(types), len(fidx), len(fidx)), dtype=np.int64)

    def flag(dense, u, v, side):
        return fidx[min(_upper_code(dense, (u, v) + rest)
                        for rest in permutations(side))]

    for h in types:
        dense = h.rep.dense()
        for u, v in zip(*np.nonzero(dense)):
            u, v = int(u), int(v)
            rest = tuple(w for w in range(n_big) if w not in (u, v))
            for a_side in combinations(rest, k - 2):
                b_side = tuple(w for w in rest if w not in a_side)
                counts[h.index, flag(dense, u, v, a_side),
                       flag(dense, u, v, b_side)] += 1
    return counts


def _is_cyclic3(mat):
    return all(sum(row) == 1 for row in mat)


def _is_c4(mat):
    return sorted(sum(row) for row in mat) == [1, 1, 2, 2]


def _interior_probability(sub, c3, c4):
    """Chance that r vertices drawn from one part with densities (c3, c4)
    induce the labeled tournament `sub`.  Drawing is exchangeable, so each
    isomorphism type spreads evenly over its labelings: 2 cyclic and 6
    transitive triples, 24 labeled C4 among the 64 on four vertices.
    Only the C4 test reads r = 4, so the other 40 share 1 - c4 evenly."""
    r = len(sub)
    if r == 1:
        return 1
    if r == 2:
        return Fraction(1, 2)
    if r == 3:
        return c3 / 2 if _is_cyclic3(sub) else (1 - c3) / 6
    return c4 / 24 if _is_c4(sub) else (1 - c4) / 40


def _placement_probability(host, parts, test, interiors) -> float:
    """Probability that k vertices placed in the given host parts induce
    a tournament passing `test`, by enumerating all 2^C(k,2) labeled
    orientations: a cross pair follows the host's arc probability, and
    the vertices inside each part follow that part's interior."""
    k = len(parts)
    pairs = list(combinations(range(k), 2))
    total = 0
    for bits in range(1 << len(pairs)):
        mat = [[0] * k for _ in range(k)]
        for b, (i, j) in enumerate(pairs):
            mat[i][j] = (bits >> b) & 1
            mat[j][i] = 1 - mat[i][j]
        if not test(mat):
            continue
        chance = 1
        for i, j in pairs:
            if parts[i] != parts[j]:
                pi, pj = (parts[i], parts[j]) if mat[i][j] else (parts[j], parts[i])
                chance *= host[pi][pj]
        for part in set(parts):
            idx = [i for i in range(k) if parts[i] == part]
            sub = [[mat[i][j] for j in idx] for i in idx]
            chance *= _interior_probability(sub, *interiors[part])
        total += chance
    return total


def brute_blowup_profile(host, weights, interiors=None):
    """Asymptotic (c3, c4) of the blow-up of `host` with part weights
    `weights`, by enumerating part multisets of 3 and 4 vertices and
    every orientation of their pairs.  `host` is a Tournament or a square
    matrix of arc probabilities P with P + P^T = J - I; `interiors` gives
    each part's (c3, c4), uniformly random parts (1/4, 3/8) by default.
    Plain arithmetic, so Fraction inputs give exact results."""
    if isinstance(host, Tournament):
        host = host.dense().astype(int).tolist()
    if interiors is None:
        interiors = [(Fraction(1, 4), Fraction(3, 8))] * len(weights)
    out = []
    for k, test in ((3, _is_cyclic3), (4, _is_c4)):
        total = 0
        for parts in combinations_with_replacement(range(len(weights)), k):
            count = factorial(k)
            for part in set(parts):
                count //= factorial(parts.count(part))
            mass = count * prod(weights[part] for part in parts)
            total += mass * _placement_probability(host, parts, test,
                                                   interiors)
        out.append(total)
    return tuple(out)


def brute_mix_profile(c3_1, c4_1, c3_2, c4_2, alpha, p):
    """Asymptotic (c3, c4) of two blocks of relative sizes alpha and
    1 - alpha with profiles (c3_i, c4_i), cross pairs oriented block 1 ->
    block 2 with probability p, expanded by hand.  Grouping 3- and 4-sets
    by how they split between the blocks (all in one, 2+2, 3+1):

        c3 = a^3 c3_1 + b^3 c3_2 + 3 a b q
        c4 = a^4 c4_1 + b^4 c4_2
             + 6 a^2 b^2 (q + 2 q^2)
             + 4 a^3 b (3 c3_1 q + (1 - c3_1) q)
             + 4 a b^3 (3 c3_2 q + (1 - c3_2) q)

    with a = alpha, b = 1 - alpha, q = p (1 - p).  Plain arithmetic, so
    Fraction inputs give exact results."""
    a = alpha
    b = 1 - alpha
    q = p * (1 - p)
    c3 = a**3 * c3_1 + b**3 * c3_2 + 3 * a * b * q
    c4 = (a**4 * c4_1 + b**4 * c4_2
          + 6 * a**2 * b**2 * (q + 2 * q * q)
          + 4 * a**3 * b * (c3_1 * 3 * q + (1 - c3_1) * q)
          + 4 * a * b**3 * (c3_2 * 3 * q + (1 - c3_2) * q))
    return c3, c4


def scalar_anneal(n, gamma, seed, penalty=None, schedule=None):
    """The annealer priced one proposal at a time, as `search.anneal`
    was before it priced rejection runs in batches: the oracle its
    AnnealResult must equal field for field.  Each proposal reads u, r
    and, when uphill, a uniform from a sequential Stream."""
    import math

    from tourprof import rng
    from tourprof.bounds import lb_flag_n
    from tourprof.core import InternalInvariantError
    from tourprof.profiles import FlipState, profile3, profile4
    from tourprof.search import (DEFAULT_PENALTY, AnnealResult,
                                 AnnealSchedule, _penalizer, _warm_start)

    penalty = DEFAULT_PENALTY if penalty is None else penalty
    schedule = schedule or AnnealSchedule()

    state = FlipState(_warm_start(n, gamma, seed))
    penalized = _penalizer(n, gamma, penalty)
    cur = penalized(state.c3_count, state.c4_count)
    initial = cur
    stream = rng.Stream(rng.derive(seed, 0x5EED))
    below, a = stream.next_below, state.a

    def propose():
        # Exactly two draws per proposal: second draw picks among the
        # n - 1 vertices other than u.  Returns the pair as its current
        # arc (src, dst).
        u = below(n)
        r = below(n - 1)
        v = r if r < u else r + 1
        return (u, v) if a[u, v] else (v, u)

    # Warmup: price random proposals, without making them, to set T0 so
    # the median uphill move starts at acceptance probability 1/2.
    uphill = []
    for _ in range(schedule.warmup):
        dc3, dc4 = state.arc_delta(*propose())
        delta = penalized(state.c3_count + dc3, state.c4_count + dc4) - cur
        if delta > 0:
            uphill.append(delta)
    if uphill:
        t0 = float(np.median(uphill)) / math.log(2.0)
    else:
        t0 = 1e-6
    t0 = max(t0, 1e-12)

    factor = schedule.cool ** (1.0 / schedule.moves)
    temp = t0
    best = cur
    best_t = state.tournament()
    accepted = 0
    for _ in range(schedule.moves):
        src, dst = propose()
        dc3, dc4 = state.arc_delta(src, dst)
        new = penalized(state.c3_count + dc3, state.c4_count + dc4)
        delta = new - cur
        if delta <= 0.0:
            accept = True
        else:
            accept = stream.next_uniform() < math.exp(-delta / temp)
        if accept:
            state.commit(src, dst, dc3, dc4)
            cur = new
            accepted += 1
            if cur < best - 1e-15:
                best = cur
                best_t = state.tournament()
            if accepted % schedule.audit_every == 0:
                state.audit()
        temp *= factor
    state.audit()

    p3, p4 = profile3(best_t), profile4(best_t)
    best_exact = penalized(p3.c3_count, p4.c4_count)
    if abs(best_exact - best) > 1e-9:
        raise InternalInvariantError(
            f"best-state bookkeeping diverged from recount at n={n}: "
            f"tracked objective {best!r} vs recount {best_exact!r}")
    # Lemma 1 at finite n is an exact floor: below it means miscounting.
    floor = lb_flag_n(n, p3.c3_count)
    if Fraction(p4.c4_count, comb(n, 4)) < floor:
        raise InternalInvariantError(
            f"annealed c4={p4.c4:.6f} below the exact floor "
            f"{float(floor):.6f} at n={n}, c3={p3.c3:.6f}")
    return AnnealResult(n=n, gamma=gamma, penalty=penalty, seed=seed,
                        tournament=best_t, profile3=p3, profile4=p4,
                        objective=best_exact, initial_objective=initial,
                        temperature0=t0, accepted=accepted,
                        proposed=schedule.moves)


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
