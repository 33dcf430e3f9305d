"""Exact 3- and 4-vertex profiles of tournaments.

The 3-types are the transitive triangle T3 and the cyclic triangle C3;
the 4-types are T4 (transitive), C4 (strongly connected), W (cyclic
triangle plus a vertex beaten by all of it) and L (cyclic triangle plus
a vertex beating all of it).  Densities are counts over C(n, k).

For a directed edge e = (u -> v) and a third vertex w there are four
patterns:

    cyc(e)     #w with v -> w -> u      (w completes a cyclic triangle)
    thru(e)    #w with u -> w -> v      (w lies on a 2-path u -> w -> v)
    dom_out(e) #w with u -> w and v -> w
    dom_in(e)  #w with w -> u and w -> v

which sum to n - 2 per edge.  The one kernel is the Gram matrix
G = A A^T: G[u, v] = #{w : u -> w, v -> w} counts common out-neighbours
and G[u, u] = d_u, the out-degree.  It measures dom_out(e) = G[u, v];
with the degrees d the rest follow by identities, and no 4-subset is
enumerated:

    thru(e) = d_u - 1 - G[u, v]       cyc(e) = d_v - G[u, v]
    dom_in(e) = n - 2 - d_v - thru(e)

`_gram_blocks` yields exact blocks of G, from float32 tile products,
as int32 while n <= 4096 and int64 above, and every count reads G from
them.  `profile4` needs only its second moment: the T4 sets are the
4-sets with a pair beating the other pair, so
t4 = sum_{u<v} C(G[u,v], 2).  c3 follows from the degrees (Goodman),
c4 from t4 - c4 = (C(n, 3) - 4 c3)(n - 3)/4, and w and l from the
degree sums.  So it folds the blocks into exact sums and never holds G:
each block's sum and sum of squares in int64 (the squares, below
2**24, are int32 while n <= 4096), then as Python ints.
`edge_stats` reads every entry of G, so it fills it whole, as
integers, from the same blocks (`_gram`).

`edge_stats` gathers G at the arcs for the per-arc answers (the
edge-stats CSV, `x_cdf`, `verify_identities`, the flag moment check).
`moments` of X = cyc/(n-2), Y = thru/(n-2) and Z = 1 + 2(X - Y), an
edge drawn uniformly, is a closed form in c3, t3, c4 and t4 (sum_e cyc
= 3 c3, sum_e thru = t3, sum_e C(cyc, 2) = c4, sum_e C(thru, 2) = t4
and sum_e cyc * thru = 2 c4), which `verify_identities` checks at the
arcs.  `FlipState` keeps H = G - 1 d^T (H[u, v] = G[u, v] - d_v),
updated in place across flips, and prices a flip by two dot products
of its rows with rows of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt, sqrt

import numpy as np

from . import rng
from .core import InternalInvariantError, Tournament, TournamentError

FOUR_TYPES = ("T4", "C4", "W", "L")


def _sum_comb2(a: np.ndarray) -> int:
    a = a.astype(np.int64, copy=False)
    return int((a * (a - 1) // 2).sum())


def _sum_comb3(a: np.ndarray) -> int:
    a = a.astype(np.int64, copy=False)
    return int((a * (a - 1) * (a - 2) // 6).sum())


def _check_exact(n: int) -> None:
    """The kernel's exactness precondition, checked before it allocates.
    G's entries are integers below n, exact in float32 (24-bit
    significand) while n < 2**24.  The second bound, n (n - 1)**2 <
    2**53, binds first (n <= 208064) and keeps the kernel well inside
    float64's exact range: a packed product stays below 2**36 (see
    `_gram_blocks`), and the sums of G**2 are int64."""
    if not (n < 2**24 and n * (n - 1) ** 2 < 2**53):
        raise TournamentError(
            "the Gram kernel is exact only for n < 2**24 and "
            f"n*(n-1)**2 < 2**53, so n <= 208064 (got n={n})")


_GRAM_BUDGET = 2 << 30      # bytes


def _check_gram_memory(n: int) -> None:
    """Refuse a G held whole (`_gram`) past the budget, before anything
    n x n is allocated: edge_stats traces near 9 n^2 bytes, paths_matrix
    near 10 n^2 (G in uint16, P2 in int64)."""
    if 10 * n * n > _GRAM_BUDGET:
        raise TournamentError(
            f"edge stats at n={n} need about {10 * n * n} bytes (10 n^2), "
            f"more than the {_GRAM_BUDGET} byte limit "
            f"(n <= {isqrt(_GRAM_BUDGET // 10)})")


def _t4_minus_c4(n: int, c3: int) -> int:
    """t4 - c4 = (C(n, 3) - 4 c3)(n - 3)/4: c3 fixes the difference."""
    return (comb(n, 3) - 4 * c3) * (n - 3) // 4


@dataclass(frozen=True)
class Profile3Counts:
    n: int
    t3_count: int
    c3_count: int

    def __post_init__(self):
        counts = (self.t3_count, self.c3_count)
        if min(counts) < 0 or sum(counts) != comb(self.n, 3):
            raise InternalInvariantError(
                f"3-profile t3 + c3 = C(n,3), all >= 0, fails at n={self.n}: "
                f"sum{counts} = {sum(counts)} vs {comb(self.n, 3)}")

    @property
    def t3(self) -> float:
        return self.t3_count / comb(self.n, 3)

    @property
    def c3(self) -> float:
        return self.c3_count / comb(self.n, 3)


@dataclass(frozen=True)
class Profile4Counts:
    n: int
    t4_count: int
    c4_count: int
    w_count: int
    l_count: int

    def __post_init__(self):
        counts = (self.t4_count, self.c4_count, self.w_count, self.l_count)
        if min(counts) < 0 or sum(counts) != comb(self.n, 4):
            raise InternalInvariantError(
                f"4-profile t4 + c4 + w + l = C(n,4), all >= 0, fails at n="
                f"{self.n}: sum{counts} = {sum(counts)} vs {comb(self.n, 4)}")

    @property
    def t4(self) -> float:
        return self.t4_count / comb(self.n, 4)

    @property
    def c4(self) -> float:
        return self.c4_count / comb(self.n, 4)

    @property
    def w(self) -> float:
        return self.w_count / comb(self.n, 4)

    @property
    def l(self) -> float:
        return self.l_count / comb(self.n, 4)


def profile3(t: Tournament) -> Profile3Counts:
    """Goodman: #C3 = C(n, 3) - sum_v C(outdeg(v), 2)."""
    n = t.n
    if n < 3:
        return Profile3Counts(n, 0, 0)
    d = t.out_degrees()
    c3 = comb(n, 3) - _sum_comb2(d)
    return Profile3Counts(n, comb(n, 3) - c3, c3)


_GRAM_ROWS = 256          # rows of A in a lane; a left block or a panel has 2
_TILE_COLS = 512          # columns of A in a tile
_FLOAT32_BITS = 24        # integers below 2**24 are exact in float32


def _gram_tile(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The tile product left right^T of the Gram kernel: every product
    of A that `_gram_blocks` makes, of one lane of a left block of A
    with a packed panel, in the same columns."""
    return left @ right.T


def _pack_tile(a: np.ndarray, p0: int, c0: int, c1: int, scale,
               out: np.ndarray) -> np.ndarray:
    """Columns c0..c1 of the panel at row p0 of the bool matrix `a`,
    packed into `out` as lo + scale * hi: lo the rows p0..p0+B, hi the
    next B rows as far as `a` has them, B = _GRAM_ROWS.  The bytes of
    `a` are read as uint8, which converts faster than bool."""
    lo = a[p0:p0 + _GRAM_ROWS, c0:c1].view(np.uint8)
    hi = a[p0 + _GRAM_ROWS:p0 + 2 * _GRAM_ROWS, c0:c1].view(np.uint8)
    x, k = out[:len(lo), :c1 - c0], len(hi)
    np.multiply(hi, scale, out=x[:k])
    np.add(x[:k], lo[:k], out=x[:k])
    np.copyto(x[k:], lo[k:])
    return x


def _panel_gram(a: np.ndarray, r0: int, p0: int, scale, dtype,
                left_buf: np.ndarray, panel_buf: np.ndarray) -> np.ndarray:
    """The product of the left block at row r0 of `a` with the packed
    panel at row p0, in `dtype`: a sum of tile products over the columns
    as wide as the buffers, one for each lane of the left block."""
    n, cols = len(a), left_buf.shape[1]
    r1 = min(r0 + 2 * _GRAM_ROWS, n)
    g = np.zeros((r1 - r0, min(_GRAM_ROWS, n - p0)), dtype)
    for c0 in range(0, n, cols):
        c1 = min(c0 + cols, n)
        x = _pack_tile(a, p0, c0, c1, scale, panel_buf)
        for h0 in range(r0, r1, _GRAM_ROWS):
            h1 = min(h0 + _GRAM_ROWS, r1)
            left = left_buf[:h1 - h0, :c1 - c0]
            np.copyto(left, a[h0:h1, c0:c1].view(np.uint8))
            g[h0 - r0:h1 - r0] += _gram_tile(left, x)
    return g


def _gram_blocks(t: Tournament):
    """Exact integer blocks (r0, c0, g) of G = A A^T, g = G[r0:r0+len(g),
    c0:c0+g.shape[1]], that cover every pair of vertices: the 2B x 2B
    diagonal blocks whole, as two lanes, and each block right of them
    once, B = _GRAM_ROWS.  A block is a lane of a diagonal block iff
    c0 < r0 + 2B.  n is checked by `_check_exact` when the generator
    first runs, and each diagonal block against diag G = d.

    G is never held whole, nor is A as floats.  Cut A into blocks of 2B
    rows, and pack each block into a panel of B rows,
    X_J = A[its first B rows] + 2^b A[its next B rows] with
    b = (n-1).bit_length().  Since G is symmetric, one pass over its
    upper block-rows reads every pair: left block I, as it is, meets the
    panels J = I, I+1, ..., and the product g = A_I X_J^T holds two
    2B x B blocks of G, lo + 2^b hi, yielded in turn (hi only where the
    panel has rows).  A product is a sum of tile products (`_gram_tile`)
    over _TILE_COLS columns, one for each lane of the left block: the
    lane and the panel are converted and packed into two fixed
    B x _TILE_COLS float32 buffers.  A tile's partial sums are integers
    at most _TILE_COLS (2^b + 1), exact in float32 (a tile is narrower
    from b = 15 on).  A product's are integers lo + 2^b hi with
    lo, hi <= n - 1 < 2^b, below 2^(2b) and so exact in any summation
    order: tiles are summed in float32 while 2b <= 24 (n <= 4096), else
    in float64, where 2b <= 36 under `_check_exact`.  The product is
    converted once to an integer type and split there by shift and
    mask, hi = g >> b and lo = g & (2^b - 1), lo in place: int32 while
    2b <= 24, where lo^2 and hi^2 stay below 2^24, else int64.
    Beside the input the buffers take 8 B _TILE_COLS bytes (1 MiB),
    whatever n, and the lanes two 2B x B blocks (1 MiB; 2 MiB in
    int64), freed before the next product if the caller drops the
    block it holds."""
    n = t.n
    _check_exact(n)
    a = t.dense()
    d = t.out_degrees()
    bits = (n - 1).bit_length()
    if 2 * bits <= _FLOAT32_BITS:
        dtype, itype = np.float32, np.int32
    else:
        dtype, itype = np.float64, np.int64
    scale = np.float32(2**bits)
    cols = min(_TILE_COLS, n, 2**_FLOAT32_BITS // (2**bits + 1))
    shape = (min(_GRAM_ROWS, n), cols)
    left_buf = np.empty(shape, np.float32)
    panel_buf = np.empty(shape, np.float32)
    for r0 in range(0, n, 2 * _GRAM_ROWS):
        for p0 in range(r0, n, 2 * _GRAM_ROWS):
            g = _panel_gram(a, r0, p0, scale, dtype, left_buf, panel_buf)
            g = g.astype(itype)         # lo + 2^b hi, exactly
            hi = g >> bits
            g &= 2**bits - 1            # g becomes lo
            if p0 == r0:                # the lanes of the diagonal block
                diag = np.concatenate((g[:_GRAM_ROWS].diagonal(),
                                       hi[_GRAM_ROWS:].diagonal()))
                want = d[r0:r0 + 2 * _GRAM_ROWS]
                if not np.array_equal(diag, want):
                    u = int(np.flatnonzero(diag != want)[0])
                    raise InternalInvariantError(
                        f"Gram diagonal G[u,u] = d_u fails at n={n}: first "
                        f"at vertex {r0 + u}, G {int(diag[u])} vs d "
                        f"{int(want[u])}")
            yield r0, p0, g
            del g
            c0 = p0 + _GRAM_ROWS
            if c0 < n:
                yield r0, c0, hi[:, :n - c0]
            del hi


def _gram(t: Tournament) -> np.ndarray:
    """G whole, in the smallest integer type that holds n - 1 (uint16
    for 256 < n <= 2^16), filled from `_gram_blocks` and their mirror
    images."""
    n = t.n
    _check_exact(n)     # before G is allocated: the generator checks late
    _check_gram_memory(n)
    g = np.empty((n, n), np.min_scalar_type(n - 1))
    for r0, c0, block in _gram_blocks(t):
        _put(g, r0, c0, block)
    return g


def _put(g: np.ndarray, r0: int, c0: int, block: np.ndarray) -> None:
    """Write a block of `_gram_blocks` and its mirror image into g."""
    r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
    g[r0:r1, c0:c1] = block
    g[c0:c1, r0:r1] = block.T


def paths_matrix(t: Tournament) -> np.ndarray:
    """P2[a, b] = #{w : a -> w -> b}, as int64.  Since A^T = J - I - A,
    P2 = A A = d 1^T - A - G.  Note cyc(u -> v) = P2[v, u] and
    thru(u -> v) = P2[u, v]."""
    g = _gram(t)                    # checks n before anything is read
    p2 = t.out_degrees()[:, None] - g
    p2 -= t.dense()
    return p2


def profile4(t: Tournament) -> Profile4Counts:
    """Exact 4-profile from the second moment of the Gram matrix G:

        t4 = sum_{u<v} C(G[u,v], 2) = (sum_{u!=v} G^2 - sum_{u!=v} G) / 4
        c4 = t4 - (C(n, 3) - 4 c3)(n - 3)/4
        l  = sum_v C(d_v, 3) - t4      w  = sum_v C(e_v, 3) - t4

    with out-degrees d and in-degrees e = n - 1 - d.  A T4 has one pair
    beating the other pair, its top two, and a C4, W or L set has none.
    sum_v C(d_v, 3) counts the 4-sets with a source, the T4 and L sets,
    and sum_v C(e_v, 3) those with a sink, the T4 and W sets.  Beside
    diag G = d, which `_gram_blocks` checks, G is checked against
    sum_{u!=v} G = 2 sum_w C(e_w, 2), since w is a common out-neighbour
    of each ordered pair of its in-neighbours."""
    n = t.n
    if n < 4:
        return Profile4Counts(n, 0, 0, 0, 0)
    sums = _fold_gram(t)                # checks n before anything is read
    return _profile4_from_sums(n, t.out_degrees(), *sums)


def _fold_gram(t: Tournament, visit=None) -> tuple[int, int]:
    """(sum G, sum G^2) over all u, v from one pass of `_gram_blocks`,
    weight 1 on the lanes of a diagonal block and 2 right of them, as
    Python ints from each block's int64 sums (below 2^17 (n - 1)^2).
    `visit(r0, c0, g)`, if given, sees each block before it is squared
    in place: its entries are below 2^b, so the squares fit int32 while
    2b <= 24 and int64 under `_check_exact`."""
    sum_g = sum_g2 = 0
    for r0, c0, g in _gram_blocks(t):
        if visit is not None:
            visit(r0, c0, g)
        weight = 1 if c0 < r0 + 2 * _GRAM_ROWS else 2
        sum_g += weight * int(g.sum(dtype=np.int64))
        g *= g
        sum_g2 += weight * int(g.sum(dtype=np.int64))
        del g                           # freed before the next product
    return sum_g, sum_g2


def _profile4_from_sums(n: int, d: np.ndarray, sum_g: int,
                        sum_g2: int) -> Profile4Counts:
    """`profile4`'s counts from the out-degrees d and `_fold_gram`'s sums."""
    e = n - 1 - d
    comb2_d, pairs = _sum_comb2(d), comb(n, 2)    # pairs = sum_v d_v
    sum_g -= pairs
    links = 2 * _sum_comb2(e)
    if sum_g != links:
        raise InternalInvariantError(
            f"Gram sum sum_(u!=v) G = 2 sum_w C(n-1-d_w, 2) fails at n={n}: "
            f"{sum_g} vs {links}")
    sum_g2 -= 2 * comb2_d + pairs       # sum_v d_v^2 = 2 sum C(d_v, 2) + pairs
    t4 = (sum_g2 - sum_g) // 4
    c4 = t4 - _t4_minus_c4(n, comb(n, 3) - comb2_d)     # c3 by Goodman
    l_count = _sum_comb3(d) - t4
    w_count = _sum_comb3(e) - t4
    return Profile4Counts(n, t4, c4, w_count, l_count)


_SCORES_TO_TYPE = {
    (0, 1, 2, 3): "T4",
    (1, 1, 2, 2): "C4",
    (0, 2, 2, 2): "W",
    (1, 1, 1, 3): "L",
}


def classify4(t: Tournament) -> str:
    """Type of a 4-vertex tournament from its sorted score sequence."""
    if t.n != 4:
        raise TournamentError("classify4 takes a 4-vertex tournament")
    key = tuple(sorted(int(x) for x in t.out_degrees()))
    return _SCORES_TO_TYPE[key]


@dataclass(frozen=True)
class EdgeStats:
    """Per-directed-edge third-vertex counts, arcs u -> v in np.argwhere
    (row-major) order, as `edge_stats` builds them.  Stores what the
    kernel measures, cyc and thru, next to the tournament's read-only
    adjacency matrix and out-degrees (shared, not copied); edges,
    dom_out and dom_in are derived from them on each access."""
    n: int
    cyc: np.ndarray        # (E,) int64, E = C(n, 2)
    thru: np.ndarray       # (E,) int64
    a: np.ndarray          # (n, n) bool, read-only
    d: np.ndarray          # (n,) int64 out-degrees, read-only

    def _at_head(self, x: np.ndarray) -> np.ndarray:
        """x[v] for each arc u -> v."""
        heads = np.flatnonzero(self.a)
        heads %= self.n
        return x.take(heads)

    @property
    def edges(self) -> np.ndarray:        # (E, 2) int64 rows (u, v)
        return np.argwhere(self.a)

    @property
    def dom_out(self) -> np.ndarray:
        return np.repeat(self.d - 1, self.d) - self.thru

    @property
    def dom_in(self) -> np.ndarray:
        return self._at_head(self.n - 2 - self.d) - self.thru

    def sums(self) -> dict:
        """Exact integer pair sums used by the moment identities."""
        return {
            "cyc": int(self.cyc.sum()),
            "thru": int(self.thru.sum()),
            "comb2_cyc": _sum_comb2(self.cyc),
            "comb2_thru": _sum_comb2(self.thru),
            "cyc_thru": int((self.cyc * self.thru).sum()),
        }


def edge_stats(t: Tournament) -> EdgeStats:
    """cyc and thru at every arc u -> v from one gather of the Gram
    matrix: cyc = d_v - G[u, v] and thru = d_u - 1 - G[u, v]."""
    n = t.n
    if n < 3:
        raise TournamentError("edge stats need n >= 3")
    g = _gram(t)
    a, d = t.dense(), t.out_degrees()
    arcs = np.flatnonzero(a)
    g = g.take(arcs)                            # G at the arcs; G is freed
    arcs %= n                                   # the head v of each arc
    cyc = d.take(arcs)
    cyc -= g
    del arcs
    thru = np.repeat(d - 1, d)
    thru -= g
    del g
    return EdgeStats(n=n, cyc=cyc, thru=thru, a=a, d=d)


@dataclass(frozen=True)
class MomentReport:
    """Moments of (X, Y, Z) over a uniformly random directed edge, as
    exact Fractions."""
    n: int
    ex: Fraction
    ey: Fraction
    exx: Fraction
    exy: Fraction
    eyy: Fraction
    ezz: Fraction
    var_x: Fraction

    def as_floats(self) -> dict:
        return {k: float(v) for k, v in vars(self).items() if k != "n"}


def moments(t: Tournament) -> MomentReport:
    """E[X], E[Y], E[X^2], E[XY], E[Y^2], E[Z^2], Var(X) with
    Z = 1 + 2(X - Y), from the counts alone: over the C(n, 2) arcs, sum
    cyc = 3 c3, sum thru = t3, sum C(cyc, 2) = c4, sum C(thru, 2) = t4,
    sum cyc * thru = 2 c4, and sum cyc^2 = sum cyc + 2 sum C(cyc, 2)."""
    n = t.n
    if n < 3:
        raise TournamentError("edge stats need n >= 3")
    p3, p4 = profile3(t), profile4(t)
    c3, t3, c4, t4 = p3.c3_count, p3.t3_count, p4.c4_count, p4.t4_count
    d = comb(n, 2) * (n - 2)        # arcs times n - 2
    ex, ey = Fraction(3 * c3, d), Fraction(t3, d)
    exx, exy, eyy = (Fraction(s, d * (n - 2))    # sum cyc^2, cyc thru, thru^2
                     for s in (3 * c3 + 2 * c4, 2 * c4, t3 + 2 * t4))
    ezz = 1 + 4 * ex - 4 * ey + 4 * exx - 8 * exy + 4 * eyy
    return MomentReport(n=n, ex=ex, ey=ey, exx=exx, exy=exy, eyy=eyy,
                        ezz=ezz, var_x=exx - ex * ex)


def x_cdf(t: Tournament, xs) -> np.ndarray:
    """phi(x) = fraction of directed edges with X >= x; nonincreasing,
    phi(0) = 1.  n < 3 is a TournamentError and a NaN x a ValueError,
    both raised before the kernel runs."""
    if t.n < 3:
        raise TournamentError("edge stats need n >= 3")
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if np.isnan(xs).any():
        raise ValueError("x must not be NaN")
    cyc_sorted = np.sort(edge_stats(t).cyc)
    e = len(cyc_sorted)
    return (e - np.searchsorted(cyc_sorted, xs * (t.n - 2), side="left")) / e


@dataclass(frozen=True)
class SampleProfile4:
    """Monte Carlo 4-profile estimate: uniform 4-subsets with replacement."""
    n: int
    samples: int
    counts: dict
    estimates: dict = field(init=False)
    stderr: dict = field(init=False)

    def __post_init__(self):
        est = {k: v / self.samples for k, v in self.counts.items()}
        se = {k: sqrt(p * (1 - p) / self.samples) for k, p in est.items()}
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "stderr", se)


def _four_sets(n: int, samples: int, seed: int) -> np.ndarray:
    """The (samples, 4) vertex sets of sample_profile4's draw order.
    Rounds of 16 sets, doubling while clean, are cut from a block of
    draws (rng.below of rng.values) up to the first set that holds a
    duplicate or runs past the block.  From that set on, sets are drawn
    value by value, with redraws and more of the stream as needed,
    until 8 in a row need no redraw; then rounds restart."""
    # the (k + 1)-th vertex of a set takes n / (n - k) draws on average
    size = int(samples * sum(n / (n - k) for k in range(4))) + 64
    draws = rng.below(rng.values(seed, 0, size), n)
    sets = np.empty((samples, 4), dtype=np.intp)
    i = pos = 0             # sets made; stream index of the next draw
    rows = 16
    while i < samples:
        m = min(rows, samples - i, (len(draws) - pos) // 4)
        b = draws[pos:pos + 4 * m].reshape(m, 4)
        c0, c1, c2, c3 = b.T
        dup = ((c0 == c1) | (c0 == c2) | (c0 == c3) | (c1 == c2)
               | (c1 == c3) | (c2 == c3))
        j = int(dup.argmax()) if dup.any() else m
        sets[i:i + j] = b[:j]
        i += j
        pos += 4 * j
        if j == rows:
            rows *= 2
            continue
        rows = 16
        clean = 0
        while clean < 8 and i < samples:
            four, start = [], pos
            while len(four) < 4:
                if pos == len(draws):
                    draws = np.concatenate((draws, rng.below(rng.values(
                        seed, pos, 64 + pos // 4), n)))
                v = draws.item(pos)
                pos += 1
                if v not in four:
                    four.append(v)
            sets[i] = four
            i += 1
            clean = clean + 1 if pos - start == 4 else 0
    return sets


def sample_profile4(t: Tournament, samples: int, seed: int) -> SampleProfile4:
    """Estimate the 4-profile by sampling `samples` uniform 4-subsets.
    Draw order: stream values are consumed sequentially; each vertex is
    value * n >> 64, redrawn on duplicates within the current 4-set.
    The 4-sets are drawn first (`_four_sets`, from blocks of values),
    then gathered and classified together by their sorted score
    sequences."""
    if t.n < 4:
        raise TournamentError("sampling needs n >= 4")
    if samples < 1:
        raise TournamentError("samples must be >= 1")
    n = t.n
    p = _four_sets(n, samples, seed)
    sub = t.dense()[p[:, :, None], p[:, None, :]]
    scores = np.sort(sub.sum(axis=2), axis=1)
    counts = dict.fromkeys(FOUR_TYPES, 0)
    for key, k in zip(*np.unique(scores, axis=0, return_counts=True)):
        counts[_SCORES_TO_TYPE[tuple(key.tolist())]] += int(k)
    return SampleProfile4(n=n, samples=samples, counts=counts)


def flip_delta(d_src: int, d_dst: int, k: int) -> tuple[int, int]:
    """(dc3, dc4) of reversing the arc src -> dst from both out-degrees
    and k = H[src] . A[dst] - H[dst] . A[src] (see `FlipState`):
    dc3 = d_src - d_dst - 1 and dc4 = k - dc3."""
    dc3 = d_src - d_dst - 1
    return dc3, k - dc3


class FlipState:
    """Mutable tournament wrapper maintaining exact triangle and 4-cycle
    counts across single-pair flips in O(n) time per flip.

    Keeps the out-degrees deg and, as float64 matrices, A and

        H = G - 1 deg^T,   H[x, y] = G[x, y] - deg[y] = -|N+(y) - N+(x)|,

    so diag H = 0, filled from one pass of `_gram_blocks` that also gives
    c4.  Every entry of A and H, and every dot product and sum of them
    below, is an integer of magnitude at most n (n - 1) < 2**53 under
    `_check_exact`, so float64 holds it exactly, and a dot product of
    two float64 rows runs in BLAS, faster than numpy's int64 loop.  An
    arc u -> v has thru = deg[u] - 1 - G[u, v] and cyc =
    deg[v] - G[u, v].  Reversing src -> dst changes c3 by thru - cyc =
    deg[src] - deg[dst] - 1 and c4, counted by 2-paths and written by G,
    by C(deg[src] - 1, 2) - C(deg[dst] - 1, 2) + 1 -
    (G[src] + G[dst] - deg) . (A[src] - A[dst]).  Since G[u] . A[u] =
    C(deg[u], 2), the arcs inside N+(u), the binomials cancel against H:

        dc3 = deg[src] - deg[dst] - 1
        dc4 = H[src] . A[dst] - H[dst] . A[src] - dc3,

    two degrees and two dot products of contiguous rows (`flip_delta`).
    `arc_delta` prices one arc; `pair_terms` orients many drawn pairs
    at once and gathers the terms of their prices; neither changes the
    state.  `commit` adds a priced delta to the counts and reverses the
    arc in place, on row and column views kept from construction:

        A[src, dst] = 0
        H[src, :] -= A[:, dst];  H[:, dst] -= A[src, :]
        H[:, src] += A[dst, :];  H[dst, :] += A[:, src]
        A[dst, src] = 1;  H[src, dst] -= 1;  H[dst, src] += 1

    and moves one unit of out-degree from src to dst.  With both arcs
    of the pair zero the four vector updates leave H[src, dst],
    H[dst, src] and the diagonal alone, so diag H stays 0 and needs no
    reset.  `delta(u, v)` and `flip(u, v)` price and make the flip of
    an unordered pair, checked.  c3 and c4 fix t4 through t4 - c4 =
    (C(n, 3) - 4*c3)*(n - 3)/4."""

    def __init__(self, t: Tournament):
        self.n = n = t.n
        if n < 4:
            raise TournamentError("FlipState needs n >= 4")
        _check_exact(n)                     # before anything n x n
        self.a = t.dense().astype(np.float64)
        self.deg = t.out_degrees().copy()     # commit moves degrees
        self.h = np.empty((n, n), np.float64)
        sums = _fold_gram(t, lambda *block: _put(self.h, *block))
        self.h -= self.deg                  # G becomes H in place
        self.c3_count = profile3(t).c3_count
        self.c4_count = _profile4_from_sums(n, self.deg, *sums).c4_count
        self._a_rows, self._a_cols = list(self.a), list(self.a.T)
        self._h_rows, self._h_cols = list(self.h), list(self.h.T)

    # -- derived views --------------------------------------------------

    def tournament(self) -> Tournament:
        """Snapshot of the current orientation; later flips leave it be."""
        return Tournament(self.a)

    @property
    def t4_count(self) -> int:
        return self.c4_count + _t4_minus_c4(self.n, self.c3_count)

    # -- incremental update ----------------------------------------------

    def _arc(self, u: int, v: int) -> tuple[int, int]:
        """(src, dst): the pair {u, v} in its current orientation."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise TournamentError(f"bad pair ({u}, {v})")
        return (u, v) if self.a[u, v] else (v, u)

    def arc_delta(self, src: int, dst: int) -> tuple[int, int]:
        """(dc3, dc4) of reversing src -> dst, which must be a current
        arc (not checked); the state is unchanged."""
        h_rows, a_rows = self._h_rows, self._a_rows
        k = h_rows[src].dot(a_rows[dst]) - h_rows[dst].dot(a_rows[src])
        return flip_delta(self.deg.item(src), self.deg.item(dst), int(k))

    def pair_terms(self, u: np.ndarray, v: np.ndarray) -> tuple[list, ...]:
        """Each pair u[i] != v[i] as its current arc src -> dst, with the
        terms of its price against the same state: the lists src, dst,
        deg[src], deg[dst] and K = H[src] . A[dst] - H[dst] . A[src] of
        ints, for `flip_delta`.  The state is unchanged."""
        h, deg, a = self.h, self.deg, self.a
        fwd = a.take(u * self.n + v) != 0
        src, dst = np.where(fwd, u, v), np.where(fwd, v, u)
        k, hv = h.take(src, axis=0), h.take(dst, axis=0)
        k *= a.take(dst, axis=0)        # in place: a new array per product
        hv *= a.take(src, axis=0)       # costs 10-20 % more at 64 pairs
        k -= hv
        return (src.tolist(), dst.tolist(), deg.take(src).tolist(),
                deg.take(dst).tolist(), k.sum(1).astype(np.int64).tolist())

    def delta(self, u: int, v: int) -> tuple[int, int]:
        """(dc3, dc4) of flipping pair {u, v}; the state is unchanged."""
        return self.arc_delta(*self._arc(u, v))

    def commit(self, src: int, dst: int, dc3: int, dc4: int) -> None:
        """Reverse the current arc src -> dst (not checked) and add its
        delta, as priced by arc_delta, to the counts."""
        a_rows, a_cols = self._a_rows, self._a_cols
        h_rows, h_cols = self._h_rows, self._h_cols
        a_rows[src][dst] = 0
        h_rows[src] -= a_cols[dst]
        h_cols[dst] -= a_rows[src]
        h_cols[src] += a_rows[dst]
        h_rows[dst] += a_cols[src]
        a_rows[dst][src] = 1
        h_rows[src][dst] -= 1
        h_rows[dst][src] += 1
        deg = self.deg
        deg[src] -= 1
        deg[dst] += 1

        self.c3_count += dc3
        self.c4_count += dc4

    def flip(self, u: int, v: int) -> None:
        """Reverse the orientation of pair {u, v}."""
        src, dst = self._arc(u, v)
        self.commit(src, dst, *self.arc_delta(src, dst))

    def _check_block(self, r0: int, c0: int, block: np.ndarray) -> None:
        """Raise unless a recounted block of G and its mirror match
        self.h, which `audit` holds at G = H + 1 deg^T meanwhile."""
        for r, c, b in ((r0, c0, block), (c0, r0, block.T)):
            mine = self.h[r:r + b.shape[0], c:c + b.shape[1]]
            if not np.array_equal(mine, b):
                i, j = np.argwhere(mine != b)[0].tolist()
                raise InternalInvariantError(
                    f"G matrix drifted at n={self.n}: first difference at "
                    f"({r + i}, {c + j}), tracked {int(mine[i, j])} vs "
                    f"recount {int(b[i, j])}")

    def audit(self) -> None:
        """Recount deg, G, c3, c4 and t4 from scratch, in one pass of
        `_gram_blocks` over a snapshot of A and no second n x n matrix;
        raise on any drift, naming what drifted, n and both values.  Once
        deg is checked, H is shifted in place to G = H + 1 deg^T for the
        pass and back after it; t4 checks the identity that derives it
        from c3 and c4."""
        n = self.n
        t = self.tournament()
        deg = t.out_degrees()
        if not np.array_equal(deg, self.deg):
            x = int(np.flatnonzero(deg != self.deg)[0])
            raise InternalInvariantError(
                f"degree vector drifted at n={n}: first difference at "
                f"vertex {x}, tracked {int(self.deg[x])} vs recount "
                f"{int(deg[x])}")
        self.h += deg           # G, in place, while the blocks are checked
        try:
            sums = _fold_gram(t, self._check_block)
        finally:
            self.h -= deg
        p4 = _profile4_from_sums(n, deg, *sums)
        recount = {"c3": profile3(t).c3_count, "c4": p4.c4_count,
                   "t4": p4.t4_count}
        tracked = {"c3": self.c3_count, "c4": self.c4_count,
                   "t4": self.t4_count}
        drifted = [f"{k} tracked {tracked[k]} vs recount {recount[k]}"
                   for k in recount if tracked[k] != recount[k]]
        if drifted:
            raise InternalInvariantError(
                f"incremental counts drifted at n={n}: "
                + "; ".join(drifted))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityReport:
    n: int
    checks: list

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_identities(t: Tournament) -> IdentityReport:
    """Exact integer verification of the finite-n identities tying the
    3/4-profiles and the edge statistics together (no floats anywhere):

        t4 + c4 + w + l = C(n,4)
        (t4 - c4) * C(n,3) = (C(n,3) - 4 c3) * C(n,4)   [t4-c4 = 1-4c3]
        2 c4 + w + l = (n-3) c3
        sum cyc = 3 c3;  sum thru = t3
        sum C(cyc,2) = c4;  sum C(thru,2) = t4;  sum cyc*thru = 2 c4
        4 (n-2) c3 <= (n+1) C(n,3)  for odd n  [regular-tournament max]
    """
    n = t.n
    s = edge_stats(t).sums()    # first, so its memory check runs first
    p3 = profile3(t)
    p4 = profile4(t)
    c3, t3 = p3.c3_count, p3.t3_count
    t4, c4, w, l = p4.t4_count, p4.c4_count, p4.w_count, p4.l_count
    sides = [
        ("four_profile_total", t4 + c4 + w + l, comb(n, 4)),
        ("t4_minus_c4_density", (t4 - c4) * comb(n, 3),
         (comb(n, 3) - 4 * c3) * comb(n, 4)),
        ("triangle_link", 2 * c4 + w + l, (n - 3) * c3),
        ("sum_cyc", s["cyc"], 3 * c3),
        ("sum_thru", s["thru"], t3),
        ("sum_comb2_cyc", s["comb2_cyc"], c4),
        ("sum_comb2_thru", s["comb2_thru"], t4),
        ("sum_cyc_thru", s["cyc_thru"], 2 * c4),
    ]
    checks = [IdentityCheck(name, lhs == rhs, lhs, rhs)
              for name, lhs, rhs in sides]
    if n % 2 == 1:
        lhs, rhs = 4 * (n - 2) * c3, (n + 1) * comb(n, 3)
        checks.append(IdentityCheck("c3_regular_max", lhs <= rhs, lhs, rhs))
    return IdentityReport(n=n, checks=checks)
