"""Exact 3- and 4-vertex profiles of tournaments.

The 3-types are the transitive triangle T3 and the cyclic triangle C3;
the 4-types are T4 (transitive), C4 (strongly connected), W (cyclic
triangle plus a vertex beaten by all of it) and L (cyclic triangle plus
a vertex beating all of it).  Densities are counts over C(n, k).

All 4-counting goes through per-edge statistics.  For a directed edge
e = (u -> v) and a third vertex w there are four patterns:

    cyc(e)     #w with v -> w -> u      (w completes a cyclic triangle)
    thru(e)    #w with u -> w -> v      (w lies on a 2-path u -> w -> v)
    dom_out(e) #w with u -> w and v -> w
    dom_in(e)  #w with w -> u and w -> v

These satisfy cyc + thru + dom_out + dom_in = n - 2 per edge, and the
4-counts fall out of pair sums: sum_e C(cyc, 2) counts C4, sum_e
C(thru, 2) counts T4.  One matrix product gives all four: with the path
matrix P2 = A A (a single float32 GEMM, n^3 multiply-adds), cyc(e) =
P2[v, u] and thru(e) = P2[u, v]; with out-degrees d, dom_out(e) =
d_u - 1 - thru(e) and dom_in(e) = n - 2 - d_v - thru(e).  No 4-subset
is ever enumerated.

The per-edge random variables are X = cyc/(n-2), Y = thru/(n-2) and
Z = 1 + 2(X - Y), an edge drawn uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, sqrt

import numpy as np

from . import rng
from .core import InternalInvariantError, Tournament, TournamentError

FOUR_TYPES = ("T4", "C4", "W", "L")

EXACT_MOMENT_MAX_N = 1000


def _comb2(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64, copy=False)
    return a * (a - 1) // 2


def _comb3(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64, copy=False)
    return a * (a - 1) * (a - 2) // 6


# float32 has a 24-bit significand: every partial sum of the GEMM is an
# integer below n, so the product is exact while n < 2**24.
FLOAT32_EXACT_N = 1 << 24


def _check_float32_exact(n: int) -> None:
    if n >= FLOAT32_EXACT_N:
        raise TournamentError(
            f"paths_matrix is exact only for n < 2**24 (got n={n})")


def paths_matrix(t: Tournament) -> np.ndarray:
    """P2[a, b] = #{w : a -> w -> b}, as int64.  Note cyc(u -> v) =
    P2[v, u] and thru(u -> v) = P2[u, v]."""
    _check_float32_exact(t.n)
    a32 = t.dense().astype(np.float32)
    return (a32 @ a32).astype(np.int64)


def _arc_pair_sums(p2: np.ndarray, a: np.ndarray) -> tuple[int, int]:
    """(c4, t4) = (sum C(cyc, 2), sum C(thru, 2)) over the arcs of the
    adjacency matrix a, read off its path matrix p2."""
    return int(_comb2(p2.T[a]).sum()), int(_comb2(p2[a]).sum())


def _arc_stats(t: Tournament) -> tuple:
    """(u, v, cyc, thru, dom_out, dom_in) over the arcs u -> v in
    row-major order.  The other out-neighbours of u split into thru and
    dom_out, the other in-neighbours of v into thru and dom_in."""
    n = t.n
    p2 = paths_matrix(t).ravel()
    d = t.out_degrees()
    flat = np.flatnonzero(t.dense())            # u * n + v
    u = np.repeat(np.arange(n, dtype=np.int64), d)
    v = flat - u * n
    thru = p2[flat]
    return (u, v, p2[v * n + u], thru, np.repeat(d - 1, d) - thru,
            (n - 2 - d)[v] - thru)


@dataclass(frozen=True)
class Profile3Counts:
    n: int
    t3_count: int
    c3_count: int

    def __post_init__(self):
        if self.t3_count < 0 or self.c3_count < 0 \
                or self.t3_count + self.c3_count != comb(self.n, 3):
            raise InternalInvariantError(
                f"3-profile {self.t3_count}+{self.c3_count} != C({self.n},3)")

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
                f"4-profile {counts} does not sum to C({self.n},4)")

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

    def density(self, name: str) -> float:
        return getattr(self, name.lower())


def profile3(t: Tournament) -> Profile3Counts:
    """Goodman: #C3 = C(n, 3) - sum_v C(outdeg(v), 2)."""
    n = t.n
    if n < 3:
        return Profile3Counts(n, 0, 0)
    d = t.out_degrees()
    c3 = comb(n, 3) - int(_comb2(d).sum())
    return Profile3Counts(n, comb(n, 3) - c3, c3)


def profile4(t: Tournament) -> Profile4Counts:
    """Exact 4-profile via the per-edge kernel:

        c4 = sum_e C(cyc(e), 2)        t4 = sum_e C(thru(e), 2)
        l  = sum_v C(d_v, 3) - t4      w  = sum_v C(e_v, 3) - t4

    with out-degrees d and in-degrees e = n - 1 - d: sum_v C(d_v, 3)
    counts the 4-sets with a source, which are the T4 and L sets, and
    sum_v C(e_v, 3) those with a sink, the T4 and W sets.  Cross-checked
    against C(n, 4) and the triangle-link identity
    2*c4 + w + l = (n - 3)*c3 before returning."""
    n = t.n
    if n < 4:
        return Profile4Counts(n, 0, 0, 0, 0)
    c4, t4 = _arc_pair_sums(paths_matrix(t), t.dense())
    d = t.out_degrees()
    l_count = int(_comb3(d).sum()) - t4
    w_count = int(_comb3(n - 1 - d).sum()) - t4
    rest = comb(n, 4) - c4 - w_count - l_count
    if rest != t4:
        raise InternalInvariantError(
            f"t4 mismatch: pair-sum {t4} vs complement {rest}")
    c3 = profile3(t).c3_count
    if 2 * c4 + w_count + l_count != (n - 3) * c3:
        raise InternalInvariantError("2*c4 + w + l != (n-3)*c3")
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
    """Per-directed-edge third-vertex counts, edges in ascending (u, v)."""
    n: int
    edges: np.ndarray      # (E, 2) int64, E = C(n, 2)
    cyc: np.ndarray        # (E,) int64
    thru: np.ndarray
    dom_out: np.ndarray
    dom_in: np.ndarray

    def __post_init__(self):
        total = self.cyc + self.thru + self.dom_out + self.dom_in
        if not (total == self.n - 2).all():
            raise InternalInvariantError("cyc+thru+dom_out+dom_in != n-2")

    def x_values(self) -> np.ndarray:
        return self.cyc / (self.n - 2)

    def sums(self) -> dict:
        """Exact integer pair sums used by the moment identities."""
        return {
            "cyc": int(self.cyc.sum()),
            "thru": int(self.thru.sum()),
            "comb2_cyc": int(_comb2(self.cyc).sum()),
            "comb2_thru": int(_comb2(self.thru).sum()),
            "cyc_thru": int((self.cyc * self.thru).sum()),
        }


def edge_stats(t: Tournament) -> EdgeStats:
    if t.n < 3:
        raise TournamentError("edge stats need n >= 3")
    u, v, cyc, thru, dom_out, dom_in = _arc_stats(t)
    return EdgeStats(n=t.n, edges=np.stack([u, v], axis=1), cyc=cyc,
                     thru=thru, dom_out=dom_out, dom_in=dom_in)


@dataclass(frozen=True)
class MomentReport:
    """Moments of (X, Y, Z) over a uniformly random directed edge.
    Exact rationals for n <= 1000, floats beyond."""
    n: int
    ex: object
    ey: object
    exx: object
    exy: object
    eyy: object
    ezz: object
    var_x: object

    def as_floats(self) -> dict:
        return {k: float(getattr(self, k))
                for k in ("ex", "ey", "exx", "exy", "eyy", "ezz", "var_x")}


def moments(t: Tournament, stats: EdgeStats | None = None) -> MomentReport:
    """E[X], E[Y], E[X^2], E[XY], E[Y^2], E[Z^2], Var(X) with
    Z = 1 + 2(X - Y).  Uses sum cyc^2 = sum cyc + 2 sum C(cyc, 2)."""
    if stats is None:
        stats = edge_stats(t)
    n = t.n
    s = stats.sums()
    m = comb(n, 2)
    k = n - 2
    num = Fraction if n <= EXACT_MOMENT_MAX_N else float
    ex = num(s["cyc"]) / (m * k)
    ey = num(s["thru"]) / (m * k)
    exx = num(s["cyc"] + 2 * s["comb2_cyc"]) / (m * k * k)
    eyy = num(s["thru"] + 2 * s["comb2_thru"]) / (m * k * k)
    exy = num(s["cyc_thru"]) / (m * k * k)
    ezz = 1 + 4 * ex - 4 * ey + 4 * exx - 8 * exy + 4 * eyy
    return MomentReport(n=n, ex=ex, ey=ey, exx=exx, exy=exy, eyy=eyy,
                        ezz=ezz, var_x=exx - ex * ex)


def x_cdf(t: Tournament, xs, stats: EdgeStats | None = None) -> np.ndarray:
    """phi(x) = fraction of directed edges with X >= x; nonincreasing,
    phi(0) = 1.  A NaN x is a ValueError."""
    xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
    if np.isnan(xs).any():
        raise ValueError("x must not be NaN")
    if stats is None:
        stats = edge_stats(t)
    cyc_sorted = np.sort(stats.cyc)
    e = len(cyc_sorted)
    thresholds = xs * (t.n - 2)
    counts = e - np.searchsorted(cyc_sorted, thresholds, side="left")
    return counts / e


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


def sample_profile4(t: Tournament, samples: int, seed: int) -> SampleProfile4:
    """Estimate the 4-profile by sampling `samples` uniform 4-subsets.
    Draw order: stream values are consumed sequentially; each vertex is
    value * n >> 64, redrawn on duplicates within the current 4-set."""
    if t.n < 4:
        raise TournamentError("sampling needs n >= 4")
    if samples < 1:
        raise TournamentError("samples must be >= 1")
    stream = rng.Stream(seed)
    counts = dict.fromkeys(FOUR_TYPES, 0)
    a = t.dense()
    n = t.n
    for _ in range(samples):
        picked = []
        while len(picked) < 4:
            v = stream.next_below(n)
            if v not in picked:
                picked.append(v)
        sub = a[np.ix_(picked, picked)]
        key = tuple(sorted(int(x) for x in sub.sum(axis=1)))
        counts[_SCORES_TO_TYPE[key]] += 1
    return SampleProfile4(n=n, samples=samples, counts=counts)


class FlipState:
    """Mutable tournament wrapper maintaining exact triangle and 4-cycle
    counts across single-pair flips in O(n) time per flip.

    Keeps the path matrix P2[a, b] = #{w : a -> w -> b}.  `delta` prices
    reversing the arc src -> dst from P2 without changing any state: with
    p = P2[src, dst], q = P2[dst, src], F = {x : src -> x -> dst} and
    B = {x : dst -> x -> src},

        dc3 = p - q
        dc4 = C(p, 2) - C(q, 2) + 2q
              - sum_{x in B} (P2[src, x] + P2[x, dst])
              + sum_{x in F} (P2[dst, x] + P2[x, src]).

    `flip` adds that delta to the counts and commits the flip as a
    rank-1 update of rows and columns src and dst of P2.  c3 and c4 fix
    t4 through t4 - c4 = (C(n, 3) - 4*c3)*(n - 3)/4; W and L are
    recounted on demand (counts4)."""

    def __init__(self, t: Tournament):
        self.n = t.n
        if self.n < 4:
            raise TournamentError("FlipState needs n >= 4")
        self.a = t.dense().copy()
        self.p2 = paths_matrix(t)
        self.c3_count = profile3(t).c3_count
        self.c4_count = _arc_pair_sums(self.p2, self.a)[0]

    # -- derived views --------------------------------------------------

    def tournament(self) -> Tournament:
        """Snapshot of the current orientation; later flips leave it be."""
        return Tournament(self.a)

    @property
    def t4_count(self) -> int:
        n = self.n
        return self.c4_count + (comb(n, 3) - 4 * self.c3_count) * (n - 3) // 4

    def counts4(self) -> Profile4Counts:
        """Full 4-profile; W/L are recounted from scratch here."""
        p4 = profile4(self.tournament())
        if (p4.c4_count, p4.t4_count) != (self.c4_count, self.t4_count):
            raise InternalInvariantError("incremental c4/t4 drifted from recount")
        return p4

    # -- incremental update ----------------------------------------------

    def _arc(self, u: int, v: int) -> tuple[int, int]:
        """(src, dst): the pair {u, v} in its current orientation."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise TournamentError(f"bad pair ({u}, {v})")
        return (u, v) if self.a[u, v] else (v, u)

    def delta(self, u: int, v: int) -> tuple[int, int]:
        """(dc3, dc4) of flipping pair {u, v}; the state is unchanged."""
        src, dst = self._arc(u, v)
        a, p2 = self.a, self.p2
        p, q = int(p2[src, dst]), int(p2[dst, src])
        fwd = a[src, :] & a[:, dst]
        back = a[dst, :] & a[:, src]
        dc4 = (p * (p - 1) // 2 - q * (q - 1) // 2 + 2 * q
               - int((p2[src, :] + p2[:, dst]) @ back)
               + int((p2[dst, :] + p2[:, src]) @ fwd))
        return p - q, dc4

    def flip(self, u: int, v: int) -> None:
        """Reverse the orientation of pair {u, v}."""
        dc3, dc4 = self.delta(u, v)
        src, dst = self._arc(u, v)
        a, p2 = self.a, self.p2

        # P2 updates for A[src,dst]: 1 -> 0 and A[dst,src]: 0 -> 1, using
        # pre-flip rows/columns of A.  The two changed arc entries meet
        # only in the diagonal terms P2[src,src] and P2[dst,dst], which
        # must stay 0; reset them after the rank-1 updates.
        p2[src, :] -= a[dst, :]
        p2[:, src] += a[:, dst]
        p2[dst, :] += a[src, :]
        p2[:, dst] -= a[:, src]
        p2[src, src] = 0
        p2[dst, dst] = 0

        a[src, dst] = False
        a[dst, src] = True

        self.c3_count += dc3
        self.c4_count += dc4

    def audit(self) -> None:
        """Recount P2, c3, c4 and t4 from scratch; raise on any drift
        (t4 checks the identity that derives it from c3 and c4)."""
        t = self.tournament()
        p2 = paths_matrix(t)
        if not np.array_equal(p2, self.p2):
            raise InternalInvariantError("P2 matrix drifted")
        c4, t4 = _arc_pair_sums(p2, t.dense())
        if (profile3(t).c3_count, c4, t4) != \
                (self.c3_count, self.c4_count, self.t4_count):
            raise InternalInvariantError("incremental counts drifted")


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
    p3 = profile3(t)
    p4 = profile4(t)
    s = edge_stats(t).sums()
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
