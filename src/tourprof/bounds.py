"""Bound curves and extremal predictions on the (c3, c4) plane.

Lower bounds for the 4-cycle density at given triangle density c3:

    lb_variance(c3) = 6 c3^2              (second-moment / convexity)
    lb_flag(c3)     = 18 c3^2 / (1 + 8 c3)  (Cauchy-Schwarz on tX - Z)

Upper boundary: c4 <= 2 c3 (equivalently t4 >= 2 t3 - 1, and
c4 <= min{t4, 1 - t4} on the (t4, c4) plane).

One formula predicts every blow-up: part i has weight w_i and interior
densities (g_i, f_i), P_ij is the chance that a cross pair points i -> j,
and M = (P + I/2) diag(w).  Random parts, (1/4, 3/8), zero the corrections.

    c3 = 2 tr(M^3) + sum_i w_i^3 (g_i - 1/4)
    c4 = 6 tr(M^4) + sum_i w_i^4 (f_i - 3/8)
                   + 8 sum_ij w_i^3 w_j P_ij P_ji (g_i - 1/4)

The conjectured minimum at c3 is attained by blow-ups of transitive
tournaments with m - 1 equal weights a and one smaller weight b, where m
is the smallest part count that can realize sum w_i^3 = 4 c3.  The same
weight pattern solves min sum w^4 subject to sum w = 1, sum w^3 = C;
replace_step implements the local improvement argument showing any other
weight pattern can be strictly improved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, sqrt
from operator import add, mul
from typing import TYPE_CHECKING

from .base import InternalInvariantError

if TYPE_CHECKING:
    from .core import BlowupSpec

DEFAULT_BISECT_TOL = 1e-12
_FEAS_TOL = 1e-12


def _check_c3(c3: float, least: float = 0.0) -> float:
    c3 = float(c3)
    if not least <= c3 <= 0.25 + 1e-15:
        raise ValueError(f"c3 must be in [{least:.17g}, 1/4], got {c3}")
    return min(c3, 0.25)


def lb_variance(c3: float) -> float:
    """c4 >= 6 c3^2."""
    c3 = _check_c3(c3)
    return 6.0 * c3 * c3


def lb_flag(c3: float) -> float:
    """c4 >= 18 c3^2 / (1 + 8 c3); equals 3/64 at c3 = 1/16 and 3/8 at 1/4."""
    c3 = _check_c3(c3)
    return 18.0 * c3 * c3 / (1.0 + 8.0 * c3)


def lb_flag_n(n: int, c3_count: int) -> Fraction:
    """The exact c4 density floor of an n-vertex tournament with c3_count
    cyclic triangles, n >= 4: with g = c3/C(n,3), t = (1 + 8g)/(3g) and
    lambda(g) = 18 g^2/(1 + 8g), which is lb_flag(g),

        floor_n = lambda(g) - (6/t^2)((t - 3)^2 g + 1 - g)/(n - 3),

    and 0 at c3 = 0.  It is Lemma 1 at finite n: with N_e the counts
    (cyc, thru, dom_out, dom_in) of arc e and v = (t - 3, 1, -1, -1),

        c4/C(n,4) = floor_n + (6/t^2) sum_e (v . N_e)^2 / (12 C(n,4)),

    so a tournament below it is a miscount.  In c = c3_count and
    N3 = C(n,3) it is 6c (3c(n - 3) - N3 + c) / ((n - 3) N3 (N3 + 8c))."""
    n3 = comb(n, 3)
    if n < 4 or not 0 <= c3_count <= n3:
        raise ValueError(f"need n >= 4 and 0 <= c3_count <= C(n,3), got "
                         f"n={n}, c3_count={c3_count}")
    c = c3_count
    return Fraction(6 * c * (3 * c * (n - 3) - n3 + c),
                    (n - 3) * n3 * (n3 + 8 * c))


def ub_c4_from_c3(c3: float) -> float:
    """c4 <= 2 c3, tight on interval tournaments."""
    c3 = _check_c3(c3)
    return 2.0 * c3


def ub_c4_from_t4(t4: float) -> float:
    """c4 <= min(t4, 1 - t4)."""
    if not 0.0 <= t4 <= 1.0 + 1e-15:
        raise ValueError(f"t4 must be in [0, 1], got {t4}")
    return min(t4, 1.0 - t4)


@dataclass(frozen=True)
class BlowupOptimum:
    """Optimal transitive-blow-up weights for a cube-sum constraint:
    m - 1 parts of weight a and one part of weight b, a >= b > 0."""
    m: int
    a: float
    b: float
    c3: float
    c4: float

    @property
    def weights(self) -> tuple:
        return (self.a,) * (self.m - 1) + (self.b,)


def _solve_two_value(c_target: float, m: int):
    """Bisect for b in (0, 1/m] with (m-1)a + b = 1 and (m-1)a^3 + b^3 =
    c_target; the cube-sum is strictly decreasing in b on that bracket."""
    if m == 1:
        return 1.0, 1.0
    def g(b):
        a = (1.0 - b) / (m - 1)
        return (m - 1) * a**3 + b**3 - c_target
    lo, hi = 0.0, 1.0 / m
    if g(hi) > 0:           # only possible through rounding at C = 1/m^2
        return hi, hi
    for _ in range(200):
        if hi - lo <= DEFAULT_BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    return (1.0 - b) / (m - 1), b


def _finish_optimum(c_target: float, m: int) -> BlowupOptimum:
    a, b = _solve_two_value(c_target, m)
    c4 = 0.375 * ((m - 1) * a**4 + b**4)
    opt = BlowupOptimum(m=m, a=a, b=b, c3=c_target / 4.0, c4=c4)
    if not (a >= b > 0):
        raise InternalInvariantError(f"weight order violated: a={a}, b={b}")
    if abs((m - 1) * a + b - 1.0) > 1e-10:
        raise InternalInvariantError("weights do not sum to 1")
    if abs((m - 1) * a**3 + b**3 - c_target) > 1e-10:
        raise InternalInvariantError("cube-sum constraint missed")
    return opt


def conjectured_min_c4(c3: float) -> BlowupOptimum:
    """Conjectured minimal c4 at triangle density c3 in [2^-1024, 1/4]
    (below, the part count 1/sqrt(4 c3) overflows): the transitive
    blow-up with the smallest feasible number of parts m (1/m^2 <= 4 c3
    < 1/(m-1)^2), m - 1 equal weights and one smaller.  m is scanned up
    from the float guess, so near-exact squares (4 c3 = 1/m^2) land on m,
    not m + 1."""
    c3 = _check_c3(c3, 2.0**-1024)
    c_target = 4.0 * c3
    m = max(1, int(sqrt(1.0 / c_target)) - 1)
    while 1.0 / (m * m) > c_target + _FEAS_TOL:
        m += 1
    return _finish_optimum(c_target, m)


def min_fourth_power_sum(c_target: float, m: int):
    """Minimize sum w_i^4 over m positive weights with sum w = 1 and
    sum w^3 = c_target.  Returns None when infeasible: the two-value
    pattern (a, ..., a, b) sweeps exactly c_target in [1/m^2, 1/(m-1)^2)
    as b runs from 1/m to 0, so feasibility is that bracket."""
    if not 0.0 < c_target <= 1.0 + _FEAS_TOL:
        raise ValueError(f"cube-sum target must be in (0, 1], got {c_target}")
    if m < 1:
        raise ValueError("m must be >= 1")
    if 1.0 / (m * m) > c_target + _FEAS_TOL:
        return None
    if m > 1 and c_target >= 1.0 / ((m - 1) * (m - 1)):
        return None
    return _finish_optimum(min(c_target, 1.0), m)


@dataclass(frozen=True)
class ReplacementResult:
    """One local-improvement step on a weight pattern (x, y, y), x > y > 0.
    Branch 1 replaces it by (s, t, 0), branch 2 by (s, s, t); both keep
    the sum and cube-sum and strictly decrease the fourth-power sum."""
    branch: int
    s: float
    t: float
    discriminant: float | None

    @property
    def pattern(self) -> tuple:
        if self.branch == 1:
            return (self.s, self.t, 0.0)
        return (self.s, self.s, self.t)


REPLACE_THRESHOLD = (sqrt(5.0) - 1.0) / 4.0


def replace_step(x: float, y: float) -> ReplacementResult:
    """Replace weights (x, y, y) with a pattern of at most two distinct
    positive values.  Branch 1 (y strictly below (sqrt(5)-1)/4 * x): s, t
    are the roots of (x+2y) s^2 - (x+2y)^2 s + 2y (x+y)^2 = 0, s the
    larger.  Branch 2 (at or above the threshold, where branch 1's third
    weight would be needed): s = (2x + 3y - sqrt(y (4x + 5y)))/2 and
    t = x + 2y - 2s >= 0, with t = 0 exactly at the threshold."""
    if not x > y > 0:
        raise ValueError(f"need x > y > 0, got x={x}, y={y}")
    q = x + 2.0 * y
    old3 = x**3 + 2.0 * y**3
    old4 = x**4 + 2.0 * y**4
    if y < REPLACE_THRESHOLD * x:
        disc = q**4 - 8.0 * y * (x + y) ** 2 * q
        if disc < 0:
            raise InternalInvariantError(f"negative discriminant {disc}")
        root = sqrt(disc)
        s = (q * q + root) / (2.0 * q)
        t = (q * q - root) / (2.0 * q)
        result = ReplacementResult(branch=1, s=s, t=t, discriminant=disc)
    else:
        s = (2.0 * x + 3.0 * y - sqrt(y * (4.0 * x + 5.0 * y))) / 2.0
        t = max(x + 2.0 * y - 2.0 * s, 0.0)
        result = ReplacementResult(branch=2, s=s, t=t, discriminant=None)
    pat = result.pattern
    new3 = sum(w**3 for w in pat)
    new4 = sum(w**4 for w in pat)
    scale = max(1.0, abs(q), abs(old3))
    if abs(sum(pat) - q) > 1e-9 * scale or abs(new3 - old3) > 1e-9 * scale:
        raise InternalInvariantError(
            f"replacement broke conservation: {pat} from ({x}, {y}, {y})")
    if not new4 < old4:
        raise InternalInvariantError(
            f"fourth-power sum did not decrease: {new4} >= {old4}")
    if not result.s >= result.t >= 0.0:
        raise InternalInvariantError(f"weights out of order in {pat}")
    return result


def _dot(xs, ys):
    """sum_k x_k y_k from the first product on, as numpy sums objects."""
    return reduce(add, map(mul, xs, ys))


def _blowup_profile(host, weights, interiors=None) -> tuple:
    """The formula of the module docstring in Python arithmetic, so
    Fraction inputs stay exact; `interiors` None means random parts.
    M[p, q] is the chance that a new vertex lands in part q and one of
    part p beats it.  Arcs are independent, so tr(M^j) is the chance
    that j vertices in drawn order form a directed j-cycle: 2 orders of
    a C3 do, 1 of a C4's 6.  A drawn pair is a fair coin in any part, so
    only sets with 3 or 4 vertices in part i see (g_i, f_i); with a
    vertex of part j, a triple is C4 with chance 3 P_ij P_ji if cyclic,
    P_ij P_ji if not."""
    p = host.tolist() if hasattr(host, "tolist") else host    # numpy bools
    w, parts = weights, range(len(weights))
    m = [[(p[i][j] + (Fraction(1, 2) if i == j else 0)) * w[j]
          for j in parts] for i in parts]
    m2 = [[_dot(row, col) for col in zip(*m)] for row in m]
    c3 = 2 * reduce(add, [_dot(m2[i], [r[i] for r in m]) for i in parts])
    c4 = 6 * reduce(add, [_dot(m2[i], [r[i] for r in m2]) for i in parts])
    if interiors is not None:
        g, f = zip(*interiors)
        dg = [w[i]**3 * (g[i] - Fraction(1, 4)) for i in parts]
        c3 += reduce(add, dg)
        pair = [_dot([8 * x for x in dg], [p[i][j] * p[j][i] for i in parts])
                for j in parts]         # (8 dg) @ (P * P^T)
        c4 += reduce(add, [w[i]**4 * (f[i] - Fraction(3, 8))
                           for i in parts]) + _dot(pair, w)
    return c3, c4


def mix_profile_prediction(c3_1, c4_1, c3_2, c4_2, alpha, p):
    """Asymptotic (c3, c4) of blocks of weights alpha and 1 - alpha with
    profiles (c3_i, c4_i) and cross pairs 1 -> 2 with chance p: the blow-up
    formula on the host [[0, p], [1 - p, 0]], exact for Fraction inputs."""
    return _blowup_profile([[0, p], [1 - p, 0]], (alpha, 1 - alpha),
                           ((c3_1, c4_1), (c3_2, c4_2)))


def predict_blowup_profile(spec: BlowupSpec) -> tuple:
    """Asymptotic (c3, c4) = (2 tr(M^3), 6 tr(M^4)) of T(host; w) with
    random parts: the blow-up formula on the host's adjacency matrix."""
    return _blowup_profile(spec.host.dense(), spec.weights)


@dataclass(frozen=True)
class CurveTable:
    """Rows (abscissa, upper, lb_variance, lb_flag, conjectured, m) for
    one of the four figure axes, sorted by abscissa."""
    which: str
    abscissa: str
    rows: list


_FIGS = {"fig1": "t3", "fig2": "c3", "fig3": "t4", "fig4": "c3"}


def curve_dataset(grid, which: str = "fig4") -> CurveTable:
    """Tabulate the bound curves over a c3 grid in [0, 1/4], converted to
    the requested figure's axes via t3 = 1 - c3 and t4 = c4 + 1 - 4 c3.
    The c3 = 0 endpoint is emitted with conjectured value 0 and m = 0
    (the part count diverges there)."""
    if which not in _FIGS:
        raise ValueError(f"which must be one of {sorted(_FIGS)}, got {which!r}")
    rows = []
    for c3 in grid:
        c3 = _check_c3(c3)
        lbv = lb_variance(c3)
        lbf = lb_flag(c3)
        if c3 > 0:
            opt = conjectured_min_c4(c3)
            conj, m = opt.c4, opt.m
        else:
            conj, m = 0.0, 0
        if which in ("fig2", "fig4"):
            rows.append((c3, 2.0 * c3, lbv, lbf, conj, m))
        elif which == "fig1":
            shift = 1.0 - 4.0 * c3
            rows.append((1.0 - c3, 1.0 - 2.0 * c3,
                         lbv + shift, lbf + shift, conj + shift, m))
        else:
            t4 = conj + 1.0 - 4.0 * c3
            rows.append((t4, ub_c4_from_t4(min(max(t4, 0.0), 1.0)),
                         lbv, lbf, conj, m))
    rows.sort(key=lambda r: r[0])
    return CurveTable(which=which, abscissa=_FIGS[which], rows=rows)
