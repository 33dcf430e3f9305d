"""Bound curves and extremal predictions on the (c3, c4) plane.

Lower bounds for the 4-cycle density at given triangle density c3:

    lb_variance(c3) = 6 c3^2              (second-moment / convexity)
    lb_flag(c3)     = 18 c3^2 / (1 + 8 c3)  (Cauchy-Schwarz on tX - Z)

Upper boundary: c4 <= 2 c3 (equivalently t4 >= 2 t3 - 1, and
c4 <= min{t4, 1 - t4} on the (t4, c4) plane).

The conjectured minimum at c3 is attained by blow-ups of transitive
tournaments with m - 1 equal weights a and one smaller weight b, where m
is the smallest part count that can realize sum w_i^3 = 4 c3.  The same
weight pattern solves min sum w^4 subject to sum w = 1, sum w^3 = C;
replace_step implements the local improvement argument showing any other
weight pattern can be strictly improved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .core import BlowupSpec, InternalInvariantError

DEFAULT_BISECT_TOL = 1e-12
_FEAS_TOL = 1e-12


def _check_c3(c3: float, lo_open: bool = False) -> float:
    c3 = float(c3)
    lo_ok = c3 > 0 if lo_open else c3 >= 0
    if not (lo_ok and c3 <= 0.25 + 1e-15):
        kind = "(0, 1/4]" if lo_open else "[0, 1/4]"
        raise ValueError(f"c3 must be in {kind}, got {c3}")
    return min(c3, 0.25)


def lb_variance(c3: float) -> float:
    """c4 >= 6 c3^2."""
    c3 = _check_c3(c3)
    return 6.0 * c3 * c3


def lb_flag(c3: float) -> float:
    """c4 >= 18 c3^2 / (1 + 8 c3); equals 3/64 at c3 = 1/16 and 3/8 at 1/4."""
    c3 = _check_c3(c3)
    return 18.0 * c3 * c3 / (1.0 + 8.0 * c3)


def ub_c4_from_c3(c3: float) -> float:
    """c4 <= 2 c3, tight on interval tournaments."""
    c3 = _check_c3(c3)
    return 2.0 * c3


def ub_t4_from_t3(t3: float) -> float:
    """t4 >= 2 t3 - 1 rearranged as the upper boundary in figure axes."""
    if not 0.75 - 1e-15 <= t3 <= 1.0 + 1e-15:
        raise ValueError(f"t3 must be in [3/4, 1], got {t3}")
    return 2.0 * t3 - 1.0


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


def _smallest_feasible_m(c_target: float) -> int:
    """Smallest m with 1/m^2 <= c_target, scanning up from the float guess
    so near-exact squares (c_target = 1/m^2) land on m, not m + 1."""
    m = max(1, int(sqrt(1.0 / c_target)) - 1)
    while 1.0 / (m * m) > c_target + _FEAS_TOL:
        m += 1
    return m


def _solve_two_value(c_target: float, m: int, tol: float = DEFAULT_BISECT_TOL):
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
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    b = 0.5 * (lo + hi)
    return (1.0 - b) / (m - 1), b


def _finish_optimum(c_target: float, m: int, tol: float) -> BlowupOptimum:
    a, b = _solve_two_value(c_target, m, tol)
    c4 = 0.375 * ((m - 1) * a**4 + b**4)
    opt = BlowupOptimum(m=m, a=a, b=b, c3=c_target / 4.0, c4=c4)
    if not (a >= b > 0):
        raise InternalInvariantError(f"weight order violated: a={a}, b={b}")
    if abs((m - 1) * a + b - 1.0) > 1e-10:
        raise InternalInvariantError("weights do not sum to 1")
    if abs((m - 1) * a**3 + b**3 - c_target) > 1e-10:
        raise InternalInvariantError("cube-sum constraint missed")
    return opt


def conjectured_min_c4(c3: float, tol: float = DEFAULT_BISECT_TOL) -> BlowupOptimum:
    """Conjectured minimal c4 at triangle density c3 in (0, 1/4]: the
    transitive blow-up with the smallest feasible number of parts m
    (1/m^2 <= 4 c3 < 1/(m-1)^2), m - 1 equal weights and one smaller."""
    c3 = _check_c3(c3, lo_open=True)
    c_target = 4.0 * c3
    m = _smallest_feasible_m(c_target)
    return _finish_optimum(c_target, m, tol)


def min_fourth_power_sum(c_target: float, m: int,
                         tol: float = DEFAULT_BISECT_TOL):
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
    return _finish_optimum(min(c_target, 1.0), m, tol)


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


def mix_profile_prediction(c3_1, c4_1, c3_2, c4_2, alpha, p):
    """Asymptotic (c3, c4) of the two-block mix: blocks of relative sizes
    alpha and 1 - alpha with profiles (c3_i, c4_i), cross pairs oriented
    block-1 -> block-2 with probability p.  Plain arithmetic, so exact
    types (Fraction) pass through.

    Grouping quadruples by the block split (4+0, 2+2, 3+1):

        c3 = a^3 c3_1 + b^3 c3_2 + 3 a b q
        c4 = a^4 c4_1 + b^4 c4_2
             + 6 a^2 b^2 (q + 2 q^2)
             + 4 a^3 b (3 c3_1 q + (1 - c3_1) q)
             + 4 a b^3 (3 c3_2 q + (1 - c3_2) q)

    with a = alpha, b = 1 - alpha, q = p (1 - p)."""
    a = alpha
    b = 1 - alpha
    q = p * (1 - p)
    c3 = a**3 * c3_1 + b**3 * c3_2 + 3 * a * b * q
    c4 = (a**4 * c4_1 + b**4 * c4_2
          + 6 * a**2 * b**2 * (q + 2 * q * q)
          + 4 * a**3 * b * (c3_1 * 3 * q + (1 - c3_1) * q)
          + 4 * a * b**3 * (c3_2 * 3 * q + (1 - c3_2) * q))
    return c3, c4


def predict_blowup_profile(spec: BlowupSpec) -> tuple:
    """Asymptotic (c3, c4) of the blow-up T(host; w):

        c3 = 2 tr(M^3),  c4 = 6 tr(M^4),  M = (A + I/2) diag(w),

    with A the host's adjacency matrix.  M[p, q] is the chance that a
    new vertex falls in part q (probability w_q) and a vertex of part p
    beats it; the I/2 is the fair coin between two vertices of one
    part.  The arcs between distinct vertices are independent, so
    tr(M^j) is the chance that j independent vertices, in the order
    drawn, form a directed j-cycle.  A 3-set is cyclic iff one of its 2
    cyclic orders is a directed cycle, and a 4-set induces C4 iff
    exactly one of its 6 cyclic orders is a directed Hamiltonian cycle;
    the orders are disjoint events of equal chance.  For the transitive
    host M is triangular, giving (sum w^3 / 4, 3 sum w^4 / 8)."""
    w = np.array(spec.weights)
    m = (spec.host.dense() + 0.5 * np.eye(len(w))) * w
    m2 = m @ m
    return 2.0 * float(np.trace(m2 @ m)), 6.0 * float(np.trace(m2 @ m2))


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
