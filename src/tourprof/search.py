"""Stochastic search for tournaments with low c4 at prescribed c3.

The optimizer is single-flip simulated annealing on the penalized
objective

    c4 + penalty * (c3 - gamma)^2

Each proposal draws a pair, orients it once as its current arc and is
priced by FlipState.arc_delta, which changes no state and reads only
two rows of P2, two rows of A and the out-degree vector (one dot
product); an accepted proposal commits that same priced delta with
FlipState.commit, so no delta is computed twice.  The default penalty
of 500 keeps the equilibrium drift |c3 - gamma| near
sqrt(step)/(2*penalty), well under the 0.003 target at n = 64; small
penalties let the chain buy quadratic penalty for linear c4 gain and
collapse toward the transitive tournament.

boundary_scan compares annealed minima against the conjectured lower
envelope and flags any point that lands more than a margin below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import rng
from .bounds import conjectured_min_c4, lb_flag
from .core import (BlowupSpec, InternalInvariantError, Tournament,
                   TournamentError, blowup, random_tournament, transitive)
from .profiles import (FlipState, Profile3Counts, Profile4Counts, profile3,
                       profile4)

DEFAULT_PENALTY = 500.0
DISCOVERY_MARGIN = 0.01
DEFAULT_GAMMAS = (1.0 / 16.0, 0.25)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: T falls from T0 (calibrated during warmup) by
    the factor `cool` over `moves` proposals; every `audit_every`
    accepted flips the incremental counts are recounted from scratch."""
    moves: int = 60_000
    warmup: int = 1_000
    cool: float = 1e-5
    audit_every: int = 1_000

    def __post_init__(self):
        if self.moves < 1 or self.warmup < 0:
            raise ValueError("schedule needs moves >= 1 and warmup >= 0")
        if not 0.0 < self.cool < 1.0:
            raise ValueError("cool must be in (0, 1)")
        if self.audit_every < 1:
            raise ValueError("audit_every must be positive")


def _penalizer(n: int, gamma: float, penalty: float):
    """The function (c3, c4) -> c4 + penalty*(c3 - gamma)^2 at the
    densities of these counts on n vertices."""
    c3_total, c4_total = comb(n, 3), comb(n, 4)

    def penalized(c3: int, c4: int) -> float:
        return c4 / c4_total + penalty * (c3 / c3_total - gamma) ** 2
    return penalized


def objective(subject, gamma: float, penalty: float = DEFAULT_PENALTY) -> float:
    """Penalized objective c4 + penalty*(c3 - gamma)^2 for a Tournament
    or a live FlipState."""
    if isinstance(subject, FlipState):
        c3, c4 = subject.c3_count, subject.c4_count
    elif isinstance(subject, Tournament):
        if subject.n < 4:
            raise TournamentError(
                f"objective needs n >= 4 (got n={subject.n})")
        c3, c4 = profile3(subject).c3_count, profile4(subject).c4_count
    else:
        raise TypeError("objective expects a Tournament or FlipState")
    return _penalizer(subject.n, gamma, penalty)(c3, c4)


@dataclass(frozen=True)
class AnnealResult:
    n: int
    gamma: float
    penalty: float
    seed: int
    tournament: Tournament
    profile3: Profile3Counts
    profile4: Profile4Counts
    objective: float
    initial_objective: float
    temperature0: float
    accepted: int
    proposed: int

    @property
    def c3(self) -> float:
        return self.profile3.c3

    @property
    def c4(self) -> float:
        return self.profile4.c4


def _warm_start(n: int, gamma: float, seed: int) -> Tournament:
    """Blowup of the conjectured optimal transitive pattern when its m <= n
    parts survive rounding at this n; uniformly random otherwise."""
    try:
        opt = conjectured_min_c4(min(max(gamma, 1e-9), 0.25))
        if opt.m <= n:
            spec = BlowupSpec(host=transitive(opt.m), weights=opt.weights)
            return blowup(spec, n, seed=rng.derive(seed, 0xB10))
    except ValueError:
        pass
    return random_tournament(n, seed=rng.derive(seed, 0xA17))


def anneal(n: int, gamma: float, seed: int,
           penalty: float = DEFAULT_PENALTY,
           schedule: Optional[AnnealSchedule] = None) -> AnnealResult:
    """Minimize c4 + penalty*(c3 - gamma)^2 over n-vertex tournaments by
    simulated annealing.  Deterministic in (n, gamma, seed, penalty,
    schedule).  Returns the best state seen, re-profiled exactly."""
    if n < 8:
        raise ValueError("annealing needs n >= 8")
    if not 0.0 <= gamma <= 0.25 + 1e-12:
        raise ValueError(f"gamma must be in [0, 1/4], got {gamma}")
    if not (math.isfinite(penalty) and penalty >= 0):
        raise ValueError(f"penalty must be finite and >= 0, got {penalty}")
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
    # Sanity floor: no tournament can beat the Cauchy-Schwarz bound by
    # more than the finite-n correction; a violation means miscounting.
    c3f = min(p3.c3, 0.25)
    if c3f > 0 and p4.c4 < lb_flag(c3f) - 5.0 / n:
        raise InternalInvariantError(
            f"annealed c4={p4.c4:.6f} below analytic floor at "
            f"c3={p3.c3:.6f}")
    return AnnealResult(n=n, gamma=gamma, penalty=penalty, seed=seed,
                        tournament=best_t, profile3=p3, profile4=p4,
                        objective=best_exact, initial_objective=initial,
                        temperature0=t0, accepted=accepted,
                        proposed=schedule.moves)


@dataclass(frozen=True)
class ScanPoint:
    gamma: float
    n: int
    seed: int
    c3: float
    c4: float
    objective: float
    conjectured_c4: float
    discovery: bool
    result: AnnealResult = field(repr=False, compare=False, default=None)


def _conjectured_at(c3: float) -> float:
    """Conjectured minimal c4 at the achieved c3, clamped into the curve
    domain (the curve is increasing, so clamping c3 to [0, 1/4] only
    makes the comparison conservative for a would-be discovery)."""
    c3 = min(max(c3, 0.0), 0.25)
    if c3 == 0.0:
        return 0.0
    return conjectured_min_c4(c3).c4


def boundary_scan(gammas: Sequence[float] = DEFAULT_GAMMAS, n: int = 64,
                  seeds=1, penalty: float = DEFAULT_PENALTY,
                  schedule: Optional[AnnealSchedule] = None) -> list:
    """Anneal at each (gamma, seed) pair and compare the achieved c4
    with the conjectured envelope at the achieved c3.  A point is
    flagged DISCOVERY when c4 < conjectured - 0.01; results are sorted
    by (gamma, seed)."""
    if isinstance(seeds, int):
        if seeds < 1:
            raise ValueError("seeds must be a positive count or a sequence")
        seed_list = list(range(seeds))
    else:
        seed_list = [int(s) for s in seeds]
    gammas = [float(g) for g in gammas]
    for g in gammas:
        if not 0.0 < g <= 0.25 + 1e-12:
            raise ValueError(f"scan gamma must be in (0, 1/4], got {g}")
    points = []
    for g in gammas:
        for s in seed_list:
            res = anneal(n, g, seed=s, penalty=penalty, schedule=schedule)
            conj = _conjectured_at(res.c3)
            points.append(ScanPoint(
                gamma=g, n=n, seed=s, c3=res.c3, c4=res.c4,
                objective=res.objective, conjectured_c4=conj,
                discovery=res.c4 < conj - DISCOVERY_MARGIN, result=res))
    return sorted(points, key=lambda p: (p.gamma, p.seed))
