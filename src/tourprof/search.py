"""Stochastic search for tournaments with low c4 at prescribed c3.

The optimizer is single-flip simulated annealing on the penalized
objective

    c4 + penalty * (c3 - gamma)^2

Each proposal draws a pair, orients it once as its current arc and is
priced by the change (dc3, dc4) that reversing that arc would make; an
accepted proposal commits that same priced delta with FlipState.commit,
so no delta is computed twice.  The draw contract is fixed: each
proposal draws u = below(n) and r = below(n - 1) (v = r, or r + 1 when
r >= u), and after the warmup an uphill proposal draws a third value,
its uniform.  The stream is counter-based, so the annealer reads it by
index through a bounded window of rng.values.

Between two accepted moves the state does not change, and a rejected
proposal is uphill, so it reads exactly 3 values: while proposals are
rejected, the next k sit at stream indices pos + 3i and pos + 3i + 1.
After an accept, _SCALAR_RUN are priced alone by FlipState.arc_delta,
then _BATCH at a time by FlipState.pair_terms, which hands out each
drawn pair as its current arc with the terms of its price.  One loop
decides every proposal, finishing its price (profiles.flip_delta) only
when it reaches it and taking every float decision (the penalized
objective, delta <= 0, the exponential against the uniform, the
cooling step) once per proposal and in order, so every run is
bit-identical to pricing each proposal alone.  Proposals priced after
an accepted one are dropped: the stream resumes after its last draw, 2
values on if it was downhill, 3 if uphill.  The warmup makes no move,
reads 2 values per proposal and is priced _BATCH at a time.  The best
state is copied only as the run leaves it: before the first accept
that does not improve on it, and at the end if the run ends there.

The default penalty of 500 keeps the equilibrium drift |c3 - gamma|
near sqrt(step)/(2*penalty), well under the 0.003 target at n = 64;
small penalties let the chain buy quadratic penalty for linear c4 gain
and collapse toward the transitive tournament.

boundary_scan compares annealed minima against the conjectured lower
envelope and flags any point that lands more than a margin below it,
beyond what Lemma 1's own floor gives up at order n.
Its (gamma, seed) jobs are independent anneals, so it runs them in
forked worker processes, one per usable CPU up to the number of jobs,
and in this process when that is one or fork is not available.  Each
anneal is deterministic in its arguments and the points are sorted by
(gamma, seed), so the scan's output does not depend on where it ran.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from statistics import median
from typing import Optional, Sequence

import numpy as np

from . import rng
from .bounds import conjectured_min_c4, lb_flag, lb_flag_n
from .core import (BlowupSpec, InternalInvariantError, Tournament,
                   TournamentError, blowup, random_tournament, transitive)
from .profiles import (_GRAM_BUDGET, FlipState, Profile3Counts,
                       Profile4Counts, flip_delta, profile3, profile4)

DEFAULT_PENALTY = 500.0
DISCOVERY_MARGIN = 0.01
DEFAULT_GAMMAS = (1.0 / 16.0, 0.25)

_SCALAR_RUN = 16        # rejections priced one by one after an accept
_BATCH = 64             # then proposals priced this many at a time
_WINDOW = 1024          # stream values fetched from rng.values at a time

# traced peak 19.4, 18.9 and 18.4 n^2 bytes at n = 1500, 2000 and 3000:
# A and H in float64, two bool snapshots of A and about 3 MB of Gram tiles
_ANNEAL_BYTES_PER_N2 = 20
_ANNEAL_MAX_N = math.isqrt(_GRAM_BUDGET // _ANNEAL_BYTES_PER_N2)   # 10362


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
        for name in ("moves", "warmup", "audit_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


class _Window:
    """The annealer's stream, read by absolute index through a block of
    rng.values from stream index `base`: the values as uniforms, and at
    each index j the proposal that draws j and j + 1, u = below(n) and v
    among the other n - 1 vertices, as int64 arrays `u` and `v`."""

    def __init__(self, seed: int, n: int):
        self.seed, self.n = seed, n
        self.base, self.uniform = 0, []

    def at(self, index: int, count: int) -> int:
        """Offset of stream index `index` in the block, refetched from
        `index` unless indices index .. index + count - 1 are all there."""
        off = index - self.base
        if off < 0 or off + count > len(self.uniform):
            self.base, off, n = index, 0, self.n
            vals = rng.values(self.seed, index, max(count, _WINDOW) + 1)
            self.u = rng.below(vals[:-1], n)
            self.v = rng.below(vals[1:], n - 1)
            self.v += self.v >= self.u
            self.uniform = (vals[:-1] / 2.0**64).tolist()
        return off


def anneal(n: int, gamma: float, seed: int,
           penalty: float = DEFAULT_PENALTY,
           schedule: Optional[AnnealSchedule] = None) -> AnnealResult:
    """Minimize c4 + penalty*(c3 - gamma)^2 over n-vertex tournaments by
    simulated annealing.  Deterministic in (n, gamma, seed, penalty,
    schedule).  Returns the best state seen, re-profiled exactly; its c4
    below the proved floor bounds.lb_flag_n is a miscount, raised."""
    if n < 8:
        raise ValueError("annealing needs n >= 8")
    if not 0.0 <= gamma <= 0.25 + 1e-12:
        raise ValueError(f"gamma must be in [0, 1/4], got {gamma}")
    if not (math.isfinite(penalty) and penalty >= 0):
        raise ValueError(f"penalty must be finite and >= 0, got {penalty}")
    if n > _ANNEAL_MAX_N:
        raise ValueError(
            f"annealing at n={n} needs about {_ANNEAL_BYTES_PER_N2 * n * n} "
            f"bytes ({_ANNEAL_BYTES_PER_N2} n^2), more than the 2 GiB limit "
            f"(n <= {_ANNEAL_MAX_N})")
    schedule = schedule or AnnealSchedule()

    state = FlipState(_warm_start(n, gamma, seed))
    penalized = _penalizer(n, gamma, penalty)
    initial = cur = penalized(state.c3_count, state.c4_count)
    window = _Window(rng.derive(seed, 0x5EED), n)

    # Warmup: price random proposals, without making them, to set T0 so
    # the median uphill move starts at acceptance probability 1/2.  Each
    # reads two values and none is made, so they share one state.
    uphill = []
    c3, c4 = state.c3_count, state.c4_count
    for start in range(0, schedule.warmup, _BATCH):
        k = min(_BATCH, schedule.warmup - start)
        off = window.at(2 * start, 2 * k)
        _, _, d_src, d_dst, ks = state.pair_terms(
            window.u[off:off + 2 * k:2], window.v[off:off + 2 * k:2])
        for dc3, dc4 in map(flip_delta, d_src, d_dst, ks):
            delta = penalized(c3 + dc3, c4 + dc4) - cur
            if delta > 0:
                uphill.append(delta)
    t0 = max(median(uphill) / math.log(2.0) if uphill else 1e-6, 1e-12)

    factor = schedule.cool ** (1.0 / schedule.moves)
    temp = t0
    # the best state is copied to best_t only as the run leaves it:
    # before the first accept that is no improvement, and at the end
    best, at_best = cur, True
    accepted = 0
    pos = 2 * schedule.warmup       # stream index of the next proposal
    done = run = 0                  # proposals made; rejected since accept
    a = state.a
    while done < schedule.moves:
        # A rejected proposal reads 3 values, so while all are rejected
        # the next ones sit at pos + 3i and price against one state.
        if run < _SCALAR_RUN:
            off = window.at(pos, 3)
            src, dst = window.u.item(off), window.v.item(off)
            if not a.item(src, dst):
                src, dst = dst, src
            srcs, dsts, prices = (src,), (dst,), (state.arc_delta(src, dst),)
        else:
            k = min(_BATCH, schedule.moves - done)
            off = window.at(pos, 3 * k)
            srcs, dsts, d_src, d_dst, ks = state.pair_terms(
                window.u[off:off + 3 * k:3], window.v[off:off + 3 * k:3])
            prices = map(flip_delta, d_src, d_dst, ks)
        uniform = window.uniform
        c3, c4 = state.c3_count, state.c4_count
        for i, (dc3, dc4) in enumerate(prices):
            new = penalized(c3 + dc3, c4 + dc4)
            delta = new - cur
            accept = delta <= 0.0 or (uniform[off + 3 * i + 2]
                                      < math.exp(-delta / temp))
            temp *= factor
            if accept:
                break
        done += i + 1
        pos += 3 * i + (2 if delta <= 0.0 else 3)
        if not accept:
            run += i + 1
            continue
        # proposals priced after the accepted one are dropped, and the
        # stream resumes after its last draw
        run = 0
        if new < best - 1e-15:
            best, at_best = new, True
        elif at_best:
            best_t, at_best = state.tournament(), False
        state.commit(srcs[i], dsts[i], dc3, dc4)
        cur = new
        accepted += 1
        if accepted % schedule.audit_every == 0:
            state.audit()
    state.audit()
    if at_best:
        best_t = state.tournament()

    p3, p4 = profile3(best_t), profile4(best_t)
    best_exact = penalized(p3.c3_count, p4.c4_count)
    if abs(best_exact - best) > 1e-9:
        raise InternalInvariantError(
            f"best-state bookkeeping diverged from recount at n={n}: "
            f"tracked objective {best!r} vs recount {best_exact!r}")
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
    flagged DISCOVERY when c4 < conjectured - slack - DISCOVERY_MARGIN,
    where slack = max(0, lb_flag(min(c3, 1/4)) - lb_flag_n(n, c3_count))
    is what Lemma 1 itself loses at order n (0.075 at n = 8 and
    gamma = 1/4); results are sorted by (gamma, seed)."""
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
    jobs = [(n, g, s, penalty, schedule) for g in gammas for s in seed_list]
    points = []
    for res in _run_jobs(jobs):
        conj = _conjectured_at(res.c3)
        slack = max(0.0, lb_flag(min(res.c3, 0.25))
                    - lb_flag_n(n, res.profile3.c3_count))
        points.append(ScanPoint(
            gamma=res.gamma, n=n, seed=res.seed, c3=res.c3, c4=res.c4,
            objective=res.objective, conjectured_c4=conj,
            discovery=res.c4 < conj - slack - DISCOVERY_MARGIN, result=res))
    return sorted(points, key=lambda p: (p.gamma, p.seed))


def _scan_job(job: tuple) -> AnnealResult:
    """One scan job, (n, gamma, seed, penalty, schedule).  The pool maps
    this function, not anneal: it finds anneal by name when it runs, so
    a rebound search.anneal is the one called."""
    n, gamma, seed, penalty, schedule = job
    return anneal(n, gamma, seed=seed, penalty=penalty, schedule=schedule)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # not on every platform
        return os.cpu_count() or 1


def _run_jobs(jobs: list) -> list:
    """The results of _scan_job over `jobs`, in order: in
    min(len(jobs), usable CPUs) forked worker processes, or in this
    process when that is one or fork is not available.

    multiprocessing and concurrent.futures are imported here, not at
    the top, so that commands which never scan do not load them."""
    workers = min(len(jobs), _usable_cpus())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(workers,
                                       multiprocessing.get_context("fork"))
            try:
                return list(pool.map(_scan_job, jobs))
            finally:
                # after a failed job, the jobs still queued are cancelled
                pool.shutdown(cancel_futures=True)
    return [_scan_job(job) for job in jobs]
