import hashlib
import multiprocessing
import os
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from tourprof import cli, rng, search
from tourprof.bounds import lb_flag, lb_flag_n
from tourprof.core import (BlowupSpec, InternalInvariantError, TournamentError,
                           blowup, random_tournament, to_trn_text, transitive)
from tourprof.profiles import FlipState, profile4
from tourprof.search import (DEFAULT_GAMMAS, DISCOVERY_MARGIN, AnnealSchedule,
                             anneal, boundary_scan, objective)

from conftest import scalar_anneal

RESULT_FIELDS = ("tournament", "profile3", "profile4", "accepted",
                 "temperature0", "objective", "initial_objective",
                 "proposed")


def test_objective_examples():
    assert objective(transitive(20), gamma=0.0, penalty=7.0) == 0.0
    t = random_tournament(600, seed=1)
    assert objective(t, gamma=0.25, penalty=10.0) == pytest.approx(3 / 8, abs=0.02)
    b = blowup(BlowupSpec(transitive(2), (0.5, 0.5)), 600, seed=2)
    assert objective(b, gamma=1 / 16, penalty=10.0) == pytest.approx(3 / 64, abs=0.01)


def test_objective_accepts_flip_state():
    t = random_tournament(30, seed=4)
    assert objective(FlipState(t), 0.1, 5.0) == objective(t, 0.1, 5.0)
    with pytest.raises(TypeError):
        objective("nope", 0.1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_objective_needs_four_vertices(n):
    with pytest.raises(TournamentError,
                       match=f"objective needs n >= 4 \\(got n={n}\\)"):
        objective(transitive(n), 0.1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(moves=0)
    with pytest.raises(ValueError):
        AnnealSchedule(cool=1.5)
    with pytest.raises(ValueError):
        AnnealSchedule(audit_every=0)


@pytest.mark.parametrize("name,value", [
    ("moves", 1000.0), ("moves", True), ("moves", "1000"),
    ("warmup", 10.5), ("warmup", False),
    ("audit_every", True), ("audit_every", 2.0)])
def test_schedule_counts_must_be_integers(name, value):
    # anneal slices, ranges and takes remainders by these counts, so a
    # float (or a bool, an int subclass) is refused when the schedule
    # is made, not deep inside anneal
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer, got "
                             rf"{re.escape(repr(value))}$"):
        AnnealSchedule(**{name: value})


def test_schedule_accepts_numpy_integers():
    sched = AnnealSchedule(moves=np.int64(300), warmup=np.int32(20),
                           audit_every=np.int64(50))
    want = AnnealSchedule(moves=300, warmup=20, audit_every=50)
    assert anneal(16, 0.1, 3, schedule=sched) == anneal(16, 0.1, 3,
                                                         schedule=want)


def test_anneal_determinism_and_improvement():
    sched = AnnealSchedule(moves=4000, warmup=200)
    a = anneal(16, 1 / 16, seed=3, schedule=sched)
    b = anneal(16, 1 / 16, seed=3, schedule=sched)
    assert a.tournament == b.tournament
    assert a.objective == b.objective
    assert a.objective <= a.initial_objective + 1e-12
    assert a.accepted <= a.proposed == 4000
    assert a.temperature0 > 0


def test_anneal_golden_output():
    # Frozen seed for seed: the draw order and the objective fix the run.
    res = anneal(16, 1 / 16, seed=3,
                 schedule=AnnealSchedule(moves=4000, warmup=200))
    text = to_trn_text(res.tournament)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "7a15fa362572a5e0cbd4cc1ad1f84a8fa2bea5b1864bd7eaca8c9239377e2caf"
    assert (res.profile3.c3_count, res.profile4.c4_count, res.accepted) == \
        (34, 65, 352)


def test_anneal_golden_output_n64():
    # 6 300 proposals and about 18 000 stream draws at n = 64.
    res = anneal(64, 0.1, seed=7,
                 schedule=AnnealSchedule(moves=6000, warmup=300))
    text = to_trn_text(res.tournament)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == \
        "63eec78893cca74a76650297b022d4e6b793b0c7241f4cc8f6e86a4b449bcc11"
    assert (res.profile3.c3_count, res.profile4.c4_count, res.accepted) == \
        (4106, 63457, 1014)
    assert repr(res.temperature0) == "0.0003172497831098126"
    assert repr(res.objective) == "0.10092395055838535"
    assert repr(res.initial_objective) == "0.10780635386365418"


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("gamma", [1 / 16, 0.1, 1 / 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_anneal_equals_the_scalar_oracle(n, gamma, seed):
    # batched pricing of rejection runs changes no decision
    sched = AnnealSchedule(moves=2500, warmup=150, audit_every=400)
    got = anneal(n, gamma, seed, schedule=sched)
    want = scalar_anneal(n, gamma, seed, schedule=sched)
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("n,gamma,seed", [(64, 1 / 16, 4), (16, 0.1, 5)])
def test_anneal_long_cold_phase_equals_the_scalar_oracle(monkeypatch, n,
                                                         gamma, seed):
    # cooling to 1e-12 of T0 leaves long rejection runs, priced _BATCH at
    # a time after the scalar run until one holds an accept; the warmup
    # (2 draws a proposal) spans three batches
    sizes = []
    real = FlipState.pair_terms

    def pair_terms(self, u, v):
        sizes.append(len(u))
        return real(self, u, v)
    monkeypatch.setattr(FlipState, "pair_terms", pair_terms)
    sched = AnnealSchedule(moves=12_000, warmup=2 * search._BATCH + 7,
                           cool=1e-12, audit_every=97)
    got = anneal(n, gamma, seed, schedule=sched)
    want = scalar_anneal(n, gamma, seed, schedule=sched)
    for name in RESULT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert sizes[:3] == [search._BATCH, search._BATCH, 7]
    assert len(sizes) > 13 and set(sizes[3:-1]) == {search._BATCH}
    assert sizes[-1] <= search._BATCH


@pytest.mark.parametrize("batch", [2, 5, 64])
def test_anneal_equals_the_scalar_oracle_at_any_batch_size(monkeypatch,
                                                           batch):
    # the batch size changes how proposals are priced, not one decision:
    # the warmup ends in a short batch, and cooling to 1e-9 of T0 leaves
    # rejection runs that end inside a batch and at its edge
    monkeypatch.setattr(search, "_BATCH", batch)
    sched = AnnealSchedule(moves=6000, warmup=131, cool=1e-9, audit_every=97)
    for n, gamma, seed in ((64, 1 / 16, 4), (16, 0.25, 5)):
        got = anneal(n, gamma, seed, schedule=sched)
        want = scalar_anneal(n, gamma, seed, schedule=sched)
        for name in RESULT_FIELDS:
            assert getattr(got, name) == getattr(want, name), (n, name)


def test_anneal_copies_the_best_state_only_as_it_leaves_it(monkeypatch):
    # an improving accept copies nothing: the best state is copied before
    # the first accept that does not improve on it, and at the end if the
    # run ends there, so copies are the departures from the best, far
    # fewer than the improvements (audits' own snapshots not counted)
    n, gamma = 64, 0.25
    events, in_audit = [], []
    commit, tournament, audit = (FlipState.commit, FlipState.tournament,
                                 FlipState.audit)

    def counting_commit(self, src, dst, dc3, dc4):
        events.append((self.c3_count + dc3, self.c4_count + dc4))
        commit(self, src, dst, dc3, dc4)

    def counting_tournament(self):
        if not in_audit:
            events.append("copy")
        return tournament(self)

    def counting_audit(self):
        in_audit.append(self)
        try:
            audit(self)
        finally:
            in_audit.pop()
    monkeypatch.setattr(FlipState, "commit", counting_commit)
    monkeypatch.setattr(FlipState, "tournament", counting_tournament)
    monkeypatch.setattr(FlipState, "audit", counting_audit)
    res = anneal(n, gamma, 0, schedule=AnnealSchedule(moves=20_000))
    penalized = search._penalizer(n, gamma, search.DEFAULT_PENALTY)
    best, at_best = res.initial_objective, True
    improvements = departures = 0
    for i, event in enumerate(events):
        if event == "copy":
            continue
        cur = penalized(*event)
        if cur < best - 1e-15:
            best, at_best = cur, True
            improvements += 1
        elif at_best:
            assert events[i - 1] == "copy", i
            at_best = False
            departures += 1
    copies = events.count("copy")
    assert copies == departures + at_best
    assert events[-1] == "copy" or not at_best
    assert res.objective == best and res.accepted == len(events) - copies
    assert 0 < 2 * copies < improvements, (copies, improvements)


def _off_by_one(t):
    """A recount that disagrees with the tracked best by one 4-cycle."""
    p4 = profile4(t)
    return replace(p4, c4_count=p4.c4_count + 1, t4_count=p4.t4_count - 1)


def test_anneal_best_state_divergence_names_both_objectives(monkeypatch):
    monkeypatch.setattr(search, "profile4", _off_by_one)
    with pytest.raises(InternalInvariantError,
                       match=r"diverged from recount at n=16: tracked "
                             r"objective \S+ vs recount \S+$"):
        anneal(16, 1 / 16, seed=3,
               schedule=AnnealSchedule(moves=200, warmup=20))


def test_anneal_checks_the_exact_floor(monkeypatch):
    # at the default scan's gamma = 1/16, n = 64 the exact floor is
    # positive and the result is above it; a floor above the result is
    # an invariant failure
    from fractions import Fraction
    from math import comb
    res = anneal(64, 1 / 16, seed=0,
                 schedule=AnnealSchedule(moves=3000, warmup=100))
    floor = search.lb_flag_n(64, res.profile3.c3_count)
    assert 0 < floor <= Fraction(res.profile4.c4_count, comb(64, 4))
    monkeypatch.setattr(search, "lb_flag_n", lambda n, c3: Fraction(1))
    with pytest.raises(InternalInvariantError,
                       match=r"annealed c4=\S+ below the exact floor "
                             r"1\.000000 at n=16, c3=\S+$"):
        anneal(16, 1 / 16, seed=3,
               schedule=AnnealSchedule(moves=200, warmup=20))


def test_warm_start_at_tiny_gamma_builds_no_host_larger_than_n(monkeypatch):
    # gamma = 1e-9 asks for 15 811 parts; at n = 64 one must be empty, so
    # the start is the random fallback and no such host is built
    built = []
    monkeypatch.setattr(search, "transitive",
                        lambda m: built.append(m) or transitive(m))
    t = search._warm_start(64, 1e-9, 0)
    assert t == random_tournament(64, rng.derive(0, 0xA17))
    assert all(m <= 64 for m in built)


def test_anneal_validation():
    with pytest.raises(ValueError):
        anneal(6, 0.1, seed=0)
    with pytest.raises(ValueError):
        anneal(16, 0.5, seed=0)
    for penalty in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            anneal(16, 0.1, seed=0, penalty=penalty)


class _Reached(Exception):
    pass


def _reached(n, gamma, seed):
    raise _Reached(n)


def test_anneal_refuses_orders_past_its_memory_bound(monkeypatch, capsys):
    # the bound is checked before the warm start, which is stubbed here:
    # the largest order reaches it, the next is refused with nothing n x n
    # allocated, and the command line reports it as a usage error
    monkeypatch.setattr(search, "_warm_start", _reached)
    top = search._ANNEAL_MAX_N
    assert top == 10362 and 20 * top**2 <= 2**31 < 20 * (top + 1)**2
    with pytest.raises(_Reached):
        anneal(top, 0.25, seed=0)
    msg = ("annealing at n=10363 needs about 2147835380 bytes (20 n^2), "
           "more than the 2 GiB limit (n <= 10362)")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            anneal(top + 1, 0.25, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (top + 1) ** 2
    code = cli.main(["search", "--n", str(top + 1), "--moves", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"tourprof: {msg}\n"


def test_anneal_peak_is_within_its_memory_bound():
    # the bound's constant is a traced peak: a short anneal at n = 1500,
    # audits included, stays under it
    n = 1500
    tracemalloc.start()
    try:
        anneal(n, 1 / 16, seed=0,
               schedule=AnnealSchedule(moves=300, warmup=30, audit_every=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= search._ANNEAL_BYTES_PER_N2 * n * n


def test_anneal_seed_changes_outcome():
    sched = AnnealSchedule(moves=2000, warmup=100)
    a = anneal(16, 0.1, seed=0, schedule=sched)
    b = anneal(16, 0.1, seed=1, schedule=sched)
    assert a.tournament != b.tournament


def test_boundary_scan_rows_sorted_and_flag_logic(monkeypatch):
    # two workers even on one CPU; each point equals its serial anneal
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    sched = AnnealSchedule(moves=3000, warmup=150)
    pts = boundary_scan(gammas=(0.25, 1 / 16), n=16, seeds=(1, 0),
                        schedule=sched)
    assert multiprocessing.active_children() == []
    assert [(p.gamma, p.seed) for p in pts] == \
        sorted((g, s) for g in (1 / 16, 0.25) for s in (0, 1))
    for p in pts:
        assert p.conjectured_c4 > 0
        slack = max(0.0, lb_flag(min(p.c3, 0.25))
                    - lb_flag_n(16, p.result.profile3.c3_count))
        assert p.discovery == (p.c4 < p.conjectured_c4 - slack - 0.01)
        ref = anneal(16, p.gamma, seed=p.seed, schedule=sched)
        for f in fields(ref):
            assert getattr(p.result, f.name) == getattr(ref, f.name), f.name
        assert not p.result.tournament.dense().flags.writeable
    # at n = 8 and gamma = 1/4 the anneal reaches Lemma 1's exact floor
    # lb_flag_n(8, 14) = 3/10, 0.075 below the conjectured 3/8; a flag
    # at c4 < conjectured - DISCOVERY_MARGIN alone reported it
    pts = boundary_scan(n=8, seeds=1)
    top = pts[-1]
    assert (top.gamma, top.c4, top.conjectured_c4) == (0.25, 0.3, 0.375)
    assert lb_flag_n(8, top.result.profile3.c3_count) == Fraction(3, 10)
    assert top.c4 < top.conjectured_c4 - DISCOVERY_MARGIN
    assert not any(p.discovery for p in pts)


def test_boundary_scan_empty_and_invalid():
    assert boundary_scan(gammas=(), n=16) == []
    with pytest.raises(ValueError):
        boundary_scan(gammas=(0.3,), n=16)
    with pytest.raises(ValueError):
        boundary_scan(gammas=(0.1,), n=16, seeds=0)


def test_default_gammas_are_the_kink_and_endpoint():
    assert DEFAULT_GAMMAS == (1 / 16, 0.25)


_UNIFORMS = (rng.values(7, 0, 999) / 2.0**64).tolist()


@pytest.mark.parametrize("xs", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0],
                                [0.1, 0.7, 0.2, 0.9], [2.0, 2.0, 1.0, 2.0],
                                [0.3, 0.3], [1e-300, 1e300, 7.0, 1e-300],
                                _UNIFORMS, _UNIFORMS[:998]])
def test_median_equals_numpy(xs):
    assert search._median(xs) == float(np.median(xs))


def _pid(n, gamma, seed, penalty, schedule):
    return os.getpid()


@pytest.mark.parametrize("cpus,fork,in_workers",
                         [(2, True, True), (1, True, False),
                          (2, False, False)])
def test_scan_jobs_run_in_forked_workers_only_when_they_can(
        monkeypatch, cpus, fork, in_workers):
    # the job function finds anneal by name, so the rebound one runs
    monkeypatch.setattr(search, "anneal", _pid)
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    if not fork:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
    pids = search._run_jobs([(16, 0.1, s, 1.0, None) for s in range(3)])
    assert len(pids) == 3
    assert (os.getpid() not in pids) == in_workers
    assert search._run_jobs([(16, 0.1, 0, 1.0, None)]) == [os.getpid()]


def test_worker_invariant_error_reaches_the_caller(monkeypatch, capsys):
    # fork copies the rebound profile4 into the workers
    monkeypatch.setattr(search, "profile4", _off_by_one)
    monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
    sched = AnnealSchedule(moves=200, warmup=20)
    with pytest.raises(InternalInvariantError,
                       match=r"diverged from recount at n=16: tracked "
                             r"objective \S+ vs recount \S+$"):
        boundary_scan(gammas=(1 / 16, 0.25), n=16, schedule=sched)
    assert multiprocessing.active_children() == []
    code = cli.main(["search", "--n", "16", "--moves", "200"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert "diverged from recount at n=16" in captured.err
