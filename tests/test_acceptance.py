"""Acceptance gate: ten numbered end-to-end criteria, one PASS/FAIL line
each (run with -s to see the lines; any FAIL also fails the test).

Each criterion states its own tolerance and, where relevant, a wall-clock
budget.  Nothing here is redundant with the unit tests by design: these
are the checks the package must keep passing as a whole.
"""
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, isqrt

import numpy as np
import pytest

from tourprof import (
    AnnealSchedule,
    BlowupSpec,
    MixSpec,
    anneal,
    blowup,
    boundary_scan,
    conjectured_min_c4,
    cyclic,
    edge_stats,
    enumerate_flags,
    enumerate_types,
    flip_perturb,
    interval,
    lb_flag,
    lemma1_certificate,
    min_fourth_power_sum,
    mix,
    mix_profile_prediction,
    moment_consistency_check,
    product_table,
    profile3,
    profile4,
    random_tournament,
    replace_step,
    sample_profile4,
    transitive,
    verify_certificate,
)

from conftest import brute_profile3, brute_profile4


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.1f}s (budget {budget}s)"
    print(f"PASS criterion {num:2d}: {desc} ({dt:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    """Labelled tournaments spanning every construction, n from 5 to 500."""
    entries = [("transitive:%d" % n, transitive(n)) for n in (6, 9, 60, 128, 350, 500)]
    entries += [("cyclic:%d" % n, cyclic(n)) for n in (5, 9, 61, 201, 499)]
    entries += [("interval:%d,%d" % (n, s), interval(n, s))
                for n, s in ((50, 25), (100, 67), (300, 251), (500, 400))]
    entries += [("random:%d,%d" % (n, s), random_tournament(n, s))
                for n, s in ((8, 1), (12, 3), (40, 2), (128, 3), (300, 4), (500, 5))]
    entries.append(("blowup:T2", blowup(BlowupSpec(transitive(2), (0.5, 0.5)), 400, 7)))
    entries.append(("blowup:C3", blowup(BlowupSpec(cyclic(3), (1 / 3, 1 / 3, 1 / 3)), 300, 3)))
    entries.append(("flip:cyclic201", flip_perturb(cyclic(201), 0.3, 1)))
    entries.append(("mix:random60s", mix(random_tournament(60, 1),
                                         random_tournament(60, 2),
                                         MixSpec(0.5), 4)))
    return entries


def _matches_oracles(t):
    p3, p4 = profile3(t), profile4(t)
    assert (p3.t3_count, p3.c3_count) == brute_profile3(t)
    assert {"T4": p4.t4_count, "C4": p4.c4_count,
            "W": p4.w_count, "L": p4.l_count} == brute_profile4(t)


def test_criterion_01_oracle_equivalence():
    with criterion(1, "profile3/profile4 match exhaustive enumeration", budget=10):
        for seed in range(200):
            _matches_oracles(random_tournament(5 + seed % 5, seed))
        named = [transitive(n) for n in range(4, 10)]
        named += [cyclic(n) for n in range(3, 10, 2)]
        named += [interval(n, s) for n in range(4, 10)
                  for s in range((n + 1) // 2, n + 1)]
        for t in named:
            _matches_oracles(t)


def test_criterion_02_exact_identities(corpus):
    with criterion(2, "eight exact integer identities on the full corpus"):
        for label, t in corpus:
            n = t.n
            p3, p4 = profile3(t), profile4(t)
            t3, c3 = p3.t3_count, p3.c3_count
            t4, c4, w, l = p4.t4_count, p4.c4_count, p4.w_count, p4.l_count
            ctx = f"{label}: "
            assert (Fraction(t4 - c4, comb(n, 4))
                    == 1 - 4 * Fraction(c3, comb(n, 3))), ctx + "t4-c4"
            assert t4 + c4 + w + l == comb(n, 4), ctx + "4-count sum"
            assert 2 * c4 + w + l == (n - 3) * c3, ctx + "2C4+W+L"
            st = edge_stats(t)
            cyc = st.cyc.astype(np.int64)
            thru = st.thru.astype(np.int64)
            assert int(cyc.sum()) == 3 * c3, ctx + "sum cyc"
            assert int(thru.sum()) == t3, ctx + "sum thru"
            assert int((cyc * (cyc - 1) // 2).sum()) == c4, ctx + "sum C(cyc,2)"
            assert int((thru * (thru - 1) // 2).sum()) == t4, ctx + "sum C(thru,2)"
            assert int((cyc * thru).sum()) == 2 * c4, ctx + "sum cyc*thru"


def test_criterion_03_constructions():
    with criterion(3, "interval kills W/L; cyclic triangle count and 4-profile"):
        for n in range(3, 101):
            for s in range((n + 1) // 2, n + 1):
                p = profile4(interval(n, s))
                assert p.w_count == 0 and p.l_count == 0, (n, s)
        for n in range(3, 202, 2):
            assert profile3(cyclic(n)).c3_count == (n**3 - n) // 24, n
        p = profile4(cyclic(601))
        assert abs(p.t4 - 0.5) <= 0.01
        assert abs(p.c4 - 0.5) <= 0.01


def test_criterion_04_blowup_and_random_targets():
    with criterion(4, "blow-up and random 4-profile targets at n=600"):
        t0 = time.perf_counter()
        b = blowup(BlowupSpec(transitive(2), (0.5, 0.5)), 600, 7)
        assert abs(profile3(b).c3 - 1 / 16) <= 0.005
        assert abs(profile4(b).c4 - 3 / 64) <= 0.005
        assert time.perf_counter() - t0 < 30
        t0 = time.perf_counter()
        r = random_tournament(600, 19)
        assert abs(profile3(r).c3 - 1 / 4) <= 0.005
        assert abs(profile4(r).t4 - 3 / 8) <= 0.01
        assert time.perf_counter() - t0 < 30


def test_criterion_05_lower_bound_never_violated(corpus):
    with criterion(5, "c4 >= 18c3^2/(1+8c3) - 5/n on every corpus tournament"):
        checked = 0
        for label, t in corpus:
            if t.n < 100:
                continue
            c3 = profile3(t).c3
            c4 = profile4(t).c4
            assert c4 >= 18 * c3**2 / (1 + 8 * c3) - 5 / t.n, label
            checked += 1
        assert checked >= 10


def test_criterion_06_optimizer_curve():
    with criterion(6, "optimizer anchors, residuals, dominance over lb_flag"):
        assert abs(conjectured_min_c4(1 / 16).c4 - 3 / 64) <= 1e-10
        assert abs(conjectured_min_c4(1 / 4).c4 - 3 / 8) <= 1e-10
        grid = np.linspace(1e-4, 0.25, 1000)
        for c3 in grid:
            c3 = float(c3)
            opt = conjectured_min_c4(c3)
            w = opt.weights
            assert abs(sum(w) - 1.0) < 1e-10, c3
            assert abs(sum(x**3 for x in w) - 4.0 * c3) < 1e-10, c3
            same = min_fourth_power_sum(4.0 * c3, opt.m)
            assert same is not None and abs(same.c4 - opt.c4) < 1e-12, c3
            diff = opt.c4 - lb_flag(c3)
            assert diff >= -1e-9, c3
            near = min(abs(c3 - 1 / 16), abs(c3 - 1 / 4)) < 1e-3
            if not near:
                assert diff > 1e-9, c3
        for x in (1 / 16, 1 / 4):
            assert abs(conjectured_min_c4(x).c4 - lb_flag(x)) <= 1e-9


def test_criterion_07_replacement_steps():
    with criterion(7, "replacement conserves sum/cube-sum, cuts 4th powers"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            x = float(rng.uniform(0.05, 1.0))
            y = float(rng.uniform(0.0, 1.0)) * x
            if not x > y > 0:
                continue
            r = replace_step(x, y)
            pat = r.pattern
            scale = max(1.0, x + 2 * y)
            assert abs(sum(pat) - (x + 2 * y)) <= 1e-9 * scale
            assert abs(sum(v**3 for v in pat) - (x**3 + 2 * y**3)) <= 1e-9 * scale
            assert sum(v**4 for v in pat) < x**4 + 2 * y**4
            assert r.s >= r.t >= 0.0
        thr = (math.sqrt(5.0) - 1.0) / 4.0
        for x in (0.3, 0.7, 1.0):
            assert abs(replace_step(x, thr * x).t) <= 1e-9


def test_criterion_08_mixing_prediction():
    with criterion(8, "mixing polynomial: exact 3/8 check and Monte Carlo"):
        for alpha in (Fraction(1, 5), Fraction(1, 2), Fraction(7, 9)):
            c3m, c4m = mix_profile_prediction(
                Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(3, 8),
                alpha, Fraction(1, 2))
            assert c3m == Fraction(1, 4) and c4m == Fraction(3, 8)
        # mixture tuned to c3 ~ 1/16: both blocks sit near c3 = 1/16 and
        # the cross probability keeps 3ab p(1-p) = 3/64
        b1 = blowup(BlowupSpec(transitive(2), (0.5, 0.5)), 300, 7)
        b2 = interval(300, 251)
        p = (1 - math.sqrt(0.75)) / 2
        m = mix(b1, b2, MixSpec(p), 11)
        assert abs(profile3(m).c3 - 1 / 16) <= 0.005
        _, pred_c4 = mix_profile_prediction(
            profile3(b1).c3, profile4(b1).c4,
            profile3(b2).c3, profile4(b2).c4, 0.5, p)
        sp = sample_profile4(m, 10_000, seed=5)
        assert abs(sp.estimates["C4"] - pred_c4) <= 3 * sp.stderr["C4"]


def test_criterion_09_flag_machinery(corpus):
    with criterion(9, "flag counts, table normalization, moments, certificate",
                   budget=120):
        assert [len(enumerate_types(k)) for k in range(1, 7)] == [1, 1, 2, 4, 12, 56]
        assert [len(enumerate_flags(k)) for k in (2, 3, 4)] == [1, 4, 16]
        for k in (3, 4):
            tab = product_table(k)
            for code, matrix in tab.tables.items():
                total = sum(sum(row) for row in matrix)
                assert total == Fraction(1), (k, code)
        for label, t in corpus:
            if not 6 <= t.n <= 12:
                continue
            assert moment_consistency_check(t).all_ok, label
        for gamma in (0.05, 1 / 16, 0.1, 0.25):
            rep = verify_certificate(lemma1_certificate(gamma))
            assert rep.valid, gamma
            assert abs(rep.lam - 18 * gamma**2 / (1 + 8 * gamma)) <= 1e-6


def test_criterion_10_annealing_search():
    with criterion(10, "annealer hits the gamma=1/16 target; no false flags",
                   budget=4):
        res = anneal(64, 1 / 16, seed=0)
        assert abs(res.c3 - 1 / 16) <= 0.003
        assert res.c4 <= 0.065
        # anneal() recounts from scratch at every audit point and once at
        # the end, raising InternalInvariantError on any drift, so a
        # normal return certifies the incremental counts
        points = boundary_scan(n=64, seeds=1)
        assert points and not any(pt.discovery for pt in points)
