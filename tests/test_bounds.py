from fractions import Fraction
from math import isclose, sqrt

import numpy as np
import pytest

from tourprof.bounds import (REPLACE_THRESHOLD, conjectured_min_c4,
                             curve_dataset, lb_flag, lb_variance,
                             min_fourth_power_sum, mix_profile_prediction,
                             predict_blowup_profile, replace_step,
                             ub_c4_from_c3, ub_c4_from_t4, ub_t4_from_t3)
from tourprof.core import BlowupSpec, cyclic, random_tournament, transitive
from tourprof import rng

from conftest import brute_blowup_profile


def test_lower_bound_anchor_values():
    assert isclose(lb_variance(0.25), 0.375, rel_tol=0, abs_tol=1e-15)
    assert isclose(lb_flag(1 / 16), 3 / 64, rel_tol=0, abs_tol=1e-15)
    assert isclose(lb_flag(0.25), 0.375, rel_tol=0, abs_tol=1e-15)
    assert isclose(lb_flag(0.1), 0.1, rel_tol=0, abs_tol=1e-15)


def test_variance_below_flag_bound():
    xs = np.linspace(1e-6, 0.25, 500)
    for x in xs:
        assert lb_variance(x) <= lb_flag(x) + 1e-15
    assert abs(lb_variance(0.25) - lb_flag(0.25)) < 1e-15
    assert lb_variance(0.1) < lb_flag(0.1)


def test_upper_bounds():
    assert ub_c4_from_c3(0.2) == 0.4
    assert ub_c4_from_t4(0.5) == 0.5
    assert ub_c4_from_t4(0.9) == pytest.approx(0.1)
    assert ub_t4_from_t3(1.0) == 1.0
    with pytest.raises(ValueError):
        ub_t4_from_t3(0.5)     # t3 >= 3/4 always
    with pytest.raises(ValueError):
        lb_flag(0.3)


def test_conjectured_min_anchors():
    assert abs(conjectured_min_c4(1 / 16).c4 - 3 / 64) < 1e-10
    assert abs(conjectured_min_c4(1 / 4).c4 - 3 / 8) < 1e-10
    for m in (1, 2, 3, 4, 5):
        opt = conjectured_min_c4(1 / (4 * m * m))
        assert opt.m == m
        assert abs(opt.c4 - 3 / (8 * m ** 3)) < 1e-10


def test_conjectured_min_residuals_on_grid():
    grid = np.linspace(1e-4, 0.25, 1000)
    prev = 0.0
    for c3 in grid:
        opt = conjectured_min_c4(float(c3))
        w = opt.weights
        assert abs(sum(w) - 1.0) < 1e-10
        assert abs(sum(v ** 3 for v in w) - 4 * c3) < 1e-10
        assert opt.a >= opt.b > 0
        assert opt.c4 >= prev - 1e-12
        prev = opt.c4


def test_conjectured_dominates_flag_bound():
    grid = list(np.linspace(1e-4, 0.25, 1000)) + [1 / 16, 1 / 4]
    for c3 in grid:
        gap = conjectured_min_c4(float(c3)).c4 - lb_flag(float(c3))
        assert gap >= -1e-9
        if abs(c3 - 1 / 16) > 1e-6 and abs(c3 - 1 / 4) > 1e-6:
            assert gap > 1e-9
        else:
            assert abs(gap) <= 1e-9


def test_conjectured_specific_point():
    opt = conjectured_min_c4(0.02)
    assert opt.m == 4
    assert 0.297 < opt.a < 0.298


def test_min_fourth_power_sum_bracket():
    # feasibility bracket for m parts: 1/m^2 <= C < 1/(m-1)^2
    opt = min_fourth_power_sum(0.25, 2)
    assert opt.a == pytest.approx(0.5) and opt.b == pytest.approx(0.5)
    assert sum(w ** 4 for w in opt.weights) == pytest.approx(1 / 8)
    one = min_fourth_power_sum(1.0, 1)   # the C -> 1 limit point
    assert one.m == 1 and sum(w ** 4 for w in one.weights) == pytest.approx(1.0)
    assert min_fourth_power_sum(0.25, 5) is None         # C >= 1/16
    assert min_fourth_power_sum(0.2, 1) is None          # 1 > C
    assert min_fourth_power_sum(0.2, 2) is None          # C < 1/4
    assert min_fourth_power_sum(0.5, 3) is None
    with pytest.raises(ValueError):
        min_fourth_power_sum(0.0, 2)


def test_replace_step_examples():
    r = replace_step(1.0, 0.2)
    assert r.branch == 1
    assert r.s == pytest.approx(0.980306, abs=1e-6)
    assert r.t == pytest.approx(0.419694, abs=1e-6)
    new4 = sum(v ** 4 for v in r.pattern)
    assert new4 == pytest.approx(0.9545469, abs=1e-6)
    assert new4 < 1.0 ** 4 + 2 * 0.2 ** 4          # down from 1.0032

    r = replace_step(0.5, 0.25)
    assert r.branch == 2
    assert r.s == pytest.approx(0.424306, abs=1e-6)
    assert r.t == pytest.approx(0.151388, abs=1e-6)
    assert sum(v ** 4 for v in r.pattern) == pytest.approx(0.0653509, abs=1e-6)


def test_replace_step_threshold_gives_t_zero():
    x = 0.8
    y = REPLACE_THRESHOLD * x
    r = replace_step(x, y)
    assert r.branch == 2
    assert abs(r.t) <= 1e-9


def test_replace_step_random_invariants():
    stream = rng.Stream(31337)
    for _ in range(1000):
        x = 0.05 + 0.95 * stream.next_uniform()
        y = x * (0.02 + 0.96 * stream.next_uniform())
        if not x > y > 0:
            continue
        r = replace_step(x, y)
        old3 = x ** 3 + 2 * y ** 3
        old4 = x ** 4 + 2 * y ** 4
        pat = r.pattern
        assert r.s >= r.t >= 0
        assert abs(sum(pat) - (x + 2 * y)) <= 1e-9 * (x + 2 * y)
        assert abs(sum(v ** 3 for v in pat) - old3) <= 1e-9 * old3
        assert sum(v ** 4 for v in pat) < old4


def test_replace_step_domain():
    with pytest.raises(ValueError):
        replace_step(0.2, 0.2)
    with pytest.raises(ValueError):
        replace_step(0.2, 0.5)


def test_mix_prediction_random_random_is_three_eighths():
    half = Fraction(1, 2)
    c3r, c4r = Fraction(1, 4), Fraction(3, 8)
    for alpha in (Fraction(1, 3), half, Fraction(7, 10)):
        c3, c4 = mix_profile_prediction(c3r, c4r, c3r, c4r, alpha, half)
        assert c3 == Fraction(1, 4)
        assert c4 == Fraction(3, 8)


def test_mix_prediction_trivial_cross():
    # p = 0: all cross pairs point one way; two transitive blocks give a
    # transitive tournament
    c3, c4 = mix_profile_prediction(Fraction(0), Fraction(0), Fraction(0),
                                    Fraction(0), Fraction(1, 2), Fraction(0))
    assert c3 == 0 and c4 == 0


def test_predict_blowup_profile_exact_values():
    spec = BlowupSpec(transitive(2), (Fraction(1, 2), Fraction(1, 2)))
    c3, c4 = predict_blowup_profile(spec)
    assert c3 == pytest.approx(1 / 16, abs=1e-12)
    assert c4 == pytest.approx(3 / 64, abs=1e-12)
    spec = BlowupSpec(cyclic(3), (1 / 3, 1 / 3, 1 / 3))
    c3, c4 = predict_blowup_profile(spec)
    assert c3 == pytest.approx(1 / 4, abs=1e-12)


def _random_weights(stream, m):
    w = [0.05 + stream.next_uniform() for _ in range(m)]
    return tuple(x / sum(w) for x in w)


def test_predict_blowup_profile_matches_brute_force():
    stream = rng.Stream(rng.derive(17, 0xB10))
    hosts = [random_tournament(m, seed=m + 10 * s)
             for m in range(1, 7) for s in range(3)]
    hosts += [cyclic(3), cyclic(5)]
    for host in hosts:
        w = _random_weights(stream, host.n)
        got = predict_blowup_profile(BlowupSpec(host, w))
        want = brute_blowup_profile(host, w)
        assert got == pytest.approx(want, abs=1e-14, rel=0)


def test_predict_blowup_profile_transitive_closed_form():
    stream = rng.Stream(rng.derive(19, 0xB10))
    for m in range(1, 9):
        w = _random_weights(stream, m)
        c3, c4 = predict_blowup_profile(BlowupSpec(transitive(m), w))
        assert c3 == pytest.approx(sum(x**3 for x in w) / 4, abs=1e-15, rel=0)
        assert c4 == pytest.approx(3 * sum(x**4 for x in w) / 8, abs=1e-15,
                                   rel=0)


def test_curve_dataset_fig4():
    grid = [0.0, 1 / 16, 0.125, 0.25]
    tab = curve_dataset(grid, which="fig4")
    assert tab.abscissa == "c3"
    rows = {round(r[0], 10): r for r in tab.rows}
    r = rows[round(1 / 16, 10)]
    assert r[3] == pytest.approx(3 / 64, abs=1e-9)      # lb_flag
    assert r[4] == pytest.approx(3 / 64, abs=1e-9)      # conjectured
    assert rows[0.25][1] == pytest.approx(0.5)          # upper 2c3
    assert rows[0.0][4] == 0.0 and rows[0.0][5] == 0


def test_curve_dataset_fig1_and_fig3():
    grid = [0.0, 0.1, 0.25]
    t1 = curve_dataset(grid, which="fig1")
    assert t1.abscissa == "t3"
    # abscissa t3 = 1 - c3, sorted ascending
    assert [round(r[0], 10) for r in t1.rows] == [0.75, 0.9, 1.0]
    t3tab = curve_dataset(grid, which="fig3")
    assert t3tab.abscissa == "t4"
    for r in t3tab.rows:
        assert r[1] == pytest.approx(min(r[0], 1 - r[0]), abs=1e-12)
    with pytest.raises(ValueError):
        curve_dataset(grid, which="fig9")


def test_cyclic_point_on_fig3_upper():
    # the cyclic family sits at t4 = c4 = 1/2, on the upper boundary
    assert ub_c4_from_t4(0.5) == pytest.approx(0.5)
