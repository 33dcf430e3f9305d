import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, isclose, sqrt

import numpy as np
import pytest

from tourprof.bounds import (REPLACE_THRESHOLD, _blowup_profile,
                             conjectured_min_c4,
                             curve_dataset, lb_flag, lb_flag_n,
                             lb_variance,
                             min_fourth_power_sum, mix_profile_prediction,
                             predict_blowup_profile, replace_step,
                             ub_c4_from_c3, ub_c4_from_t4)
from tourprof.core import (BlowupSpec, MixSpec, Tournament, cyclic, mix,
                           random_tournament, transitive)
from tourprof.flags import enumerate_types
from tourprof.profiles import edge_stats, profile3, profile4
from tourprof import rng

from conftest import brute_blowup_profile, brute_mix_profile


def test_lb_flag_n_is_lemma1_at_finite_n(small_random_tournaments,
                                        small_named_tournaments):
    # the floor is lambda(g) - (6/t^2)((t - 3)^2 g + 1 - g)/(n - 3), and
    # c4/C(n,4) exceeds it by (6/t^2) sum_e (v . N_e)^2 / (12 C(n,4))
    corpus = small_random_tournaments + small_named_tournaments + [
        cyclic(9), cyclic(31), random_tournament(40, seed=1),
        random_tournament(7, seed=3)]
    for t in corpus:
        n, c3 = t.n, profile3(t).c3_count
        n3, n4 = comb(n, 3), comb(n, 4)
        c4 = Fraction(profile4(t).c4_count, n4)
        if c3 == 0:
            assert lb_flag_n(n, 0) == 0 <= c4
            continue
        g = Fraction(c3, n3)
        u = (1 + 8 * g) / (3 * g)
        lam = 18 * g * g / (1 + 8 * g)
        floor = lb_flag_n(n, c3)
        assert floor == lam - 6 / u**2 * ((u - 3)**2 * g + 1 - g) / (n - 3)
        es = edge_stats(t)
        square = sum(((u - 3) * cyc + thru - dom_out - dom_in)**2
                     for cyc, thru, dom_out, dom_in in zip(
                         es.cyc.tolist(), es.thru.tolist(),
                         es.dom_out.tolist(), es.dom_in.tolist()))
        assert c4 == (lam - 6 / u**2 * (3 * (u - 3)**2 * c3 + 3 * (n3 - c3))
                      / (12 * n4) + 6 / u**2 * square / (12 * n4))
        assert c4 >= floor


def test_lb_flag_n_is_below_every_tournament_of_order_at_most_6():
    for order in (4, 5, 6):
        least = {}
        for typ in enumerate_types(order):
            c3 = profile3(typ.rep).c3_count
            c4 = profile4(typ.rep).c4_count
            least[c3] = min(least.get(c3, c4), c4)
        assert sorted(least) == list(range(max(least) + 1))
        for c3, c4 in least.items():
            assert lb_flag_n(order, c3) <= Fraction(c4, comb(order, 4))


def test_lb_flag_n_is_at_least_the_old_floor():
    # wherever lb_flag(c3) - 5/n was positive, for every c3 up to the
    # largest (near-regular scores) at n = 4..79, the exact floor is no
    # lower, so no check is loosened
    for n in range(4, 80):
        n3 = comb(n, 3)
        q, r = divmod(comb(n, 2), n)
        top = n3 - r * comb(q + 1, 2) - (n - r) * comb(q, 2)
        for c3 in range(1, top + 1):
            old = lb_flag(min(c3 / n3, 0.25)) - 5.0 / n
            if old > 0:
                floor = lb_flag_n(n, c3)
                a, b = old.as_integer_ratio()
                assert a * floor.denominator <= floor.numerator * b, (n, c3)


def test_lb_flag_n_domain():
    assert lb_flag_n(64, 0) == 0
    for n, c3 in ((3, 0), (8, -1), (8, comb(8, 3) + 1)):
        with pytest.raises(ValueError):
            lb_flag_n(n, c3)


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


def test_conjectured_min_refuses_c3_whose_part_count_overflows():
    # 1/(4 c3) is inf below 2**-1024, where 4 c3 is the least normal float
    smallest = 2.0**-1024
    assert conjectured_min_c4(smallest).m > 10**150
    for c3 in (1e-320, smallest / 2, 5e-309, 0.0):
        with pytest.raises(ValueError, match=r"^c3 must be in "
                           r"\[5\.5626846462680035e-309, 1/4\], got "):
            conjectured_min_c4(c3)


def test_bounds_import_loads_no_numpy():
    code = ("import sys\nimport tourprof.bounds\n"
            "print([m for m in ('numpy', 'tourprof.core') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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


def _fraction(stream, lo, hi):
    return lo + (hi - lo) * Fraction(stream.next_below(1001), 1000)


def _mix_args(stream, draw):
    """(c3_1, c4_1, c3_2, c4_2, alpha, p) with c3_i in [0, 1/4], c4_i in
    [0, 2 c3_i], alpha in (0, 1) and p in [0, 1]; draw(lo, hi) picks one."""
    quarter = Fraction(1, 4)
    c3_1, c3_2 = draw(0, quarter), draw(0, quarter)
    alpha = draw(0, 1)
    while not 0 < alpha < 1:
        alpha = draw(0, 1)
    return (c3_1, draw(0, 2 * c3_1), c3_2, draw(0, 2 * c3_2), alpha,
            draw(0, 1))


_MIX_EDGE_CASES = [
    (Fraction(1, 4), Fraction(3, 8), Fraction(1, 4), Fraction(3, 8),
     Fraction(1, 3), Fraction(1, 2)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2),
     Fraction(0)),
    (Fraction(1, 16), Fraction(3, 64), Fraction(1, 4), Fraction(1, 2),
     Fraction(2, 7), Fraction(1)),
]


def test_mix_prediction_equals_polynomial_oracle():
    stream = rng.Stream(rng.derive(23, 0xB10))
    exact = [_mix_args(stream, lambda lo, hi: _fraction(stream, lo, hi))
             for _ in range(2000)]
    for args in _MIX_EDGE_CASES + exact:
        got = mix_profile_prediction(*args)
        assert got == brute_mix_profile(*args)
        assert all(type(x) is Fraction for x in got)
    for _ in range(2000):
        args = _mix_args(stream,
                         lambda lo, hi: lo + (hi - lo) * stream.next_uniform())
        got = mix_profile_prediction(*args)
        want = brute_mix_profile(*args)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15


def test_mix_prediction_equals_placement_oracle():
    # the hand-expanded mix is the two-part blow-up of the probability
    # host [[0, p], [1 - p, 0]] with interiors (c3_i, c4_i)
    stream = rng.Stream(rng.derive(29, 0xB10))
    draws = [_mix_args(stream, lambda lo, hi: _fraction(stream, lo, hi))
             for _ in range(200)]
    for c3_1, c4_1, c3_2, c4_2, alpha, p in _MIX_EDGE_CASES + draws:
        want = brute_blowup_profile([[0, p], [1 - p, 0]], (alpha, 1 - alpha),
                                    ((c3_1, c4_1), (c3_2, c4_2)))
        assert mix_profile_prediction(c3_1, c4_1, c3_2, c4_2, alpha,
                                      p) == want


@pytest.mark.parametrize("s", [150, 300, 600])
@pytest.mark.parametrize("p", [0.3, 0.8])
def test_mix_prediction_tracks_sampled_mix(s, p):
    # fed the blocks' own finite-n densities, the prediction is off by
    # O(1/n); 5/n was fixed before the single blow-up formula existed
    t1, t2 = transitive(s), cyclic(s + 1)
    t = mix(t1, t2, MixSpec(p), seed=s)
    want = mix_profile_prediction(profile3(t1).c3, profile4(t1).c4,
                                  profile3(t2).c3, profile4(t2).c4,
                                  s / t.n, p)
    assert abs(profile3(t).c3 - want[0]) <= 5 / t.n
    assert abs(profile4(t).c4 - want[1]) <= 5 / t.n


def test_placement_oracle_tracks_sampled_blowup_with_structured_parts():
    # a cyclic(3)-host blow-up with transitive, cyclic and random parts
    parts = [transitive(300), cyclic(301), random_tournament(300, 5)]
    sizes = [q.n for q in parts]
    n = sum(sizes)
    owner = np.repeat(np.arange(3), sizes)
    dense = cyclic(3).dense()[np.ix_(owner, owner)]
    for q, start in zip(parts, np.cumsum([0] + sizes)):
        dense[start:start + q.n, start:start + q.n] = q.dense()
    t = Tournament(dense)
    want = brute_blowup_profile(cyclic(3), [k / n for k in sizes],
                                [(profile3(q).c3, profile4(q).c4)
                                 for q in parts])
    assert abs(profile3(t).c3 - want[0]) <= 5 / n
    assert abs(profile4(t).c4 - want[1]) <= 5 / n


def test_blowup_formula_equals_placement_oracle():
    # probability hosts with per-part interiors, exactly in Fractions
    stream = rng.Stream(rng.derive(31, 0xB10))
    for m in (1, 2, 3, 4):
        for _ in range(4):
            host = [[0] * m for _ in range(m)]
            for i, j in combinations(range(m), 2):
                host[i][j] = _fraction(stream, 0, 1)
                host[j][i] = 1 - host[i][j]
            raw = [_fraction(stream, Fraction(1, 20), 1) for _ in range(m)]
            w = [x / sum(raw) for x in raw]
            g = [_fraction(stream, 0, Fraction(1, 4)) for _ in range(m)]
            interiors = [(x, _fraction(stream, 0, 2 * x)) for x in g]
            got = _blowup_profile(host, w, interiors)
            assert got == brute_blowup_profile(host, w, interiors)
            assert all(type(x) is Fraction for x in got)
    # the cyclic(3) host with transitive, cyclic and random parts, as in
    # the sampled blow-up above
    w, interiors = (0.3, 0.5, 0.2), ((0.0, 0.0), (0.25, 0.5), (0.25, 0.375))
    got = _blowup_profile(cyclic(3).dense(), w, interiors)
    want = brute_blowup_profile(cyclic(3), w, interiors)
    assert got == pytest.approx(want, abs=1e-15, rel=0)


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
