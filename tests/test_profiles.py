from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from tourprof.core import (InternalInvariantError, Tournament, TournamentError,
                           cyclic, from_matrix, interval, random_tournament,
                           transitive)
from tourprof.profiles import (EdgeStats, FlipState, Profile4Counts,
                               _check_float32_exact, classify4, edge_stats,
                               moments, paths_matrix, profile3, profile4,
                               sample_profile4, verify_identities, x_cdf)
from tourprof import rng

from conftest import (brute_counts3_via_matrix, brute_edge_stats,
                      brute_profile3, brute_profile4)


def test_profile3_matches_brute_force(small_random_tournaments):
    for t in small_random_tournaments:
        assert brute_profile3(t) == (profile3(t).t3_count, profile3(t).c3_count)


def test_profile4_matches_brute_force(small_random_tournaments,
                                     small_named_tournaments):
    for t in small_random_tournaments + small_named_tournaments:
        p = profile4(t)
        b = brute_profile4(t)
        assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == \
            (b["T4"], b["C4"], b["W"], b["L"])


def test_profile4_named_constructions():
    assert profile4(transitive(9)).t4 == 1.0
    p = profile4(cyclic(5))
    assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == (0, 5, 0, 0)
    for s in (5, 6, 8):
        p = profile4(interval(8, s))
        assert p.w_count == 0 and p.l_count == 0


def test_cyclic_c3_closed_form():
    for n in (5, 51, 201):
        assert profile3(cyclic(n)).c3_count == (n ** 3 - n) // 24


def test_classify4_exhaustive_against_definition():
    # all 64 labeled 4-tournaments: type from (cyclic-triangle count,
    # source/sink existence) must agree with the score-sequence route
    for bits in product((0, 1), repeat=6):
        m = np.zeros((4, 4), dtype=int)
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        for (u, v), b in zip(pairs, bits):
            m[u, v], m[v, u] = b, 1 - b
        t = from_matrix(m)
        c3 = brute_profile3(t)[1]
        deg = sorted(t.dense().sum(axis=1))
        has_sink = deg[0] == 0
        has_source = deg[-1] == 3
        name = classify4(t)
        if c3 == 0:
            assert name == "T4"
        elif c3 == 2:
            assert name == "C4"
        elif has_sink:
            assert name == "W" and c3 == 1
        else:
            assert name == "L" and c3 == 1 and has_source


def test_w_instance_contains_one_cyclic_triangle():
    m = np.zeros((4, 4), dtype=int)
    # cyclic triangle 0->1->2->0 plus sink 3
    for u, v in ((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)):
        m[u, v] = 1
    t = from_matrix(m)
    assert classify4(t) == "W"
    assert brute_profile3(t)[1] == 1


def test_edge_stats_matches_brute(small_random_tournaments,
                                 small_named_tournaments):
    for t in small_random_tournaments + small_named_tournaments:
        st = edge_stats(t)
        got = list(zip((int(u) for u, _ in st.edges),
                       (int(v) for _, v in st.edges),
                       st.cyc.tolist(), st.thru.tolist(),
                       st.dom_out.tolist(), st.dom_in.tolist()))
        assert got == brute_edge_stats(t)


def test_dom_pair_sums_are_t4_and_fix_w_and_l(small_random_tournaments,
                                              small_named_tournaments):
    # sum C(dom_out, 2) counts the 4-sets with a source whose next vertex
    # beats the other two, sum C(dom_in, 2) those with a sink whose next
    # vertex loses to the other two: both are exactly the T4 sets.  With
    # Goodman inside each out-/in-neighbourhood, L and W follow.
    for t in small_random_tournaments + small_named_tournaments:
        rows = brute_edge_stats(t)
        b = brute_profile4(t)
        d = t.dense().sum(axis=1).tolist()
        assert sum(comb(r[4], 2) for r in rows) == b["T4"]
        assert sum(comb(r[5], 2) for r in rows) == b["T4"]
        assert sum(comb(x, 3) for x in d) - b["T4"] == b["L"]
        assert sum(comb(t.n - 1 - x, 3) for x in d) - b["T4"] == b["W"]


def test_paths_matrix_is_the_integer_product():
    for t in (random_tournament(70, seed=5), cyclic(33), transitive(40)):
        a = t.dense().astype(np.int64)
        p2 = paths_matrix(t)
        assert p2.dtype == np.int64
        assert np.array_equal(p2, a @ a)


def test_paths_matrix_float32_bound():
    _check_float32_exact(2 ** 24 - 1)
    with pytest.raises(TournamentError, match=r"n < 2\*\*24 \(got n=16777216\)"):
        _check_float32_exact(2 ** 24)


def test_edge_stats_cyclic5_sums():
    st = edge_stats(cyclic(5))
    s = st.sums()
    assert s["cyc"] == 15                      # 3 * #C3
    assert s["comb2_cyc"] == 5                 # #C4
    assert (st.cyc + st.thru + st.dom_out + st.dom_in == 3).all()


def test_edge_stat_identities_on_randoms(small_random_tournaments):
    for t in small_random_tournaments[:12]:
        st = edge_stats(t)
        s = st.sums()
        p3, p4 = profile3(t), profile4(t)
        assert s["cyc"] == 3 * p3.c3_count
        assert s["thru"] == p3.t3_count
        assert s["comb2_cyc"] == p4.c4_count
        assert s["comb2_thru"] == p4.t4_count
        assert s["cyc_thru"] == 2 * p4.c4_count


def test_moments_cyclic5():
    rep = moments(cyclic(5))
    assert rep.ex == Fraction(1, 2)
    assert rep.exx == Fraction(25, 90)
    assert rep.var_x == rep.exx - rep.ex ** 2
    # E[Z^2] = (1+8c3)/3 * n/(n-2) exactly
    assert rep.ezz == Fraction(5, 3) * Fraction(5, 3)


def test_moment_identities_exact(small_random_tournaments):
    for t in small_random_tournaments[:10]:
        n = t.n
        rep = moments(t)
        p3, p4 = profile3(t), profile4(t)
        c3 = Fraction(p3.c3_count, comb(n, 3))
        c4 = Fraction(p4.c4_count, comb(n, 4))
        assert rep.ex == c3
        assert rep.ey == Fraction(p3.t3_count, 3 * comb(n, 3))
        assert rep.exx == c4 * Fraction(n - 3, 6 * (n - 2)) + c3 / (n - 2)
        assert rep.exy == c4 * Fraction(n - 3, 6 * (n - 2))
        assert rep.ezz == Fraction(1 + 8 * c3, 3) * Fraction(n, n - 2)


def test_x_cdf_basic_properties():
    t = random_tournament(40, seed=2)
    assert x_cdf(t, 0.0) == 1.0
    assert x_cdf(t, 1.0 + 1e-9) == 0.0
    xs = np.linspace(0, 1, 21)
    vals = [x_cdf(t, float(x)) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for bad in (float("nan"), [0.5, float("nan")]):
        with pytest.raises(ValueError, match="x must not be NaN"):
            x_cdf(t, bad)


def test_x_cdf_triangle_blowup_step():
    # balanced blow-up of the directed triangle: X concentrates at 1/3
    from tourprof.core import BlowupSpec, blowup
    t = blowup(BlowupSpec(cyclic(3), (1 / 3, 1 / 3, 1 / 3)), 600, seed=13)
    hi = x_cdf(t, 1 / 3 - 0.02)
    lo = x_cdf(t, 1 / 3 + 0.02)
    assert abs(hi - 2 / 3) <= 0.05
    assert lo <= 0.05


def test_x_cdf_imbalanced_triangle_blowup():
    from tourprof.core import BlowupSpec, blowup
    eps = 0.01
    t = blowup(BlowupSpec(cyclic(3),
                          (1 / 3 + eps, 1 / 3 + eps, 1 / 3 - 2 * eps)),
               600, seed=13)
    val = x_cdf(t, 1 / 3 + eps / 2)
    assert abs(val - 4 / 9) <= 0.05


def test_sample_profile4_within_four_stderr():
    t = random_tournament(100, seed=21)
    exact = profile4(t)
    est = sample_profile4(t, samples=40_000, seed=3)
    for name, truth in (("T4", exact.t4), ("C4", exact.c4),
                        ("W", exact.w), ("L", exact.l)):
        se = max(est.stderr[name], 1e-12)
        assert abs(est.estimates[name] - truth) <= 4 * se


def test_sample_profile4_deterministic():
    t = random_tournament(50, seed=1)
    a = sample_profile4(t, samples=500, seed=9)
    b = sample_profile4(t, samples=500, seed=9)
    assert a.counts == b.counts


def test_profile4_counts_invariant_guard():
    with pytest.raises(InternalInvariantError):
        Profile4Counts(5, 1, 1, 1, 1)


def test_flip_state_transitive_top_edge():
    st = FlipState(transitive(5))
    st.flip(0, 1)
    assert st.c3_count == 0
    st.audit()


def test_flip_state_tournament_is_a_snapshot():
    st = FlipState(random_tournament(12, seed=5))
    snap = st.tournament()
    before = snap.dense().copy()
    st.flip(0, 1)
    assert np.array_equal(snap.dense(), before)
    assert snap != st.tournament()
    with pytest.raises(ValueError):
        snap.dense()[0, 1] = not snap.dense()[0, 1]


def test_flip_state_tracks_recount_n128():
    # 10^4 flips at n=128; c3 must equal a running count kept from the
    # test's own matrix after every flip, that count must equal an
    # independent matrix-product recount at checkpoints, and the state
    # must pass its own audit there
    n = 128
    t = random_tournament(n, seed=77)
    st = FlipState(t)
    stream = rng.Stream(4242)
    a = t.dense().copy()
    c3 = brute_counts3_via_matrix(a)
    for i in range(10_000):
        u = stream.next_below(n)
        r = stream.next_below(n - 1)
        v = r if r < u else r + 1
        src, dst = (u, v) if a[u, v] else (v, u)
        # reversing src -> dst makes src -> x -> dst cyclic and
        # dst -> x -> src transitive
        c3 += int((a[src] & a[:, dst]).sum()) - int((a[dst] & a[:, src]).sum())
        st.flip(u, v)
        a[u, v], a[v, u] = a[v, u], a[u, v]
        assert st.c3_count == c3
        if (i + 1) % 1000 == 0:
            assert c3 == brute_counts3_via_matrix(a)
            st.audit()
    p4 = st.counts4()
    b4 = profile4(st.tournament())
    assert p4 == b4


def test_flip_state_c4_t4_track_recount():
    n = 60
    st = FlipState(random_tournament(n, seed=3))
    stream = rng.Stream(99)
    for i in range(300):
        u = stream.next_below(n)
        r = stream.next_below(n - 1)
        v = r if r < u else r + 1
        a, p2 = st.a.copy(), st.p2.copy()
        c3, c4 = st.c3_count, st.c4_count
        dc3, dc4 = st.delta(u, v)
        assert np.array_equal(st.a, a) and np.array_equal(st.p2, p2)
        assert (st.c3_count, st.c4_count) == (c3, c4)
        st.flip(u, v)
        assert (st.c3_count - c3, st.c4_count - c4) == (dc3, dc4)
        t = st.tournament()
        p4 = profile4(t)
        assert (st.c4_count, st.t4_count) == (p4.c4_count, p4.t4_count)
        assert st.c3_count == profile3(t).c3_count


@pytest.mark.parametrize("u, v", [(2, 2), (0, 7), (-1, 3)])
def test_flip_state_bad_pair(u, v):
    st = FlipState(random_tournament(7, seed=2))
    with pytest.raises(TournamentError):
        st.delta(u, v)
    with pytest.raises(TournamentError):
        st.flip(u, v)


def test_verify_identities_corpus(small_random_tournaments):
    for t in small_random_tournaments[:8] + [cyclic(31), transitive(30)]:
        rep = verify_identities(t)
        assert rep.all_ok
        for chk in rep.checks:
            if chk.name == "c3_regular_max":
                assert chk.lhs <= chk.rhs
            else:
                assert chk.lhs == chk.rhs


def test_verify_identities_odd_n_c3_cap():
    # cyclic tournaments meet the odd-n cap with equality
    rep = verify_identities(cyclic(31))
    cap = {chk.name: chk for chk in rep.checks}["c3_regular_max"]
    assert cap.ok and cap.lhs == cap.rhs
