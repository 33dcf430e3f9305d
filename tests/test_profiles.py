from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from tourprof.core import (BlowupSpec, InternalInvariantError, Tournament,
                           TournamentError, blowup, cyclic, from_matrix,
                           interval, random_tournament, transitive)
from tourprof.profiles import (FlipState, Profile3Counts,
                               Profile4Counts, _check_exact,
                               classify4, edge_stats, moments, paths_matrix,
                               profile3, profile4, sample_profile4,
                               verify_identities, x_cdf)
from tourprof import profiles, rng

from conftest import (brute_common_out, brute_counts3_via_matrix,
                      brute_edge_stats, brute_profile3, brute_profile4,
                      brute_two_paths, gram_matrix, gram_profile4)


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


@pytest.mark.parametrize("rows", [1, 3, 5])
def test_profile4_block_rows_match_brute_force(monkeypatch, rows,
                                               small_random_tournaments,
                                               small_named_tournaments):
    # lanes of 1, 3 or 5 rows and tiles of 1, 3 or 5 columns, last ones
    # partial or the only one, summed in float32 and, with float32 said
    # to hold 5 bits (2b = 6 or 8 here), in float64 from tiles of at most
    # 3 columns; the same blocks fill G whole, last panels with an empty
    # or a partial hi lane
    monkeypatch.setattr(profiles, "_GRAM_ROWS", rows)
    corpus = small_random_tournaments + small_named_tournaments
    want = [tuple(brute_profile4(t)[k] for k in ("T4", "C4", "W", "L"))
            for t in corpus]
    grams = [a @ a.T for a in (t.dense().astype(np.int64) for t in corpus)]
    for cols, bits in product((1, 3, 5), (24, 5)):
        monkeypatch.setattr(profiles, "_TILE_COLS", cols)
        monkeypatch.setattr(profiles, "_FLOAT32_BITS", bits)
        got = [(p.t4_count, p.c4_count, p.w_count, p.l_count)
               for p in map(profile4, corpus)]
        assert got == want, (cols, bits)
        assert all(np.array_equal(profiles._gram(t)[0], g)
                   for t, g in zip(corpus, grams)), (cols, bits)


@pytest.mark.parametrize("n", [257, 513, 1000])
def test_profile4_matches_the_full_gram_formula(n):
    odd = n - 1 + n % 2
    spec = BlowupSpec(host=transitive(3), weights=(0.5, 0.3, 0.2))
    for t in (random_tournament(n, n), blowup(spec, n, 2), cyclic(odd),
              interval(n, (n + 1) // 2 + 7)):
        p = profile4(t)
        assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == \
            gram_profile4(t)
        # the blocks, mirrored, fill the whole G across block-rows
        assert np.array_equal(profiles._gram(t)[0], gram_matrix(t))


def _second_moment_t4(t):
    """sum_{u<v} C(G[u,v], 2) from the whole float32 gram_matrix, in
    int64, a block of rows at a time."""
    g, total = gram_matrix(t), 0
    for r0 in range(0, t.n, 256):
        block = np.triu(g[r0:r0 + 256].astype(np.int64), r0 + 1)
        total += int((block * (block - 1) // 2).sum())
    return total


@pytest.mark.parametrize("n,lanes", [(4096, 2), (4097, 1)])
def test_profile4_lanes_at_the_packing_limit(n, lanes):
    # float32 holds two b-bit lanes while 2b <= 24, up to n = 4096, where
    # hi and lo reach 2**12 - 1 and a packed entry 2**24 - 1; one more
    # vertex and it holds one, so the tiles are summed in float64
    assert (2 * (n - 1).bit_length() <= profiles._FLOAT32_BITS) == \
        (lanes == 2)
    for t in (random_tournament(n, 5), transitive(n)):
        assert profile4(t).t4_count == _second_moment_t4(t)


def test_profile4_holds_one_gram_block_row():
    # a tile's float32 temporaries, 256 x 512 each (512 KiB), at most two
    # at once, and two 512 x 256 blocks of G: 0.46 n^2 beside the input;
    # A as float32 alone would be 4 n^2
    import tracemalloc
    n = 2000
    t = random_tournament(n, 1)
    tracemalloc.start()
    try:
        profile4(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n, peak / n**2


def test_edge_stats_holds_g_as_integers():
    # G in uint16 (2 n^2) and the arc indices (4 n^2), then G at the
    # arcs (1 n^2) and two arrays of 4 n^2 at a time, of the arc
    # indices, cyc and thru: 9 n^2, where cyc and thru alone take 8 n^2
    import tracemalloc
    n = 2000
    t = random_tournament(n, 1)
    tracemalloc.start()
    try:
        edge_stats(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n, peak / n**2


def test_verify_identities_fits_the_budget_that_admits_it():
    # edge_stats' 9 n^2, then int64 dot products over cyc and thru that
    # allocate nothing n^2-sized, within the 10 n^2 that
    # _check_gram_memory charges it
    import tracemalloc
    n = 2000
    t = random_tournament(n, 1)
    tracemalloc.start()
    try:
        verify_identities(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n, peak / n**2


def test_whole_gram_budget_is_2_gib_at_10_bytes_per_entry():
    # 10 n^2 bounds the edge_stats peak above; the largest order that
    # fits 2 GiB passes, the next is refused before anything is read
    top = 14654
    assert 10 * top**2 <= 2**31 < 10 * (top + 1)**2
    profiles._check_gram_memory(top)
    with pytest.raises(TournamentError,
                       match=r"^edge stats at n=14655 need about 2147690250 "
                             r"bytes \(10 n\^2\), more than the 2147483648 "
                             r"byte limit \(n <= 14654\)$"):
        profiles._check_gram_memory(top + 1)


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
        assert st.a is t.dense()
        assert st.d is t.out_degrees()
        assert st.p4 == profile4(t)         # from the pass that fills G
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


def test_paths_matrix_matches_brute_force(small_random_tournaments,
                                          small_named_tournaments):
    for t in small_random_tournaments + small_named_tournaments:
        p2 = paths_matrix(t)
        assert p2.dtype == np.int64
        assert p2.tolist() == brute_two_paths(t)


def test_paths_matrix_float32_bound():
    # float32 entries need n < 2**24; the float64 row sums of G**2 need
    # n*(n-1)**2 < 2**53, which binds first, at n = 208064
    _check_exact(208064)
    for n in (208065, 2 ** 24 - 1, 2 ** 24):
        with pytest.raises(TournamentError,
                           match=rf"n\*\(n-1\)\*\*2 < 2\*\*53, so n <= "
                                 rf"208064 \(got n={n}\)"):
            _check_exact(n)


class Huge:          # a tournament too large to build
    n = 208065

    def dense(self):
        raise AssertionError("the kernel allocated before its check")

    out_degrees = dense


def test_gram_matrix_checks_before_it_allocates():
    # edge_stats, paths_matrix and FlipState fill G whole: n is checked
    # first
    for whole in (edge_stats, paths_matrix, FlipState):
        with pytest.raises(TournamentError, match=r"got n=208065"):
            whole(Huge())


def test_profile4_checks_before_it_allocates():
    with pytest.raises(TournamentError, match=r"got n=208065"):
        profile4(Huge())


def test_edge_stats_cyclic5_sums():
    st = edge_stats(cyclic(5))
    s = st.sums()
    assert s["cyc"] == 15                      # 3 * #C3
    assert s["comb2_cyc"] == 5                 # #C4
    assert (st.cyc + st.thru + st.dom_out + st.dom_in == 3).all()


def test_edge_stats_compare_by_identity():
    # array fields have no truth value, so EdgeStats is equal only to
    # itself, and hashable
    a, b = edge_stats(cyclic(5)), edge_stats(cyclic(5))
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_edge_stats_builds_its_identity_in_without_rechecking_it():
    # edge_stats' arrays skip the re-derivation and its 8 n^2 bytes of
    # temporaries: the gather, at 14 n^2 traced bytes, is now the peak
    import tracemalloc
    t = random_tournament(1000, seed=8)
    tracemalloc.start()
    try:
        st = edge_stats(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * t.n**2


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


def test_moments_match_brute_edge_rows(small_random_tournaments,
                                       small_named_tournaments):
    # moments come from the counts; the oracle sums X and Y over the
    # brute-force arcs, so the per-edge meaning stays checked
    for t in small_random_tournaments + small_named_tournaments:
        k, rows = t.n - 2, brute_edge_stats(t)
        xs = [Fraction(r[2], k) for r in rows]
        ys = [Fraction(r[3], k) for r in rows]
        e = len(xs)
        ex, ey = sum(xs) / e, sum(ys) / e
        exx = sum(x * x for x in xs) / e
        rep = moments(t)
        assert (rep.ex, rep.ey, rep.exx, rep.var_x) == \
            (ex, ey, exx, exx - ex * ex)
        assert rep.exy == sum(x * y for x, y in zip(xs, ys)) / e
        assert rep.eyy == sum(y * y for y in ys) / e
        assert rep.ezz == sum((1 + 2 * (x - y)) ** 2
                              for x, y in zip(xs, ys)) / e


def test_moment_identities_exact(small_random_tournaments):
    for t in small_random_tournaments[:10] + [random_tournament(1001, seed=4)]:
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


def test_x_cdf_checks_before_the_kernel(monkeypatch):
    calls = []
    real = profiles._gram_tile

    def counting(left, right):
        calls.append(left.shape[1])
        return real(left, right)

    monkeypatch.setattr(profiles, "_gram_tile", counting)
    with pytest.raises(ValueError, match="x must not be NaN"):
        x_cdf(random_tournament(200, 1), float("nan"))
    # n < 3 is named first, even with a NaN x
    with pytest.raises(TournamentError, match="edge stats need n >= 3"):
        x_cdf(transitive(2), float("nan"))
    assert calls == []
    x_cdf(random_tournament(200, 1), 0.5)
    assert calls == [200]


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


@pytest.mark.parametrize("n,samples,seed", [
    (4, 3000, 1), (5, 2000, 2), (9, 3000, 3), (50, 4000, 4),
    (2500, 20_000, 5), (6, 1, 6), (100, 257, 7),
    (4, 1000, 3), (5, 200, 13), (6, 1000, 7)])
def test_four_sets_follow_the_sequential_draw_order(n, samples, seed):
    # the block-drawn 4-sets equal a value-by-value read of the stream:
    # each vertex is Stream.next_below(n), redrawn while it repeats one
    # already in the current set (the last three cases need more draws
    # than the first block holds)
    stream = rng.Stream(seed)
    want = []
    for _ in range(samples):
        four = []
        while len(four) < 4:
            v = stream.next_below(n)
            if v not in four:
                four.append(v)
        want.append(four)
    assert profiles._four_sets(n, samples, seed).tolist() == want


def test_sample_profile4_deterministic():
    t = random_tournament(50, seed=1)
    a = sample_profile4(t, samples=500, seed=9)
    b = sample_profile4(t, samples=500, seed=9)
    assert a.counts == b.counts
    # the draw order (redraw on a duplicate) and the classifier fix these
    assert a.counts == {"T4": 195, "C4": 175, "W": 66, "L": 64}


def test_profile4_counts_invariant_guard():
    with pytest.raises(InternalInvariantError,
                       match=r"^4-profile t4 \+ c4 \+ w \+ l = C\(n,4\), all "
                             r">= 0, fails at n=5: sum\(1, 1, 1, 1\) = 4 "
                             r"vs 5$"):
        Profile4Counts(5, 1, 1, 1, 1)
    with pytest.raises(InternalInvariantError,
                       match=r"n=5: sum\(6, -1, 0, 0\) = 5 vs 5$"):
        Profile4Counts(5, 6, -1, 0, 0)


def test_profile3_counts_invariant_guard():
    with pytest.raises(InternalInvariantError,
                       match=r"^3-profile t3 \+ c3 = C\(n,3\), all >= 0, "
                             r"fails at n=5: sum\(1, 1\) = 2 vs 10$"):
        Profile3Counts(5, 1, 1)


def test_profile4_gram_guard(monkeypatch):
    # a wrong Gram block breaks one of G's own identities, named with n
    # and both sides, before any count is derived from it; edge_stats and
    # paths_matrix, which fill G whole from the same blocks, check its
    # diagonal
    t = random_tournament(9, seed=2)
    real = profiles._gram_tile
    d = t.out_degrees()
    links = 2 * sum(comb(8 - int(x), 2) for x in d)

    def off_pair(left, right):
        g = real(left, right)
        g[0, 1] += 1
        g[1, 0] += 1
        return g

    def off_diagonal(left, right):
        g = real(left, right)
        g[3, 3] += 1
        return g

    monkeypatch.setattr(profiles, "_gram_tile", off_pair)
    with pytest.raises(InternalInvariantError,
                       match=rf"^Gram sum sum_\(u!=v\) G = 2 sum_w "
                             rf"C\(n-1-d_w, 2\) fails at n=9: "
                             rf"{links + 2} vs {links}$"):
        profile4(t)
    monkeypatch.setattr(profiles, "_gram_tile", off_diagonal)
    for kernel in (profile4, edge_stats, paths_matrix):
        with pytest.raises(InternalInvariantError,
                           match=rf"^Gram diagonal G\[u,u\] = d_u fails at "
                                 rf"n=9: first at vertex 3, G {d[3] + 1} vs "
                                 rf"d {d[3]}$"):
            kernel(t)


@pytest.mark.parametrize("lane", ["lo", "hi"])
def test_profile4_gram_guard_in_a_packed_panel(monkeypatch, lane):
    # at n = 1000, b = 10, the left block of rows 0..511 meets the panel
    # of rows 512..767 (lo) and 768..999 (hi), off the diagonal: a count
    # off by one in either lane of one tile is a pair of G off by one,
    # counted twice in the Gram sum
    n = 1000
    t = random_tournament(n, seed=4)
    a = t.dense()
    real = profiles._gram_tile
    links = 2 * sum(comb(n - 1 - int(x), 2) for x in t.out_degrees())
    packed = []

    def off_lane(left, right):
        g = real(left, right)
        # rows 0..255 against that panel, both in columns 0..511
        if (np.array_equal(left, a[:256, :512])
                and np.array_equal(np.fmod(right, 2**10), a[512:768, :512])):
            packed.append(right.shape)
            g[5, 7] += 1 if lane == "lo" else 2**10
        return g

    monkeypatch.setattr(profiles, "_gram_tile", off_lane)
    with pytest.raises(InternalInvariantError,
                       match=rf"^Gram sum sum_\(u!=v\) G = 2 sum_w "
                             rf"C\(n-1-d_w, 2\) fails at n={n}: "
                             rf"{links + 2} vs {links}$"):
        profile4(t)
    assert packed == [(256, 512)]


def test_gram_second_moment_is_t4(small_random_tournaments,
                                  small_named_tournaments):
    # a T4 is the one 4-type with a pair beating the other pair
    for t in small_random_tournaments + small_named_tournaments:
        g, sums = profiles._gram(t)
        assert np.array_equal(g, g.T)
        a = t.dense().astype(np.int64)
        assert np.array_equal(g, a @ a.T)
        g = g.astype(np.int64)      # the pass that fills G also sums it
        assert sums == (int(g.sum()), int((g * g).sum()))
        second = sum(comb(int(g[u, v]), 2)
                     for u in range(t.n) for v in range(u + 1, t.n))
        assert second == brute_profile4(t)["T4"]


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


def test_flip_state_c4_t4_track_recount():
    n = 60
    st = FlipState(random_tournament(n, seed=3))
    stream = rng.Stream(99)
    for i in range(300):
        u = stream.next_below(n)
        r = stream.next_below(n - 1)
        v = r if r < u else r + 1
        a, h = st.a.copy(), st.h.copy()
        c3, c4 = st.c3_count, st.c4_count
        dc3, dc4 = st.delta(u, v)
        assert np.array_equal(st.a, a) and np.array_equal(st.h, h)
        assert (st.c3_count, st.c4_count) == (c3, c4)
        st.flip(u, v)
        assert (st.c3_count - c3, st.c4_count - c4) == (dc3, dc4)
        t = st.tournament()
        p4 = profile4(t)
        assert (st.c4_count, st.t4_count) == (p4.c4_count, p4.t4_count)
        assert st.c3_count == profile3(t).c3_count


@pytest.mark.parametrize("t", [
    cyclic(7), transitive(6), interval(9, 6),
    blowup(BlowupSpec(host=cyclic(3), weights=(0.5, 0.3, 0.2)), 10, seed=5),
], ids=["cyclic7", "transitive6", "interval9_6", "blowup_c3_10"])
def test_flip_state_delta_exhaustive(t):
    # every pair, both argument orders: delta is the change that the
    # exact profiles measure on the flipped tournament, and flip makes it
    c3, c4 = profile3(t).c3_count, profile4(t).c4_count
    for u in range(t.n):
        for v in range(t.n):
            if u == v:
                continue
            a = t.dense().copy()
            a[u, v], a[v, u] = a[v, u], a[u, v]
            flipped = Tournament(a)
            want = (profile3(flipped).c3_count - c3,
                    profile4(flipped).c4_count - c4)
            st = FlipState(t)
            assert st.delta(u, v) == want, (u, v)
            st.flip(u, v)
            assert (st.c3_count - c3, st.c4_count - c4) == want, (u, v)
            assert st.tournament() == flipped
            st.audit()


def test_flip_state_delta_on_tied_warm_start():
    # The n = 64 gamma = 1/16 warm start is a transitive blow-up, full of
    # equal degrees and equal path counts.  500 seeded pairs, every third
    # one committed: each delta is the change the exact profiles measure.
    from tourprof.search import _warm_start
    n = 64
    t = _warm_start(n, 1 / 16, 0)
    st = FlipState(t)
    stream = rng.Stream(1616)
    a = t.dense().copy()
    c3, c4 = profile3(t).c3_count, profile4(t).c4_count
    for i in range(500):
        u = stream.next_below(n)
        r = stream.next_below(n - 1)
        v = r if r < u else r + 1
        a[u, v], a[v, u] = a[v, u], a[u, v]
        flipped = Tournament(a)
        new3, new4 = profile3(flipped).c3_count, profile4(flipped).c4_count
        assert st.delta(u, v) == (new3 - c3, new4 - c4), (i, u, v)
        if i % 3 == 2:
            st.flip(u, v)
            c3, c4 = new3, new4
        else:
            a[u, v], a[v, u] = a[v, u], a[u, v]
    assert (st.c3_count, st.c4_count) == (c3, c4)
    st.audit()


def test_pair_terms_match_arc_delta_and_recount_on_tied_warm_start():
    # 300 drawn pairs of the tied n = 64 warm start, each in both orders,
    # gathered in one call, then again after 40 commits: each comes back
    # as its current arc, both orders as the same one, and its terms
    # give arc_delta, which the exact profiles of the flipped tournament
    # measure.
    from tourprof.search import _warm_start
    n = 64
    st = FlipState(_warm_start(n, 1 / 16, 0))
    stream = rng.Stream(1616)

    def draw():
        x = stream.next_below(n)
        r = stream.next_below(n - 1)
        return x, r if r < x else r + 1

    for _ in range(2):
        u, v = np.array([draw() for _ in range(300)]).T
        u, v = np.concatenate([u, v]), np.concatenate([v, u])
        terms = st.pair_terms(u, v)
        a = st.a.copy()
        c3, c4 = st.c3_count, st.c4_count
        for i, (x, y) in enumerate(zip(u.tolist(), v.tolist())):
            s, d, d_s, d_d, k = (col[i] for col in terms)
            assert all(type(t) is int for t in (s, d, d_s, d_d, k))
            assert {s, d} == {x, y} and a[s, d] == 1
            assert [col[(i + 300) % 600] for col in terms] == \
                [s, d, d_s, d_d, k]
            got = profiles.flip_delta(d_s, d_d, k)
            assert got == st.arc_delta(s, d), (s, d)
            a[s, d], a[d, s] = 0, 1
            flipped = Tournament(a.astype(bool))
            assert (profile3(flipped).c3_count - c3,
                    profile4(flipped).c4_count - c4) == got, (s, d)
            a[s, d], a[d, s] = 1, 0
        for _ in range(40):
            st.flip(*draw())
    st.audit()


def test_two_dot_price_equals_the_recount_on_both_corpora(
        small_random_tournaments, small_named_tournaments):
    # every arc s -> t of both small corpora: dc3 = deg[s] - deg[t] - 1
    # and dc4 = H[s] . A[t] - H[t] . A[s] - dc3, read off the state's
    # H and A, are the changes the exact profiles of the flipped
    # tournament measure; arc_delta and pair_terms price them the same
    for t in small_random_tournaments + small_named_tournaments:
        n = t.n
        st = FlipState(t)
        h, a, deg = st.h, st.a, st.deg
        c3, c4 = profile3(t).c3_count, profile4(t).c4_count
        src, dst = (x.astype(np.intp) for x in np.nonzero(a))
        terms = st.pair_terms(src, dst)
        assert terms[:2] == (src.tolist(), dst.tolist())
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            dc3 = int(deg[s] - deg[d]) - 1
            dc4 = int(h[s] @ a[d] - h[d] @ a[s]) - dc3
            flipped = t.dense().copy()
            flipped[s, d], flipped[d, s] = False, True
            flipped = Tournament(flipped)
            assert (profile3(flipped).c3_count - c3,
                    profile4(flipped).c4_count - c4) == (dc3, dc4), (n, s, d)
            assert st.arc_delta(s, d) == (dc3, dc4)
            assert profiles.flip_delta(terms[2][i], terms[3][i],
                                       terms[4][i]) == (dc3, dc4)


def test_commit_keeps_diag_g_at_the_degrees_on_tied_warm_start():
    # commit resets no diagonal entry: after 2 000 random commits on the
    # tied warm start the state equals one built from its tournament,
    # diag H = 0, G = H + 1 deg^T is symmetric and diag A = 0
    from tourprof.search import _warm_start
    n = 64
    st = FlipState(_warm_start(n, 1 / 16, 0))
    stream = rng.Stream(2024)
    for _ in range(2000):
        u = stream.next_below(n)
        r = stream.next_below(n - 1)
        st.flip(u, r if r < u else r + 1)
    fresh = FlipState(st.tournament())
    for name in ("a", "h", "deg"):
        assert np.array_equal(getattr(st, name), getattr(fresh, name)), name
    assert (st.c3_count, st.c4_count) == (fresh.c3_count, fresh.c4_count)
    assert not np.diagonal(st.h).any()
    g = st.h + st.deg
    assert np.array_equal(g, g.T)
    assert np.array_equal(np.diagonal(g), st.deg)
    assert not np.diagonal(st.a).any()


def test_flip_state_g_counts_common_out_neighbours(small_random_tournaments,
                                                  small_named_tournaments):
    # after 3n seeded flips, G = H + 1 deg^T is the brute-force count of
    # common out-neighbours on both corpora and the tied n = 64 warm
    # start, and deg the brute-force out-degrees; H and A are float64,
    # whose integer entries compare equal to the exact counts
    from tourprof.search import _warm_start
    corpus = (small_random_tournaments + small_named_tournaments
              + [_warm_start(64, 1 / 16, 0)])
    for i, t in enumerate(corpus):
        n = t.n
        st = FlipState(t)
        stream = rng.Stream(700 + i)
        for _ in range(3 * n):
            u = stream.next_below(n)
            r = stream.next_below(n - 1)
            st.flip(u, r if r < u else r + 1)
        want = brute_common_out(st.tournament())
        assert st.h.dtype == st.a.dtype == np.float64
        assert st.deg.tolist() == [row[x] for x, row in enumerate(want)], i
        assert (st.h + st.deg).tolist() == want, i


def test_flip_state_and_audit_make_one_gram_pass(monkeypatch):
    # construction and audit each run _gram_blocks once; at n = 600 the
    # audit meets blocks right of the diagonal blocks, and a drift of H
    # in the mirror image of one is named at its own entry, as values
    # of G = H + 1 deg^T
    runs = []
    real = profiles._gram_blocks

    def counted(t):
        runs.append(t.n)
        return real(t)
    monkeypatch.setattr(profiles, "_gram_blocks", counted)
    st = FlipState(random_tournament(600, seed=8))
    assert runs == [600]
    for u, v in ((0, 550), (10, 599), (300, 3)):
        st.flip(u, v)
    st.audit()
    assert runs == [600, 600]
    entry = int(st.h[550, 10] + st.deg[10])
    st.h[550, 10] += 1
    with pytest.raises(InternalInvariantError,
                       match=rf"G matrix drifted at n=600: first difference "
                             rf"at \(550, 10\), tracked {entry + 1} vs "
                             rf"recount {entry}$"):
        st.audit()
    assert runs == [600, 600, 600]


def test_flip_state_audit_names_the_drift():
    st = FlipState(random_tournament(12, seed=4))
    c4, t4 = st.c4_count, st.t4_count
    st.c4_count += 1
    with pytest.raises(InternalInvariantError,
                       match=rf"drifted at n=12: c4 tracked {c4 + 1} vs "
                             rf"recount {c4}; t4 tracked {t4 + 1} vs "
                             rf"recount {t4}$"):
        st.audit()
    st.c4_count -= 1
    st.audit()
    entry = int(st.h[0, 1] + st.deg[1])
    st.h[0, 1] += 1
    with pytest.raises(InternalInvariantError,
                       match=rf"G matrix drifted at n=12: first difference "
                             rf"at \(0, 1\), tracked {entry + 1} vs "
                             rf"recount {entry}$"):
        st.audit()
    st.h[0, 1] -= 1
    st.audit()
    d3 = int(st.deg[3])
    st.deg[3] += 1
    with pytest.raises(InternalInvariantError,
                       match=rf"degree vector drifted at n=12: first "
                             rf"difference at vertex 3, tracked {d3 + 1} vs "
                             rf"recount {d3}$"):
        st.audit()


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
