import hashlib
import pickle
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from tourprof import rng
from tourprof.core import (BlowupSpec, DataFormatError, MixSpec, Tournament,
                           TournamentError, _upper_code, blowup,
                           canonical_code, cyclic, flip_perturb, from_code,
                           from_matrix, interval, mix, pair_index,
                           part_sizes, random_tournament, read_trn,
                           transitive, write_trn)
from tourprof.profiles import FlipState, profile3, profile4

from tourprof import core
from conftest import brute_profile3, complete_upper, row_by_row_draws


def trn_bytes(t, tmp_path):
    """The bytes write_trn writes for t."""
    path = tmp_path / "written.trn"
    write_trn(t, path)
    return path.read_bytes()


def parse_trn(data, tmp_path):
    """read_trn of a file holding `data`, bytes or a str's UTF-8."""
    path = tmp_path / "parsed.trn"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return read_trn(path)


def assert_tournament_valid(t):
    a = t.dense()
    n = t.n
    assert a.shape == (n, n)
    assert not a.diagonal().any()
    assert (a ^ a.T ^ np.eye(n, dtype=bool)).all()


def test_pair_index_is_lex_rank():
    n = 7
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            assert pair_index(u, v, n) == k
            k += 1


def test_transitive_orients_down_the_order():
    t = transitive(6)
    assert_tournament_valid(t)
    for u in range(6):
        for v in range(u + 1, 6):
            assert t.orient(u, v)
    assert profile3(t).c3_count == 0


def test_cyclic_3_is_the_directed_triangle():
    t = cyclic(3)
    assert t.orient(0, 1) and t.orient(1, 2) and t.orient(2, 0)
    assert profile3(t).c3_count == 1


def test_cyclic_rejects_even_or_tiny_n():
    with pytest.raises(TournamentError):
        cyclic(4)
    with pytest.raises(TournamentError):
        cyclic(1)


def test_cyclic_valid_and_regular():
    for n in (5, 9, 31):
        t = cyclic(n)
        assert_tournament_valid(t)
        assert (t.out_degrees() == (n - 1) // 2).all()


def test_interval_shape_and_validation():
    t = interval(10, 6)
    assert_tournament_valid(t)
    # u beats the next s vertices cyclically, when in its forward window
    assert t.orient(0, 6) and not t.orient(0, 7)
    with pytest.raises(TournamentError):
        interval(10, 4)      # needs 2s >= n
    with pytest.raises(TournamentError):
        interval(10, 11)     # needs s <= n


def test_from_matrix_names_first_bad_pair():
    with pytest.raises(TournamentError, match=r"\(0, 1\)"):
        from_matrix([[0, 1], [1, 0]])
    with pytest.raises(TournamentError):
        from_matrix([[1, 1], [0, 0]])
    with pytest.raises(TournamentError):
        from_matrix([[0, 1, 0], [0, 0, 1]])
    t = from_matrix([[0, 1], [0, 0]])
    assert t.orient(0, 1)


def test_subtournament_and_relabel():
    t = cyclic(7)
    s = t.subtournament([1, 3, 6])
    assert s.n == 3
    assert s.orient(0, 1) == t.orient(1, 3)
    perm = [3, 0, 1, 2, 6, 5, 4]
    r = t.relabel(perm)
    # new vertex a is old vertex perm[a]
    for u in range(7):
        for v in range(7):
            if u != v:
                assert r.orient(u, v) == t.orient(perm[u], perm[v])


def test_equality_and_hash():
    a, b = cyclic(5), cyclic(5)
    assert a == b and hash(a) == hash(b)
    assert a != transitive(5)


def test_dense_matrix_is_read_only():
    t = random_tournament(9, seed=2)
    with pytest.raises(ValueError):
        t.dense()[0, 1] = not t.dense()[0, 1]
    d = t.dense().copy()
    u = Tournament(d)
    d[0, 1], d[1, 0] = d[1, 0], d[0, 1]
    assert u == t and u.n == 9


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_pickle_round_trip_is_equal_and_read_only(protocol):
    t = random_tournament(9, seed=2)
    u = pickle.loads(pickle.dumps(t, protocol))
    assert u == t and u.n == 9 and hash(u) == hash(t)
    assert not u.dense().flags.writeable
    assert u.dense().dtype == bool


def test_out_degrees_are_summed_once_and_read_only(
        small_random_tournaments, small_named_tournaments):
    corpus = (small_random_tournaments + small_named_tournaments
              + [random_tournament(300, 4), random_tournament(2000, 5)])
    for t in corpus:
        d = t.out_degrees()
        want = t.dense().sum(axis=1)
        assert d.dtype == np.int64 and np.array_equal(d, want)
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0] += 1
        assert np.array_equal(t.out_degrees(), want)
    # FlipState moves degrees on its own copy
    t = random_tournament(40, 8)
    state = FlipState(t)
    pairs = np.random.default_rng(0).integers(0, 40, size=(200, 2))
    flips = [(int(u), int(v)) for u, v in pairs if u != v][:50]
    assert len(flips) == 50
    for u, v in flips:
        state.flip(u, v)
    assert not np.array_equal(state.deg, t.out_degrees())
    assert np.array_equal(t.out_degrees(), t.dense().sum(axis=1))


def test_random_tournament_deterministic_and_fair():
    a = random_tournament(64, seed=9)
    b = random_tournament(64, seed=9)
    assert a == b
    assert a != random_tournament(64, seed=10)
    assert_tournament_valid(a)
    t = random_tournament(4001, seed=1)
    mean = t.out_degrees().mean()
    assert abs(mean - 2000) < 15


def test_constructions_peak_below_six_n_squared_bytes():
    n = 2000
    base = random_tournament(n, 1)
    halves = cyclic(999), random_tournament(1001, 2)
    spec = BlowupSpec(host=transitive(4), weights=(0.3, 0.3, 0.3, 0.1))
    builds = {
        "transitive": lambda: transitive(n),
        "cyclic": lambda: cyclic(n - 1),
        "interval": lambda: interval(n, 1200),
        "random": lambda: random_tournament(n, 3),
        "blowup": lambda: blowup(spec, n, 4),
        "flip": lambda: flip_perturb(base, 0.3, 5),
        "mix": lambda: mix(*halves, MixSpec(0.4), 6),
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n * n, (name, peak / n**2)


@pytest.mark.parametrize("pairs", [2**16, 1, 500])
@pytest.mark.parametrize("n", [1, 2, 65, 130])
def test_constructions_equal_a_row_by_row_read_of_the_stream(
        monkeypatch, n, pairs):
    # blocks of rows read every pair at its own stream index: one block,
    # one row per block, and a last block that is partial or full
    monkeypatch.setattr(core, "_DRAW_PAIRS", pairs)
    vals = row_by_row_draws(7, n)
    half = vals.astype(np.float64) / 2.0**64

    def check(t, upper):
        assert t.dense().tobytes() == complete_upper(upper).tobytes()

    check(random_tournament(n, 7), vals < 2**63)
    base = random_tournament(n, 3)
    check(flip_perturb(base, 0.3, 7), base.dense() ^ (half < 0.3))
    hosts = [(transitive(1), (1.0,))]
    if n >= 3:
        hosts.append((cyclic(3), (0.5, 0.3, 0.2)))
    for host, weights in hosts:
        owner = np.repeat(np.arange(host.n), part_sizes(weights, n))
        upper = np.where(owner[:, None] == owner, vals < 2**63,
                         host.dense()[np.ix_(owner, owner)])
        check(blowup(BlowupSpec(host, weights), n, 7), upper)
    if n >= 2:
        n1 = n // 2
        t1, t2 = random_tournament(n1, 1), random_tournament(n - n1, 2)
        upper = np.zeros((n, n), dtype=bool)
        upper[:n1, :n1], upper[n1:, n1:] = t1.dense(), t2.dense()
        upper[:n1, n1:] = half[:n1, n1:] < 0.4
        check(mix(t1, t2, MixSpec(0.4), 7), upper)


def test_constructions_adopt_their_own_matrix(tmp_path):
    # the construction's scratch matrix becomes the tournament's: the peak
    # is that matrix plus a block of rows, not 3 n**2 as with a full-size
    # lower-triangle mask and a copy
    n = 2000
    tracemalloc.start()
    try:
        t = random_tournament(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n, peak / n**2
    assert not t.dense().flags.writeable
    path = tmp_path / "t.trn"
    write_trn(t, path)
    assert not read_trn(path).dense().flags.writeable


def test_part_sizes_largest_remainder():
    assert part_sizes((0.5, 0.5), 7) == [4, 3]
    assert part_sizes((1 / 3, 1 / 3, 1 / 3), 10) == [4, 3, 3]
    assert part_sizes((0.6, 0.4), 10) == [6, 4]
    assert sum(part_sizes((0.297, 0.297, 0.297, 0.109), 64)) == 64


def test_blowup_structure():
    spec = BlowupSpec(host=transitive(2), weights=(0.5, 0.5))
    t = blowup(spec, 10, seed=3)
    assert_tournament_valid(t)
    # cross-part pairs follow the host arc exactly
    for u in range(5):
        for v in range(5, 10):
            assert t.orient(u, v)
    assert blowup(spec, 10, seed=3) == t


def test_blowup_weight_validation():
    with pytest.raises(TournamentError):
        BlowupSpec(host=transitive(2), weights=(0.5, 0.6))
    with pytest.raises(TournamentError):
        BlowupSpec(host=transitive(2), weights=(0.5,))
    with pytest.raises(TournamentError):
        BlowupSpec(host=transitive(2), weights=(1.1, -0.1))
    for bad in ((float("nan"), 0.5), (float("inf"), 0.5),
                (0.5, float("-inf"))):
        with pytest.raises(TournamentError, match="weights must be finite"):
            BlowupSpec(host=transitive(2), weights=bad)


def test_blowup_c3_blowup_of_triangle():
    # balanced 3-part blow-up of the directed triangle: c3 -> 1/4
    spec = BlowupSpec(host=cyclic(3), weights=(1 / 3, 1 / 3, 1 / 3))
    t = blowup(spec, 600, seed=11)
    assert abs(profile3(t).c3 - 0.25) <= 0.005


def test_flip_perturb_extremes():
    t = cyclic(9)
    assert flip_perturb(t, 0.0, seed=4) == t
    rev = flip_perturb(t, 1.0, seed=4)
    for u in range(9):
        for v in range(9):
            if u != v:
                assert rev.orient(u, v) == t.orient(v, u)
    with pytest.raises(TournamentError):
        flip_perturb(t, 1.5, seed=0)


def test_flipped_cyclic_halves_c3():
    t = flip_perturb(cyclic(601), 0.5, seed=2)
    assert abs(profile3(t).c3 - 0.25) <= 0.005


def test_mix_keeps_blocks_and_flips_cross_arcs():
    t1, t2 = cyclic(5), transitive(4)
    m = mix(t1, t2, MixSpec(1.0), seed=1)
    assert m.n == 9
    assert m.subtournament(range(5)) == t1
    assert m.subtournament(range(5, 9)) == t2
    # cross pairs point block-1 -> block-2 with probability p
    for u in range(5):
        for v in range(5, 9):
            assert m.orient(u, v)
    m0 = mix(t1, t2, MixSpec(0.0), seed=1)
    for u in range(5):
        for v in range(5, 9):
            assert m0.orient(v, u)


def test_canonical_code_is_isomorphism_invariant():
    t = random_tournament(6, seed=5)
    base = canonical_code(t)
    for perm in list(permutations(range(6)))[:40]:
        assert canonical_code(t.relabel(list(perm))) == base
    assert from_code(base, 6).n == 6
    assert canonical_code(from_code(base, 6)) == base


def test_canonical_code_separates_nonisomorphic():
    assert canonical_code(transitive(4)) != canonical_code(cyclic(5).subtournament(range(4)))


def test_trn_round_trip(tmp_path):
    for t in (transitive(5), cyclic(7), random_tournament(33, seed=6)):
        assert parse_trn(trn_bytes(t, tmp_path), tmp_path) == t


def test_trn_file_io(tmp_path):
    t = random_tournament(17, seed=8)
    path = tmp_path / "t.trn"
    write_trn(t, path)
    assert read_trn(path) == t


def test_write_trn_holds_one_block_of_rows(tmp_path):
    # the rows go out through one buffer of about 2**16 bytes
    n = 2000
    t = random_tournament(n, seed=1)
    path = tmp_path / "t.trn"
    tracemalloc.start()
    try:
        write_trn(t, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * n * n, peak / n**2
    assert read_trn(path) == t


def test_read_trn_holds_the_matrix_and_one_block(tmp_path):
    # write_trn's layout is read a block of rows at a time into the n x n
    # matrix: no copy of the file's bytes, no line objects, no masks
    n = 2000
    t = random_tournament(n, seed=1)
    path = tmp_path / "t.trn"
    write_trn(t, path)
    tracemalloc.start()
    try:
        back = read_trn(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * n, peak / n**2
    assert back == t
    # the matrix is its own array, not a view that keeps the bytes alive
    assert back.dense().flags.owndata


@pytest.mark.parametrize("rows", [1, 3])
def test_trn_blocks_that_do_not_divide_n(monkeypatch, tmp_path, rows):
    # write_trn and read_trn take 1 or 3 rows at a time, so the last
    # block is partial or the only one.  A file in write_trn's layout is
    # read by blocks alone, never again by the line rules.
    path = tmp_path / "t.trn"

    def line_rules(data):
        raise AssertionError("re-read by the line rules")

    for n in (1, 2, 33, 2000):
        t = random_tournament(n, n)
        text = trn_bytes(t, tmp_path)           # in blocks of 2**16 bytes
        with monkeypatch.context() as m:
            m.setattr(core, "_PARSE_BYTES", rows * n)
            write_trn(t, path)
            assert path.read_bytes() == text
            m.setattr(core, "_parse_trn", line_rules)
            assert read_trn(path) == t
            path.write_bytes(text + b"note\n" * 5 + b"end")
            assert read_trn(path) == t
            if n > 1:                   # flip (n - 1, n - 2), in the last row
                last = bytearray(text)
                last[-3] ^= ord("0") ^ ord("1")
                path.write_bytes(bytes(last))
                with pytest.raises(DataFormatError) as info:
                    read_trn(path)
                assert str(info.value) == \
                    f"line {n}: pair ({n - 2}, {n - 1}) is " + \
                    ("unoriented" if t.orient(n - 1, n - 2)
                     else "oriented both ways")


def test_trn_files_cut_short_or_with_text_after_the_rows(monkeypatch,
                                                          tmp_path):
    # each message is the one the line rules gave when every file was
    # read whole; rows are read 3 at a time
    monkeypatch.setattr(core, "_PARSE_BYTES", 3 * 33)
    t = random_tournament(33, 33)
    text = trn_bytes(t, tmp_path)
    row = len(b"TRN v1 33\n") + 20 * 34          # the start of line 22
    bad = bytearray(text)
    bad[-34] = ord("x")
    path = tmp_path / "t.trn"
    for data, message in [
            (text[:row + 10], "line 23: expected 33 rows, got 21"),
            (text[:row], "line 22: expected 33 rows, got 20"),
            (text[:-5], "line 34: expected 33 chars, got 29"),
            (bytes(bad), "line 34: bad char 'x' at column 1"),
            (text + b"note\n" * 5 + b"\xff",
             "line 40: non-ASCII byte 0xff at column 1")]:
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as info:
            read_trn(path)
        assert str(info.value) == message
    for data in (text[:-1], text.replace(b"\n", b"\r\n", 1),
                 text + b"note\n" * 5 + b"end"):
        path.write_bytes(data)
        assert read_trn(path) == t


def test_trn_text_golden_hashes(tmp_path):
    # sha256 of write_trn's bytes, frozen from the character-by-character
    # writer
    golden = {
        "afa0e773dfc311267f7f965c3894570fcf98619ef09d4e9f72d9006f344dc144":
            random_tournament(37, seed=11),
        "d1e1a724f12f6fbad6fe873cad8af82f7f221993e55d5528bde923dca6b331de":
            cyclic(31),
        "11f6f24b1ae6c6785b34698508ef737e6e8137ba51b0c3b6ace2123a5b449d0c":
            interval(30, 17),
        "12fad2bd6bf286c42037fc920448dded338c21d8d8d73e8dc86ceecc7e83ccdb":
            blowup(BlowupSpec(host=cyclic(3), weights=(0.5, 0.3, 0.2)), 40,
                   seed=5),
        "e1c5e73a002091f0aee694ead60209889184b947dda05578681a86b7d6c2ea41":
            flip_perturb(random_tournament(211, 2), 0.3, 5),
        "63b5d9214e8a456b19235aba20583e17e4ff296eddd9447c22cb1e1a9d7d68da":
            mix(cyclic(7), random_tournament(50, 1), MixSpec(0.4), 4),
        # parts of 18, 15, 12, 14 and 1 vertices over a random host
        "fee73e1d82a72628c7cdbdd2cfd0613a83bd7a224af2a098fbdb332b7b112860":
            blowup(BlowupSpec(host=random_tournament(5, 3),
                              weights=(0.3, 0.25, 0.2, 0.24, 0.01)), 60,
                   seed=7),
        "32b6bb06b1b27f926a14305dd281d82e87b8434eaacb18e3ad3830b7b8945199":
            transitive(1),
        "5f0cf735bb08e6cfe6446dc38018875e9e5e26531bdbd095b85db523dc15ac69":
            transitive(2),
        "eb38ccc3c2be462613d1eece1a240fc8d91f7ea53aeb911cb61a9c7f4cea7c10":
            transitive(9),
        "44f37ae1243e10de303cd0b0f1334b11700870bc47e455a24831a66b45ad2d46":
            transitive(64),
        "5f11bcfec380c795454da0dfacb091be479a9098a3ebc85e550895bc7cb66d6e":
            interval(3, 2),
        "d87aa34d1728d19fc5e08dcffa3677f1bdcccd378828670d0422f9892b6be70f":
            interval(10, 10),
        "4166b131a8c6438e3cbb2cdaf739fbe255bdf80595033862a7b930ec74052fdf":
            interval(45, 23),
    }
    for digest, t in golden.items():
        text = trn_bytes(t, tmp_path)
        assert hashlib.sha256(text).hexdigest() == digest
        assert parse_trn(text, tmp_path) == t


def test_from_code_round_trips_every_code():
    for n in range(1, 6):
        for code in range(2 ** (n * (n - 1) // 2)):
            t = from_code(code, n)
            assert_tournament_valid(t)
            assert _upper_code(t.dense(), range(n)) == code


def _top_bit_zero(seed, u, v, n):
    return rng.value(seed, pair_index(u, v, n)) >> 63 == 0


def _below(seed, u, v, n, p):
    return rng.value(seed, pair_index(u, v, n)) / 2**64 < p


def test_constructions_follow_the_seed_contract_pair_by_pair():
    # each stream-driven pair (u, v), u < v, reads stream value
    # pair_index(u, v, n) of its seed, whatever the fill order
    n, seed = 13, 21
    t = random_tournament(n, seed)
    base = cyclic(n)
    flipped = flip_perturb(base, 0.3, seed)
    host = cyclic(3)
    blown = blowup(BlowupSpec(host=host, weights=(0.5, 0.4, 0.1)), n, seed)
    owner = np.repeat(np.arange(3), part_sizes((0.5, 0.4, 0.1), n))
    for u in range(n):
        for v in range(u + 1, n):
            assert t.orient(u, v) == _top_bit_zero(seed, u, v, n)
            assert (flipped.orient(u, v) != base.orient(u, v)) \
                == _below(seed, u, v, n, 0.3)
            a, b = owner[u], owner[v]
            assert blown.orient(u, v) == (_top_bit_zero(seed, u, v, n)
                                          if a == b else host.orient(a, b))
    t1, t2 = transitive(4), random_tournament(6, 2)
    m = mix(t1, t2, MixSpec(0.6), seed)
    assert m.subtournament(range(4)) == t1
    assert m.subtournament(range(4, 10)) == t2
    for u in range(4):
        for v in range(4, 10):
            assert m.orient(u, v) == _below(seed, u, v, 10, 0.6)


def test_trn_accepts_crlf_blanks_and_trailing_lines(tmp_path):
    def parse(text):
        return parse_trn(text, tmp_path)
    t = parse("TRN v1 3\r\n -11 \r\n0-1\t\r\n00-\r\ntrailer\r\n")
    assert t == transitive(3)
    assert parse("TRN v1 3\n-11\n0-1\n00-") == transitive(3)
    assert parse("TRN v1 3\r-11\r0-1\r00-\r") == transitive(3)
    # near write_trn's layout but not in it: parsed by the line rules
    for text in ("TRN v1 3\r\n-11\n0-1\n00-\n", "TRN v1 3\n-11\n0-1\n00-\r",
                 "TRN v1 3 \n-11\n0-1\n00-\nxx", "TRN v1 3\n-11 \n0-1\n00-\n",
                 "TRN v1 3\n-11\n0-1\n00-\n\n"):
        assert parse(text) == transitive(3), text


@pytest.mark.parametrize("text,message", [
    ("", "line 1: empty TRN input"),
    ("\n", "line 1: expected 'TRN v1 <n>', got ''"),
    ("TRN v2 3\n", "line 1: expected 'TRN v1 <n>', got 'TRN v2 3'"),
    ("TRN v1 x\n", "line 1: bad vertex count 'x'"),
    ("TRN v1 0\n", "line 1: vertex count must be >= 1"),
    ("TRN v1 3\n-10\n", "line 3: expected 3 rows, got 1"),
    ("TRN v1 3\n-1\n0-1\n00-\n", "line 2: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n0-1\n00-1\n", "line 4: expected 3 chars, got 4"),
    ("TRN v1 3\n011\n0-1\n00-\n", "line 2: diagonal must be '-'"),
    ("TRN v1 3\n-1x\n0-1\n00-\n", "line 2: bad char 'x' at column 3"),
    ("TRN v1 3\n-1\u00e9\n0-1\n00-\n",
     "line 2: non-ASCII byte 0xc3 at column 3"),
    # non-ASCII text is reported first, even in ignored trailing lines
    ("TRN v2 3\n-1\u00e9\n", "line 2: non-ASCII byte 0xc3 at column 3"),
    ("TRN v1 3\n-11\n0-1\n00-\nnote \u00e9\n",
     "line 5: non-ASCII byte 0xc3 at column 6"),
    # only \n, \r\n and \r end a line: this row is 4 chars long
    ("TRN v1 3\n-1\f1\n0-1\n00-\n", "line 2: expected 3 chars, got 4"),
    # n is checked against the limit before any row is read
    ("TRN v1 32769\n",
     "line 1: vertex count 32769 is over the limit of 32768"),
    ("TRN v1 32768\n", "line 2: expected 32768 rows, got 0"),
    # the first error in row-major order wins over a later row's
    ("TRN v1 3\n-1x\n0-\n00-\n", "line 2: bad char 'x' at column 3"),
    ("TRN v1 3\n-1\n0x1\n00-\n", "line 2: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n0-\n0x-\n", "line 3: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n0-1\n01-\n", "line 3: pair (1, 2) is oriented both ways"),
    ("TRN v1 3\n-11\n1-1\n01-\n", "line 2: pair (0, 1) is oriented both ways"),
    ("TRN v1 3\n-01\n0-0\n01-\n", "line 2: pair (0, 1) is unoriented"),
    # rows of write_trn's length that fail a check are re-read line by
    # line, so each gives the message of the line rules
    ("TRN v1 3\n-11\n0-1\n0x-\n", "line 4: bad char 'x' at column 2"),
    ("TRN v1 3\n-11\n0-1\n001\n", "line 4: diagonal must be '-'"),
    ("TRN v1 2\n-1\n1-\n", "line 2: pair (0, 1) is oriented both ways"),
    ("TRN v1 3\n-11\n0-0\n00-\n", "line 3: pair (1, 2) is unoriented"),
    ("TRN v1 3\n-\r1\n0-1\n00-\n", "line 2: expected 3 chars, got 1"),
    ("TRN v1 3\n-11\n0\r1\n00-\n", "line 3: expected 3 chars, got 1"),
    ("TRN v1 3\n-11\n0-1\n00\r\n", "line 4: expected 3 chars, got 2"),
    # write_trn's size, but a char, not \n, ends each row; a lone \r
    # ends the header line, so the first row is the text after it
    ("TRN v1 2\n-1x0-x", "line 3: expected 2 rows, got 1"),
    ("TRN v1 2\r-1\n-0\n1-\n", "line 3: bad char '-' at column 1"),
    # a leading blank is stripped, leaving a row one char short
    ("TRN v1 3\n -1\n0-1\n00-\n", "line 2: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n 0-\n00-\n", "line 3: expected 3 chars, got 2"),
    ("TRN v1 3\n\n-11\n0-1\n00-\n", "line 2: expected 3 chars, got 0"),
    ("TRN v1 1\nx\n", "line 2: diagonal must be '-'"),
])
def test_trn_error_messages(text, message, tmp_path):
    # each case is a file holding the text's UTF-8 bytes
    with pytest.raises(DataFormatError) as info:
        parse_trn(text, tmp_path)
    assert str(info.value) == message


@pytest.mark.parametrize("block", [1, 120, 2**16])
def test_trn_first_error_across_row_blocks(monkeypatch, tmp_path, block):
    # rows are checked 1, 3 or all 40 at a time: the first error in
    # row-major order wins, and any bad char before any pair error,
    # in write_trn's layout and with CRLF line ends alike
    monkeypatch.setattr(core, "_PARSE_BYTES", block)
    n = 40
    t = random_tournament(n, 9)
    rows = trn_bytes(t, tmp_path).splitlines()[1:]

    def parse(faults, newline):
        body = [bytearray(row) for row in rows]
        for i, j, char in faults:
            body[i][j] = ord(char)
        text = newline.join([b"TRN v1 40"] + body) + newline
        with pytest.raises(DataFormatError) as info:
            parse_trn(text, tmp_path)
        return str(info.value)

    def flipped(i, j):
        return (i, j, "0" if t.orient(i, j) else "1")

    cases = [
        ([(5, 3, "x")], "line 7: bad char 'x' at column 4"),
        ([(3, 3, "0")], "line 5: diagonal must be '-'"),
        ([(39, 39, "1")], "line 41: diagonal must be '-'"),
        ([(30, 5, "x"), (10, 35, "2")], "line 12: bad char '2' at column 36"),
        ([(6, 20, "x"), (6, 2, "y")], "line 8: bad char 'y' at column 3"),
        ([flipped(2, 30), (31, 0, "x")], "line 33: bad char 'x' at column 1"),
        ([flipped(2, 30), flipped(3, 1)],
         "line 3: pair (1, 3) is " + ("oriented both ways" if t.orient(1, 3)
                                      else "unoriented")),
    ]
    for u, v in ((2, 30), (5, 6), (38, 39)):
        cases.append(([flipped(u, v)], f"line {u + 2}: pair ({u}, {v}) is "
                      + ("unoriented" if t.orient(u, v)
                         else "oriented both ways")))
        cases.append(([flipped(v, u)], f"line {u + 2}: pair ({u}, {v}) is "
                      + ("oriented both ways" if t.orient(u, v)
                         else "unoriented")))
    for newline in (b"\n", b"\r\n"):
        assert parse_trn(newline.join([b"TRN v1 40"] + rows) + newline,
                         tmp_path) == t
        for faults, message in cases:
            assert parse(faults, newline) == message, faults


def test_trn_pair_error_is_first_in_row_major_order_across_blocks(
        tmp_path):
    # n = 600 spans 256 x 256 blocks: (200, 210) lies in the first one,
    # (5, 550) in the third block of the same block-row, yet row 5 comes
    # first; each pair broken alone is found wherever its block is
    n = 600
    t = random_tournament(n, 3)
    rows = trn_bytes(t, tmp_path).splitlines()[1:]

    def broken(pairs):
        body = [bytearray(row) for row in rows]
        for u, v in pairs:
            body[v][u] = ord("1" if t.orient(u, v) else "0")
        return body

    def errors(pairs):
        # in write_trn's layout, read by blocks, and with CRLF line ends,
        # parsed by the line rules
        body = broken(pairs)
        got = []
        for newline in (b"\n", b"\r\n"):
            text = newline.join([b"TRN v1 600"] + body) + newline
            with pytest.raises(DataFormatError) as info:
                parse_trn(text, tmp_path)
            got.append(str(info.value))
        return got

    def message(u, v):
        return (f"line {u + 2}: pair ({u}, {v}) is "
                + ("oriented both ways" if t.orient(u, v) else "unoriented"))

    assert errors([(5, 550), (200, 210)]) == [message(5, 550)] * 2
    for u, v in ((0, 1), (255, 256), (300, 599), (598, 599)):
        assert errors([(u, v)]) == [message(u, v)] * 2


def test_read_trn_non_ascii_names_the_line(tmp_path):
    path = tmp_path / "bad.trn"
    path.write_bytes(b"TRN v1 3\r\n-11\r\n0\xc3\xa91\r\n00-\r\n")
    with pytest.raises(DataFormatError) as info:
        read_trn(path)
    assert str(info.value) == "line 3: non-ASCII byte 0xc3 at column 2"


@pytest.mark.parametrize("text,lineno", [
    ("TRN v2 3\n-11\n0-1\n00-\n", 1),
    ("TRN v1 3\n-11\nX-1\n00-\n", 3),
    ("TRN v1 3\n-11\n0-1\n01-\n", 3),
    ("TRN v1 3\n-11\n0-1\n", 4),
    ("TRN v1 3\n011\n0-1\n00-\n", 2),
])
def test_trn_errors_name_the_line(text, lineno, tmp_path):
    with pytest.raises(DataFormatError, match=f"line {lineno}"):
        parse_trn(text, tmp_path)


def test_profiles_of_named_small_constructions(small_random_tournaments):
    for t in [transitive(7), cyclic(7), interval(8, 5)] + small_random_tournaments[:6]:
        assert brute_profile3(t)[1] == profile3(t).c3_count


def test_profile4_spec_point_cyclic5():
    p = profile4(cyclic(5))
    assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == (0, 5, 0, 0)
