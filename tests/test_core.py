import hashlib
from itertools import permutations

import numpy as np
import pytest

from tourprof.core import (BlowupSpec, DataFormatError, MixSpec, Tournament,
                           TournamentError, blowup, canonical_code, cyclic,
                           flip_perturb, from_code, from_matrix, from_trn_text,
                           interval, mix, pair_index, part_sizes,
                           random_tournament, read_trn, to_trn_text,
                           transitive, write_trn)
from tourprof.profiles import profile3, profile4

from conftest import brute_profile3


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


def test_random_tournament_deterministic_and_fair():
    a = random_tournament(64, seed=9)
    b = random_tournament(64, seed=9)
    assert a == b
    assert a != random_tournament(64, seed=10)
    assert_tournament_valid(a)
    t = random_tournament(4001, seed=1)
    mean = t.out_degrees().mean()
    assert abs(mean - 2000) < 15


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
    m = mix(t1, t2, MixSpec(alpha=5 / 9, p=1.0), seed=1)
    assert m.n == 9
    assert m.subtournament(range(5)) == t1
    assert m.subtournament(range(5, 9)) == t2
    # cross pairs point block-1 -> block-2 with probability p
    for u in range(5):
        for v in range(5, 9):
            assert m.orient(u, v)
    m0 = mix(t1, t2, MixSpec(alpha=5 / 9, p=0.0), seed=1)
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


def test_trn_round_trip():
    for t in (transitive(5), cyclic(7), random_tournament(33, seed=6)):
        back = from_trn_text(to_trn_text(t))
        assert back == t


def test_trn_file_io(tmp_path):
    t = random_tournament(17, seed=8)
    path = tmp_path / "t.trn"
    write_trn(t, path)
    assert read_trn(path) == t


def test_trn_text_golden_hashes():
    # sha256 of to_trn_text, frozen from the character-by-character writer
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
    }
    for digest, t in golden.items():
        text = to_trn_text(t)
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        assert from_trn_text(text) == t


def test_trn_accepts_crlf_blanks_and_trailing_lines():
    t = from_trn_text("TRN v1 3\r\n -11 \r\n0-1\t\r\n00-\r\ntrailer\r\n")
    assert t == transitive(3)
    assert from_trn_text("TRN v1 3\n-11\n0-1\n00-") == transitive(3)


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
     "line 2: bad char '\u00e9' at column 3"),
    # the first error in row-major order wins over a later row's
    ("TRN v1 3\n-1x\n0-\n00-\n", "line 2: bad char 'x' at column 3"),
    ("TRN v1 3\n-1\n0x1\n00-\n", "line 2: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n0-\n0x-\n", "line 3: expected 3 chars, got 2"),
    ("TRN v1 3\n-11\n0-1\n01-\n", "line 3: pair (1, 2) is oriented both ways"),
    ("TRN v1 3\n-11\n1-1\n01-\n", "line 2: pair (0, 1) is oriented both ways"),
    ("TRN v1 3\n-01\n0-0\n01-\n", "line 2: pair (0, 1) is unoriented"),
])
def test_trn_error_messages(text, message):
    with pytest.raises(DataFormatError) as info:
        from_trn_text(text)
    assert str(info.value) == message


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
def test_trn_errors_name_the_line(text, lineno):
    with pytest.raises(DataFormatError, match=f"line {lineno}"):
        from_trn_text(text)


def test_profiles_of_named_small_constructions(small_random_tournaments):
    for t in [transitive(7), cyclic(7), interval(8, 5)] + small_random_tournaments[:6]:
        assert brute_profile3(t)[1] == profile3(t).c3_count


def test_profile4_spec_point_cyclic5():
    p = profile4(cyclic(5))
    assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == (0, 5, 0, 0)
