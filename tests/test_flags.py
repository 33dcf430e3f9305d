import hashlib
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from tourprof.core import (BlowupSpec, DataFormatError, _upper_code, blowup,
                           canonical_code, cyclic, from_code,
                           random_tournament, transitive)
from tourprof.flags import (Certificate, _canonical_map, certificate_from_text,
                            certificate_to_text, enumerate_flags,
                            enumerate_types, flag_index_by_name,
                            lemma1_certificate, moment_consistency_check,
                            product_table, read_certificate, read_table,
                            search_certificate, subtype_density,
                            table_from_text, table_to_text,
                            verify_certificate, write_certificate,
                            write_table)
from tourprof.profiles import classify4, profile3, profile4


def test_type_counts_by_order():
    for k, expect in ((1, 1), (2, 1), (3, 2), (4, 4), (5, 12), (6, 56)):
        types = enumerate_types(k)
        assert len(types) == expect
        assert [t.index for t in types] == list(range(expect))
        assert sorted(t.code for t in types) == [t.code for t in types]
    with pytest.raises(ValueError):
        enumerate_types(7)


def test_canonical_map_matches_brute_force():
    for k in range(1, 6):
        canon = _canonical_map(k)
        assert len(canon) == 1 << (k * (k - 1) // 2)
        for code, c in enumerate(canon):
            assert c == canonical_code(from_code(code, k))


def test_flag_canonical_map_matches_brute_force():
    for k in (3, 4):
        canon = _canonical_map(k, 2)
        for code, c in enumerate(canon):
            dense = from_code(code, k).dense().astype(np.uint8)
            assert c == min(_upper_code(dense, (0, 1) + rest)
                            for rest in permutations(range(2, k)))


def test_types_are_canonical_representatives():
    from tourprof.core import canonical_code
    for ty in enumerate_types(5):
        assert canonical_code(ty.rep) == ty.code


def test_flag_counts_and_names():
    assert len(enumerate_flags(2)) == 1
    flags3 = enumerate_flags(3)
    assert len(flags3) == 4
    assert sorted(f.name for f in flags3) == ["cyc", "dom_in", "dom_out", "thru"]
    assert len(enumerate_flags(4)) == 16
    with pytest.raises(ValueError):
        enumerate_flags(5)
    # every flag rep carries the labeled arc 0 -> 1
    for k in (2, 3, 4):
        for f in enumerate_flags(k):
            assert f.rep.orient(0, 1)


def test_flag3_patterns_match_names():
    for f in enumerate_flags(3):
        o0, o1 = f.rep.orient(0, 2), f.rep.orient(1, 2)
        expect = {(False, True): "cyc", (True, False): "thru",
                  (True, True): "dom_out", (False, False): "dom_in"}
        assert f.name == expect[(o0, o1)]


def _type_by_name(order, name):
    for ty in enumerate_types(order):
        if order == 4 and classify4(ty.rep) == name:
            return ty
        if order == 3:
            is_c3 = profile3(ty.rep).c3_count == 1
            if (name == "C3") == is_c3:
                return ty
    raise LookupError(name)


def test_subtype_density_spec_points():
    c3 = _type_by_name(3, "C3")
    t3 = _type_by_name(3, "T3")
    c4 = _type_by_name(4, "C4")
    t4 = _type_by_name(4, "T4")
    assert subtype_density(c3, c4) == Fraction(1, 2)
    assert subtype_density(c3, t4) == 0
    assert subtype_density(c4, c4) == 1
    assert subtype_density(t3, c4) == Fraction(1, 2)
    # against a plain tournament too
    assert subtype_density(c3, cyclic(5)) == Fraction(5, 10)


def test_product_table_k3_values():
    tab = product_table(3)
    assert tab.total == 12 and len(tab.types) == 4
    ix = flag_index_by_name(3, "cyc")
    iy = flag_index_by_name(3, "thru")
    by_name = {classify4(h.rep): h.code for h in tab.types}
    assert tab.tables[by_name["T4"]][iy][iy] == Fraction(1, 6)
    assert tab.tables[by_name["C4"]][ix][ix] == Fraction(1, 6)
    for h in tab.types:
        mat = tab.tables[h.code]
        assert sum(sum(row) for row in mat) == 1
        for i in range(4):
            for j in range(4):
                assert mat[i][j] == mat[j][i]
                assert 0 <= mat[i][j] <= 1


@pytest.mark.parametrize("k,digest", [
    (3, "308bf1a232544191ebb87f9dd02099b65dd0fa491d643f92865824e3fd09073a"),
    (4, "d0baba2635a8d7491d7c0e0b58183d3e2cc6b7e02adc077897daf6b78cb015bb"),
])
def test_product_table_golden_text(k, digest):
    text = table_to_text(product_table(k))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_product_table_k4_normalization():
    tab = product_table(4)
    assert tab.total == 90 and len(tab.types) == 56
    for h in tab.types:
        mat = tab.tables[h.code]
        assert sum(sum(row) for row in mat) == 1


def test_trivial_certificate_is_valid():
    cert = Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((4, 4)))
    rep = verify_certificate(cert)
    assert rep.valid and rep.min_kappa >= 0


def test_negative_eigenvalue_rejected():
    q = np.zeros((4, 4))
    q[0, 0] = -0.1
    cert = Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0, q=q)
    rep = verify_certificate(cert)
    assert not rep.psd_ok and not rep.valid


def test_certificate_dimension_mismatch():
    with pytest.raises(ValueError):
        Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((5, 5)))
    cert = Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        verify_certificate(cert, k=4)


def test_lemma1_certificate_grid():
    for g in np.linspace(0.0025, 0.25, 100):
        cert = lemma1_certificate(float(g))
        assert abs(cert.lam - 18 * g * g / (1 + 8 * g)) <= 1e-9
    for g in (0.05, 1 / 16, 0.1, 0.25):
        rep = verify_certificate(lemma1_certificate(g))
        assert rep.valid
        assert abs(rep.min_kappa) <= 1e-9
    with pytest.raises(ValueError):
        lemma1_certificate(0.0)
    with pytest.raises(ValueError):
        lemma1_certificate(0.3)


def test_lemma1_finite_slack_against_construction():
    # valid certificate vs a near-gamma corpus tournament: measured c4
    # must respect the certified bound up to finite-n slack
    cert = lemma1_certificate(1 / 16)
    t = blowup(BlowupSpec(transitive(2), (0.5, 0.5)), 600, seed=7)
    c3 = profile3(t).c3
    assert abs(c3 - cert.gamma) <= 0.002
    assert profile4(t).c4 >= cert.lam - 0.02


def test_search_certificate_not_worse_than_lemma1():
    for g in (1 / 16, 0.25):
        cert = search_certificate(g, k=3)
        assert verify_certificate(cert).valid
        assert cert.lam >= 18 * g * g / (1 + 8 * g) - 1e-4


def test_search_certificate_k4_valid_and_deterministic():
    a = search_certificate(0.1, k=4)
    b = search_certificate(0.1, k=4)
    assert verify_certificate(a).valid
    assert a.lam == b.lam and (a.q == b.q).all()
    with pytest.raises(ValueError):
        search_certificate(0.1, k=5)


# sha256 of certificate_to_text(search_certificate(gamma, k)), recorded
# while a subgradient search still followed the two candidates; it never
# changed a byte, so removing it must not either.
CERT_SHA256 = {
    (3, 0.03): "a9dd3dca264349b8a916a349be2fc190bfecf673cf600383f3a261be1dadc15a",
    (4, 0.03): "e12f4fbc37c3f5c409cfec4ded364a062778d98edbc23ca2a192d7739c33ebe8",
    (3, 1 / 16): "3a30afaf5a5af24d4dc02b585699427f43b4284abbd53ccc29cda75f40032e50",
    (4, 1 / 16): "79043b2abeb176adba1d19fcefd1841b575214f551d9a8efd4973bd143e5d787",
    (3, 0.1): "f29117a679e38adf2cd313560b4a05a9dfe7e16c5fcbfcd5a6b15460a22b99ce",
    (4, 0.1): "097d114432b5371dd413f844f27714c37e1178179a4f08754f9eebd2d813fbb9",
    (3, 1 / 4): "12d5e3f0953808c59b04c16101c57e9f6f548f258a899fcf1326dfb093792d84",
    (4, 1 / 4): "6cfac512bb589ceeee299ebc907e908884d81162f35516e45be030e242c43b2b",
}


@pytest.mark.parametrize("k,gamma", sorted(CERT_SHA256))
def test_search_certificate_golden_text(k, gamma):
    text = certificate_to_text(search_certificate(gamma, k))
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[k, gamma]


def test_moment_consistency_random_small():
    for seed in range(8):
        t = random_tournament(6 + seed % 7, seed=seed)
        rep = moment_consistency_check(t)
        assert rep.all_ok
        assert len(rep.entries) == 16


def test_moment_consistency_transitive_x_rows_zero():
    rep = moment_consistency_check(transitive(8))
    ix = flag_index_by_name(3, "cyc")
    for j in range(4):
        assert rep.entries[(ix, j)] == (0, 0)
        assert rep.entries[(j, ix)] == (0, 0)
    with pytest.raises(ValueError):
        moment_consistency_check(transitive(5))
    with pytest.raises(ValueError):
        moment_consistency_check(transitive(8), k=4)


def test_flagcert_round_trip(tmp_path):
    cert = lemma1_certificate(0.07)
    path = tmp_path / "c.txt"
    write_certificate(cert, path)
    back = read_certificate(path)
    assert (back.gamma, back.mu, back.lam) == (cert.gamma, cert.mu, cert.lam)
    assert (back.q == cert.q).all()
    assert verify_certificate(back).valid


@pytest.mark.parametrize("text,frag", [
    ("", "line 1"),
    ("FLAGCERT v2 3 4\n", "line 1"),
    ("FLAGCERT v1 3 5\n", "line 1"),
    ("FLAGCERT v1 3 4\n0.1\n0.2\n", "line 4"),
    ("FLAGCERT v1 3 4\n0.1\nxx\n0.0\n" + "0 0 0 0\n" * 4, "line 3"),
    ("FLAGCERT v1 3 4\n0.1\n0.0\n0.0\n0 0 0\n" + "0 0 0 0\n" * 3, "line 5"),
    ("FLAGCERT v1 3 4\n0.1\n0.0\n-inf\n" + "0 0 0 0\n" * 4,
     "line 4: lambda must be finite"),
    ("FLAGCERT v1 3 4\n0.1\n0.0\n0.0\nnan 0 0 0\n" + "0 0 0 0\n" * 3,
     "line 5: matrix entries must be finite"),
])
def test_flagcert_errors(text, frag):
    with pytest.raises(DataFormatError, match=frag):
        certificate_from_text(text)


def test_flagtab_round_trip(tmp_path):
    for k in (3, 4):
        tab = product_table(k)
        path = tmp_path / f"tab{k}.txt"
        write_table(tab, path)
        back = read_table(path)
        assert back.tables == tab.tables
        assert back.total == tab.total
        assert [h.code for h in back.types] == [h.code for h in tab.types]


def test_flagtab_errors():
    with pytest.raises(DataFormatError, match="line 1"):
        table_from_text("FLAGTAB v1 3 4\n")
    good = table_to_text(product_table(3))
    broken = good.replace("type", "typo", 1)
    with pytest.raises(DataFormatError):
        table_from_text(broken)
    lines = good.splitlines()
    with pytest.raises(DataFormatError, match="line 4: truncated table"):
        table_from_text("\n".join(lines[:3]) + "\n")
    lines[1] = "type x"
    with pytest.raises(DataFormatError, match="line 2: bad type code 'x'"):
        table_from_text("\n".join(lines) + "\n")
