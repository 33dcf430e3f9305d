import hashlib
import math
import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from tourprof import certificate
from tourprof.cli import main
from tourprof.core import (BlowupSpec, DataFormatError, _upper_code, blowup,
                           canonical_code, cyclic, from_code,
                           random_tournament, transitive)
from tourprof.certificate import (Certificate, certificate_from_text,
                                  certificate_to_text, lemma1_certificate,
                                  read_certificate, search_certificate,
                                  verify_certificate, write_certificate)
from tourprof.flags import (_canonical_map, enumerate_flags, enumerate_types,
                            moment_consistency_check, product_table,
                            subtype_density, table_to_text)
from tourprof.profiles import classify4, profile3, profile4

from conftest import brute_product_counts


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
    ix, iy = (next(f.index for f in tab.flags if f.name == name)
              for name in ("cyc", "thru"))
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


@pytest.mark.parametrize("k", [3, 4])
def test_product_table_counts_match_brute_force(k):
    tab = product_table(k)
    assert tab.counts.dtype == np.int64
    assert (tab.counts == brute_product_counts(k)).all()
    with pytest.raises(ValueError):
        tab.counts[0, 0, 0] = 1
    for h, mat in zip(tab.types, tab.counts.tolist()):
        assert tab.tables[h.code] == tuple(
            tuple(Fraction(c, tab.total) for c in row) for row in mat)


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


def test_raised_lambda_is_refused():
    # 5e-10 above what the certificate proves: its tightest kappa_H are
    # negative, though by less than the old float tolerance of 1e-9
    cert = search_certificate(0.1, k=4)
    assert verify_certificate(cert).valid
    rep = verify_certificate(cert.replace(lam=cert.lam + 5e-10))
    assert rep.psd_ok and not rep.valid
    assert -5e-10 < rep.min_kappa < -4e-10


@pytest.mark.parametrize("k", [3, 4])
def test_q_indefinite_beyond_the_shift_is_refused(k):
    # Q = -(e/f) J has the one nonzero eigenvalue -e and Q + 1e-13 I is
    # PSD only when e <= 1e-13; lambda = -1e-12 leaves every kappa_H
    # enough slack for the shift, so only the PSD proof decides
    f = len(enumerate_flags(k))
    for e, proved in ((1e-12, False), (1e-14, True)):
        cert = Certificate(k=k, gamma=0.1, mu=0.0, lam=-1e-12,
                           q=np.full((f, f), -e / f))
        rep = verify_certificate(cert)
        assert rep.min_kappa >= 1e-12
        assert rep.psd_ok is rep.valid is proved
        if proved:
            assert rep.delta == certificate.DELTA
        else:
            assert math.isnan(rep.delta)


def test_zero_q_proves_without_a_shift():
    for k in (3, 4):
        f = len(enumerate_flags(k))
        rep = verify_certificate(Certificate(k=k, gamma=0.1, mu=0.0, lam=0.0,
                                             q=np.zeros((f, f))))
        assert rep.valid and rep.delta == 0
        assert min(rep.kappas.values()) == 0 and rep.min_kappa == 0


@pytest.mark.parametrize("k", [3, 4])
def test_flags_search_certificates_are_proved(tmp_path, capsys, k):
    path = tmp_path / "c.cert"
    for i in range(1, 11):
        assert main(["flags", "search", "--k", str(k), "--gamma",
                     repr(i / 40), "--out", str(path)]) == 0
        rep = verify_certificate(read_certificate(path))
        assert rep.valid, i
        assert rep.min_kappa > 0
    capsys.readouterr()


def test_flag_data_file_is_rebuilt_byte_for_byte(tmp_path, capsys):
    path = tmp_path / "flagdata.json"
    assert main(["flags", "data", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == Path(certificate.DATA_FILE).read_bytes()


def test_flag_data_file_is_package_data():
    # stands in for building a wheel and looking for the file in it
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert Path(certificate.DATA_FILE).name in package_data["tourprof"]
    assert Path(certificate.DATA_FILE).parent == root / "src" / "tourprof"


def test_certificate_dimension_mismatch():
    with pytest.raises(ValueError):
        Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((5, 5)))


def test_certificate_k_is_an_int():
    # a float k was once kept as given and wrote 'FLAGCERT v1 3.0 4',
    # which read_certificate refuses
    for k in (3.0, 3.5, "3", None):
        with pytest.raises(ValueError, match="k must be an integer"):
            Certificate(k=k, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((4, 4)))
    for k in (True, 5, np.int64(2)):
        with pytest.raises(ValueError, match="k = 3 or 4"):
            Certificate(k=k, gamma=0.1, mu=0.0, lam=0.0, q=np.zeros((4, 4)))


def test_accepted_certificates_round_trip():
    # whatever the constructor accepts, FLAGCERT writes and reads back
    # to an equal certificate with the same text
    rng = np.random.default_rng(5)
    skew = rng.standard_normal((16, 16)) * 1e-3
    certs = [
        Certificate(k=np.int64(4), gamma=np.float64(0.1), mu=np.float32(0.5),
                    lam=0, q=skew),
        Certificate(k=np.int32(3), gamma=1 / 16, mu=-0.0, lam=-1e-12,
                    q=[[-0.0] * 4, [0.0] * 4, [1e-300] * 4, [5e-324] * 4]),
        Certificate(k=4, gamma=0.25, mu=1e300, lam=-1e300,
                    q=[tuple(range(16))] * 16),
        lemma1_certificate(0.07), search_certificate(0.03, 4),
    ]
    for cert in certs:
        assert type(cert.k) is int
        assert all(type(x) is float for x in
                   (cert.gamma, cert.mu, cert.lam, *sum(cert.q, ())))
        text = certificate_to_text(cert)
        back = certificate_from_text(text)
        assert back == cert and certificate_to_text(back) == text


def test_certificate_record():
    cert = lemma1_certificate(0.07)
    same = Certificate(cert.k, cert.gamma, cert.mu, cert.lam, cert.q)
    assert same == cert and hash(same) == hash(cert)
    assert same != cert.replace(lam=0.0) and cert != (cert.k, cert.gamma)
    # a named tuple: it also equals the plain tuple of its fields
    assert tuple(cert) == (cert.k, cert.gamma, cert.mu, cert.lam, cert.q)
    assert eval(repr(cert), {"Certificate": Certificate}) == cert
    assert pickle.loads(pickle.dumps(cert)) == cert
    with pytest.raises(AttributeError):
        cert.lam = 0.0
    with pytest.raises(AttributeError):
        del cert.q
    # replace() normalises as the constructor does, and knows the fields
    lower = cert.replace(lam=0, q=[[1.0, 2.0] + [0.0] * 2] + [[0.0] * 4] * 3)
    assert lower.lam == 0.0 and type(lower.lam) is float
    assert lower.q[0][1] == lower.q[1][0] == 1.0
    assert (lower.k, lower.gamma, lower.mu) == (cert.k, cert.gamma, cert.mu)
    with pytest.raises(TypeError):
        cert.replace(lambda_=0.0)
    # the verdict is a record too: it pickles and refuses assignment
    rep = verify_certificate(cert)
    back = pickle.loads(pickle.dumps(rep))
    assert type(back) is type(rep) and back == rep and back.valid
    with pytest.raises(AttributeError):
        rep.valid = False


def test_q_symmetrisation_overflow_is_a_data_error():
    # finite entries whose mean overflows: refused, not a float('inf')
    # left for the verifier to trip on
    big = ("FLAGCERT v1 3 4\n0.1\n0.0\n0.0\n1.7e308 1.7e308 0 0\n"
           "1.7e308 0 0 0\n" + "0 0 0 0\n" * 2)
    with pytest.raises(DataFormatError, match=r"lines 5-8: \(Q \+ Q\^T\)"):
        certificate_from_text(big)
    with pytest.raises(ValueError, match="overflows"):
        Certificate(k=3, gamma=0.1, mu=0.0, lam=0.0,
                    q=[[1e308, 1.7e308, 0, 0], [1.7e308, 0, 0, 0]]
                    + [[0] * 4] * 2)


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
    with pytest.raises(ValueError, match="gamma=1e-300"):
        lemma1_certificate(1e-300)


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
    assert a.lam == b.lam and a.q == b.q
    with pytest.raises(ValueError):
        search_certificate(0.1, k=5)


@pytest.mark.parametrize("k", [3, 4])
def test_search_certificate_proves_only_its_result(monkeypatch, k):
    # the candidates are priced by their kappa_H alone: one verification,
    # of the returned certificate, runs the PSD proof
    proved = []
    real = certificate.verify_certificate
    monkeypatch.setattr(certificate, "verify_certificate",
                        lambda cert: proved.append(cert) or real(cert))
    cert = search_certificate(0.1, k)
    assert proved == [cert]


@lru_cache(maxsize=None)
def _type_counts(k):
    """The product table of order k and, per type, its C3 and C4 counts
    and the binomials that make them densities, from the numpy code."""
    table = product_table(k)
    order = table.type_order
    return (table,
            np.array([profile3(h.rep).c3_count for h in table.types]),
            np.array([profile4(h.rep).c4_count for h in table.types]),
            math.comb(order, 3), math.comb(order, 4))


def _float_search(gamma, k):
    """(mu, Q, lambda) as search_certificate chose them in numpy floats
    before it priced its candidates exactly: the Lemma 1 v lifted from
    the flags' matrices, and the float min_H kappa_H of each candidate."""
    t = (1.0 + 8.0 * gamma) / (3.0 * gamma)
    mu1 = 12.0 / t - 16.0 / (t * t)
    table, c3, c4, c3_den, c4_den = _type_counts(k)
    coeff = np.array([[-1.0, t - 3.0], [1.0, -1.0]])
    reps = np.stack([f.rep.dense() for f in table.flags])
    v = coeff[reps[:, 0, 2:].astype(np.intp),
              reps[:, 1, 2:].astype(np.intp)].mean(axis=1)
    d_c3, d_c4 = c3 / c3_den, c4 / c4_den
    p = table.counts / table.total

    def min_kappa(q, mu):
        return (d_c4 - mu * (d_c3 - gamma) - (p * q).sum(axis=(1, 2))).min()

    f = len(table.flags)
    candidates = [(np.zeros((f, f)), 0.0),
                  ((6.0 / (t * t)) * np.outer(v, v), mu1)]
    q, mu = max(candidates, key=lambda c: min_kappa(*c))
    return mu, q, float(min_kappa(q, mu)) - certificate.LAMBDA_MARGIN


@pytest.mark.parametrize("k", [3, 4])
def test_search_certificate_matches_the_float_reference(k):
    # the exact pricing picks the same candidate: Q and mu agree bit for
    # bit (signed zeros included) and lambda only in its last bits
    for i in range(1, 101):
        gamma = i / 400
        cert = search_certificate(gamma, k)
        mu, q, lam = _float_search(gamma, k)
        assert float(mu).hex() == cert.mu.hex(), i
        assert [x.hex() for x in q.ravel().tolist()] == \
            [x.hex() for row in cert.q for x in row], i
        assert abs(cert.lam - lam) <= 1e-15, i
        assert verify_certificate(cert).valid, i


def _exact_kappas(cert):
    """Each type code's kappa_H for cert as a Fraction, by the formula of
    the float pricer above, from the numpy product table and profiles."""
    table, c3, c4, c3_den, c4_den = _type_counts(cert.k)
    gamma, mu, lam = map(Fraction, (cert.gamma, cert.mu, cert.lam))
    values, where = np.unique(np.array(cert.q).ravel(), return_inverse=True)
    # weight[h, u]: the count of type h on the entries of Q equal to values[u]
    weight = (table.counts.reshape(len(table.types), -1)
              @ np.eye(len(values), dtype=np.int64)[where.ravel()])
    values = [Fraction(x) for x in values.tolist()]
    kappas = {}
    for h, a, b, w in zip(table.types, c3.tolist(), c4.tolist(),
                          weight.tolist()):
        pq = sum(x * c for x, c in zip(values, w) if c) / table.total
        kappas[h.code] = (Fraction(b, c4_den) - mu * (Fraction(a, c3_den)
                                                      - gamma) - pq - lam)
    return kappas


@pytest.mark.parametrize("k", [3, 4])
def test_verifier_kappas_are_exact(k):
    # the integer numerators over kappa_den are the kappa_H of the numpy
    # product table, and min_kappa is the least of them rounded once
    for i in range(1, 101):
        cert = search_certificate(i / 400, k)
        rep, exact = verify_certificate(cert), _exact_kappas(cert)
        assert type(rep.kappa_den) is int and rep.kappa_den > 0
        assert {code: Fraction(num, rep.kappa_den)
                for code, num in rep.kappas.items()} == exact, i
        assert rep.min_kappa == float(min(exact.values())), i


@pytest.mark.parametrize("gamma", [1 / 16, 1 / 4])
def test_dyadic_t_proves_without_a_shift(gamma):
    # t = (1 + 8 gamma) / (3 gamma) is 8 at 1/16 and 4 at 1/4, so Q =
    # (6/t^2) v v^T is exact in floats and PSD as it stands
    assert verify_certificate(lemma1_certificate(gamma)).delta == 0
    for k in (3, 4):
        rep = verify_certificate(search_certificate(gamma, k))
        assert rep.valid and rep.delta == 0, k


# sha256 of certificate_to_text(search_certificate(gamma, k)).  The
# k = 3 bytes date from when a subgradient search still followed the two
# candidates.  The k = 4 bytes were recorded when the candidates came to
# be priced by the exact kappa_H instead of in floating point: Q and mu
# kept every bit, and lambda moved in its last bits.
CERT_SHA256 = {
    (3, 0.03): "a9dd3dca264349b8a916a349be2fc190bfecf673cf600383f3a261be1dadc15a",
    (4, 0.03): "1e20be2bfcf5294ce5b9840dc2e17cb1565dcb01d509c6c2a77e76729ea6f012",
    (3, 1 / 16): "3a30afaf5a5af24d4dc02b585699427f43b4284abbd53ccc29cda75f40032e50",
    (4, 1 / 16): "500d1eb53bc53bc5f5a88a942bdde69e13a9d61874c3f64b4446e4ea34f683d5",
    (3, 0.1): "f29117a679e38adf2cd313560b4a05a9dfe7e16c5fcbfcd5a6b15460a22b99ce",
    (4, 0.1): "d8deb6103a6f76cfa35261e26be2402437b1d4ef2327f221d66a4d2717a6d7b0",
    (3, 1 / 4): "12d5e3f0953808c59b04c16101c57e9f6f548f258a899fcf1326dfb093792d84",
    (4, 1 / 4): "f3d626717bc5d49427691f26bd0033116a6f57e5c2778779e3132f31d5a7cef3",
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


def test_moment_consistency_fits_its_memory_factor():
    # cyc and thru, 4 n^2 each, beside dom_in and dom_out, its four
    # columns: 16 n^2, below the 17 n^2 that the check charges before
    # anything n x n is allocated
    import tracemalloc
    n = 2000
    t = random_tournament(n, 1)
    product_table(3)
    tracemalloc.start()
    try:
        rep = moment_consistency_check(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok
    assert all(type(x) is int for pair in rep.entries.values() for x in pair)
    assert peak < 17 * n * n, peak / n**2


def test_moment_consistency_transitive_x_rows_zero():
    rep = moment_consistency_check(transitive(8))
    ix = next(f.index for f in enumerate_flags(3) if f.name == "cyc")
    for j in range(4):
        assert rep.entries[(ix, j)] == (0, 0)
        assert rep.entries[(j, ix)] == (0, 0)
    with pytest.raises(ValueError):
        moment_consistency_check(transitive(5))


def test_flagcert_round_trip(tmp_path):
    cert = lemma1_certificate(0.07)
    path = tmp_path / "c.txt"
    write_certificate(cert, path)
    back = read_certificate(path)
    assert (back.gamma, back.mu, back.lam) == (cert.gamma, cert.mu, cert.lam)
    assert back.q == cert.q
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


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_flagcert_and_flagtab_end_lines_only_at_line_ends(sep):
    # as in TRN, only \n, \r\n and \r end a line: a fault on line 2 is
    # reported there, not on line 5 as str.splitlines would have it
    with pytest.raises(DataFormatError) as info:
        certificate_from_text(f"FLAGCERT v1 3 4\n0.06{sep}25\n0.0\n0.0\n"
                              + "0 0 0 0\n" * 4)
    assert str(info.value) == f"line 2: bad gamma value {f'0.06{sep}25'!r}"


def test_flagcert_and_flagtab_line_ends_parse_alike():
    # \n, \r\n and \r files all parse to the certificate that was
    # written
    cert = lemma1_certificate(0.07)
    for end in ("\r\n", "\r"):
        back = certificate_from_text(
            certificate_to_text(cert).replace("\n", end))
        assert (back.k, back.gamma, back.mu, back.lam) == \
            (cert.k, cert.gamma, cert.mu, cert.lam)
        assert back.q == cert.q
