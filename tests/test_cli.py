import ast
import contextlib
import hashlib
import io
import re
import subprocess
import sys

import pytest

from tourprof import cli, profiles, search
from tourprof.cli import main
from tourprof.core import random_tournament, read_trn, write_trn
from tourprof.certificate import (read_certificate, search_certificate,
                                  write_certificate)
from tourprof.profiles import profile3, profile4


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_cyclic_and_profile_round_trip(tmp_path, capsys):
    path = tmp_path / "c5.trn"
    code, out, err = run(capsys, "gen", "cyclic", "--n", "5", "--out", str(path))
    assert code == 0
    assert err.startswith("# tourprof")
    t = read_trn(path)
    p = profile4(t)
    assert (p.t4_count, p.c4_count, p.w_count, p.l_count) == (0, 5, 0, 0)

    code, out, _ = run(capsys, "profile", str(path), "--counts")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,t3,c3,t4,c4,w,l"
    fields = lines[1].split(",")
    assert fields[0] == "5"
    assert float(fields[4]) == 1.0          # c4
    assert float(fields[3]) == 0.0          # t4
    counts = lines[2].split(",")
    assert counts == ["5", "5", "5", "0", "5", "0", "0"]


def test_gen_cyclic_even_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "cyclic", "--n", "4",
                       "--out", str(tmp_path / "x.trn"))
    assert code == 2
    assert "odd" in err


def test_gen_blowup_spec_example(tmp_path, capsys):
    path = tmp_path / "b.trn"
    code, _, _ = run(capsys, "gen", "blowup", "--host", "T2",
                     "--weights", "0.5,0.5", "--n", "600", "--seed", "7",
                     "--out", str(path))
    assert code == 0
    assert abs(profile3(read_trn(path)).c3 - 1 / 16) <= 0.005


def test_gen_blowup_non_finite_weights_is_usage_error(tmp_path, capsys):
    path = tmp_path / "b.trn"
    code, out, err = run(capsys, "gen", "blowup", "--host", "T2",
                         "--weights", "nan,0.5", "--n", "10",
                         "--out", str(path))
    assert code == 2 and out == ""
    assert "weights must be finite" in err
    assert not path.exists()


def test_profile_inline_constructions(capsys):
    code, out, _ = run(capsys, "profile", "transitive:10")
    assert code == 0
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    assert float(row.split(",")[3]) == 1.0   # t4

    code, out, _ = run(capsys, "profile", "interval:100,50")
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    w, l = float(row.split(",")[5]), float(row.split(",")[6])
    assert w == 0.0 and l == 0.0


def test_profile_round_trip_matches_memory(tmp_path, capsys):
    path = tmp_path / "r.trn"
    run(capsys, "gen", "random", "--n", "40", "--seed", "11",
        "--out", str(path))
    code, out, _ = run(capsys, "profile", str(path))
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    t = read_trn(path)
    p3, p4 = profile3(t), profile4(t)
    vals = [float(x) for x in row.split(",")[1:]]
    for got, want in zip(vals, (p3.t3, p3.c3, p4.t4, p4.c4, p4.w, p4.l)):
        assert got == pytest.approx(want, abs=1e-12)


def test_gen_flip_and_mix_take_n_from_inputs(tmp_path, capsys):
    base = tmp_path / "c.trn"
    run(capsys, "gen", "cyclic", "--n", "11", "--out", str(base))
    out_path = tmp_path / "f.trn"
    code, _, err = run(capsys, "gen", "flip", "--in", str(base),
                       "--p", "0.5", "--seed", "2", "--out", str(out_path))
    assert code == 0, err
    assert read_trn(out_path).n == 11
    code, _, _ = run(capsys, "gen", "mix", "--in1", str(base),
                     "--in2", str(base), "--p", "0.3", "--seed", "1",
                     "--out", str(out_path))
    assert code == 0
    assert read_trn(out_path).n == 22


@pytest.mark.parametrize("n,argv", [
    (10**8, ("gen", "random", "--n", "100000000")),
    (2**15 + 1, ("gen", "transitive", "--n", "32769")),
    (40000, ("gen", "blowup", "--host", "T2", "--weights", "0.5,0.5",
             "--n", "40000")),
    (10**8, ("profile", "random:100000000,1")),
])
def test_orders_over_the_limit_fail_before_allocating(n, argv, tmp_path,
                                                      capsys):
    if argv[0] == "gen":
        argv += ("--out", str(tmp_path / "t.trn"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"n={n} is over the limit of 32768" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n", ["-4", "0"])
def test_blowup_of_no_vertices_is_a_usage_error(n, tmp_path, capsys):
    code, out, err = run(capsys, "gen", "blowup", "--host", "T2",
                         "--weights", "0.5,0.5", "--n", n,
                         "--out", str(tmp_path / "b.trn"))
    assert code == 2 and out == ""
    assert "n must be >= 1" in err


def test_profile_sample_mode_guard(capsys):
    for n in (100, 6000):
        code, _, err = run(capsys, "profile", f"transitive:{n}",
                           "--mode", "sample")
        assert code == 2
        assert "exact mode is mandatory for n <= 6000" in err
    code, out, _ = run(capsys, "profile", "transitive:6001", "--mode",
                       "sample", "--samples", "10")
    assert code == 0 and out.splitlines()[2].startswith("6001,1,0,1,0,")
    code, out, err = run(capsys, "profile", "random:6001,1", "--mode",
                         "sample", "--samples", "10", "--counts")
    assert code == 2 and out == ""
    assert "--counts requires exact mode" in err


def test_profile_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.trn"
    bad.write_text("TRN v1 3\n-11\nz-1\n00-\n")
    code, _, err = run(capsys, "profile", str(bad))
    assert code == 3
    assert "line 3" in err


def test_profile_non_ascii_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.trn"
    bad.write_bytes(b"TRN v1 3\n-11\n0-1\n0\xff-\n")
    code, _, err = run(capsys, "profile", str(bad))
    assert code == 3
    assert "line 4: non-ASCII byte 0xff at column 2" in err


def test_profile_file_over_the_order_limit_is_data_error(tmp_path, capsys):
    bad = tmp_path / "big.trn"
    bad.write_bytes(b"TRN v1 32769\n")
    code, _, err = run(capsys, "profile", str(bad))
    assert code == 3
    assert "line 1: vertex count 32769 is over the limit of 32768" in err


def test_profile_needs_four_vertices(capsys):
    code, out, err = run(capsys, "profile", "transitive:3")
    assert code == 2
    assert "profile needs n >= 4 (got n=3)" in err
    assert "Traceback" not in err and out == ""


def test_banner_goes_to_the_current_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["profile", "transitive:5"]) == 0
    assert buf.getvalue().startswith("# tourprof ")


def test_banner_names_the_parsed_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["prog", "--bogus"])
    code, out, _ = run(capsys, "profile", "transitive:5")
    assert code == 0
    assert out.splitlines()[0] == \
        f"# tourprof {cli.__version__} profile transitive:5"
    monkeypatch.setattr(sys, "argv", ["prog", "profile", "cyclic:5"])
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        f"# tourprof {cli.__version__} profile cyclic:5"


def test_edge_stats_computed_once(monkeypatch, capsys):
    """Each edge-stats mode and `profile --counts` runs the Gram kernel
    exactly once: one tile, which is all of G at n = 7."""
    calls = []
    real = profiles._gram_tile

    def tile(left, right):
        calls.append(left.shape[1])
        return real(left, right)

    monkeypatch.setattr(profiles, "_gram_tile", tile)
    for argv in (["edge-stats", "cyclic:7"],
                 ["edge-stats", "cyclic:7", "--moments"],
                 ["edge-stats", "cyclic:7", "--cdf", "0.5"],
                 ["profile", "cyclic:7", "--counts"]):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and calls == [7], argv


def test_whole_gram_commands_refuse_orders_past_the_memory_budget(
        monkeypatch, tmp_path, capsys):
    """With the budget cut below 10 n^2 bytes at n = 40, each command that
    holds G whole is a usage error, raised before the kernel runs; one
    vertex fewer fits."""
    calls = []
    real = profiles._gram_tile

    def tile(left, right):
        calls.append(left.shape)
        return real(left, right)

    monkeypatch.setattr(profiles, "_gram_tile", tile)
    monkeypatch.setattr(profiles, "_GRAM_BUDGET", 10 * 40**2 - 1)
    path = tmp_path / "r.trn"
    write_trn(random_tournament(40, 1), path)
    msg = ("edge stats at n=40 need about 16000 bytes (10 n^2), more than "
           "the 15999 byte limit (n <= 39)")
    for argv in (["edge-stats", str(path)],
                 ["edge-stats", str(path), "--cdf", "0.5"],
                 ["verify", "--in", str(path)]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (2, f"tourprof: {msg}\n"), argv
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        profiles.paths_matrix(read_trn(path))
    assert calls == []
    write_trn(random_tournament(39, 1), path)
    code, _, _ = run(capsys, "edge-stats", str(path))
    assert code == 0 and calls


def test_profile_counts_holds_no_whole_matrix_temporary(tmp_path, capsys):
    # the matrix and one block of rows while it is read, then the matrix
    # and profile4's fixed tiles: no float32 copy of A, no n x n mask
    import tracemalloc
    n = 2000
    path = tmp_path / "r.trn"
    write_trn(random_tournament(n, 1), path)
    tracemalloc.start()
    try:
        code = main(["profile", str(path), "--counts"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1].startswith("2000,")
    assert peak < 2.0 * n * n, peak / n**2


def test_edge_stats_row_count(capsys):
    code, out, _ = run(capsys, "edge-stats", "cyclic:5")
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "u,v,cyc,thru,dom_out,dom_in"
    assert len(rows) == 1 + 10
    total = sum(int(r.split(",")[2]) for r in rows[1:])
    assert total == 15


def test_edge_stats_moments_and_cdf(capsys):
    code, out, _ = run(capsys, "edge-stats", "cyclic:5", "--moments")
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    assert float(row.split(",")[1]) == 0.5      # E[X]
    code, out, _ = run(capsys, "edge-stats", "cyclic:5", "--cdf", "0")
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    assert float(row.split(",")[2]) == 1.0
    code, out, err = run(capsys, "edge-stats", "random:9,1", "--cdf", "nan")
    assert code == 2 and out == ""
    assert "x must not be NaN" in err
    code, out, err = run(capsys, "edge-stats", "cyclic:5", "--moments",
                         "--cdf", "0.3")
    assert code == 2 and out == ""
    assert "--moments or --cdf, not both" in err


# sha256 of the per-arc `edge-stats` CSV below the banner (header and
# every row), recorded while EdgeStats still stored the edges and the
# dom_out and dom_in arrays.
EDGE_STATS_CSV_SHA256 = {
    "cyclic:9": "d03e0a2528362f997bfc188912b092f5e458ec52f56d307d3525fec0df998bb5",
    "random:40,3": "893efb385911df9b0001f7d25383fbb2a7eb29ce44d46f1633901c452e9fed33",
    "interval:12,7": "6fa258b6b1463f7c61b0437396541427d1d85957868cb5c167dd397a0d303cdd",
    "transitive:6": "916219290be031cb8252a36403526dc3eae6b16acb46e76841d1c14a1f732fd0",
}


@pytest.mark.parametrize("spec", sorted(EDGE_STATS_CSV_SHA256))
def test_edge_stats_csv_golden(capsys, spec):
    code, out, _ = run(capsys, "edge-stats", spec)
    assert code == 0 and out.startswith("# tourprof ")
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == \
        EDGE_STATS_CSV_SHA256[spec]


# sha256 of the `edge-stats --moments` and `edge-stats --cdf 0.3` CSV
# below the banner, recorded while `moments` still summed the per-arc
# arrays and `x_cdf` took the EdgeStats built by the command.
EDGE_STATS_SUMMARY_SHA256 = {
    ("--moments", "transitive:3"): "e170e657bb8fd676656eeb59e933220db4c6a995bd9671d67185b98480d8fc8a",
    ("--moments", "cyclic:3"): "5202a3a52fb643925231d72875d394635fa536a5751e130e42bef3c4e4169157",
    ("--moments", "random:40,3"): "25d3febaf2c6ebff2a3a840dc6b9979af36e3c43a9c1b3d46c56eb641f96d6c4",
    ("--moments", "interval:12,7"): "c529ef5b32fb9b594180565e0102ea42ce9ad1fe24ee6c93f6ea8e148b2cffd5",
    ("--moments", "cyclic:201"): "06f22e5f3011e6db768e1517a4f85774911ba16f7976df8a17dcbd26e55e7a50",
    ("--cdf", "transitive:3"): "68c3e7a7833f436068e1a20cb27fc1f386ee924824e0bdb60ec13492ab12a4f7",
    ("--cdf", "cyclic:3"): "5c23641e85b2e05018cf30860bc3e5ef0f573eaccbcdf096320f6965786455cd",
    ("--cdf", "random:40,3"): "7cdefc426e43d9ae83660c8388a087a504d8f7948c270e2e1bf5c876753b5e78",
    ("--cdf", "interval:12,7"): "c0097e153eb8045eb4be426f2ef66c1b46e6636bb983e5285818beb6f35c8323",
    ("--cdf", "cyclic:201"): "47094e59fea67f85351d007994464631c7da428d2b044fd9302261755daf3a3e",
}


@pytest.mark.parametrize("mode,spec", sorted(EDGE_STATS_SUMMARY_SHA256))
def test_edge_stats_summary_golden(capsys, mode, spec):
    extra = ["--cdf", "0.3"] if mode == "--cdf" else [mode]
    code, out, _ = run(capsys, "edge-stats", spec, *extra)
    assert code == 0 and out.startswith("# tourprof ")
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == \
        EDGE_STATS_SUMMARY_SHA256[mode, spec]


def test_edge_stats_moments_need_three_vertices(capsys):
    code, out, err = run(capsys, "edge-stats", "transitive:2", "--moments")
    assert (code, out, err) == (2, "", "tourprof: edge stats need n >= 3\n")


def test_curve_fig4_contains_anchor(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    code, _, _ = run(capsys, "curve", "--fig", "4", "--grid", "5",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# tourprof")
    assert lines[1] == "c3,upper,lb_variance,lb_flag,conjectured,m"
    row = dict(zip(lines[1].split(","), lines[3].split(",")))
    assert float(row["c3"]) == pytest.approx(0.0625)
    assert float(row["lb_flag"]) == pytest.approx(3 / 64, abs=1e-9)
    assert float(row["conjectured"]) == pytest.approx(3 / 64, abs=1e-9)


def test_curve_out_to_a_non_ascii_path(tmp_path, capsys):
    # the file stays ASCII: the banner echoes the path backslash-escaped
    out_path = tmp_path / "\u00e9.csv"
    code, _, err = run(capsys, "curve", "--fig", "4", "--grid", "3",
                       "--out", str(out_path))
    assert (code, err) == (0, "")
    lines = out_path.read_bytes().decode("ascii").splitlines()
    escaped = str(out_path).encode("ascii", "backslashreplace").decode()
    assert lines[0].endswith(f" --out {escaped}")
    assert escaped.endswith("\\xe9.csv")
    code, out, _ = run(capsys, "curve", "--fig", "4", "--grid", "3")
    assert code == 0 and lines[1:] == out.splitlines()[1:]


def test_curve_grid_guard(capsys):
    code, _, err = run(capsys, "curve", "--fig", "1", "--grid", "1")
    assert code == 2


def test_flags_enumerate_k6(capsys):
    code, out, _ = run(capsys, "flags", "enumerate", "--k", "6")
    rows = [ln for ln in out.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("index")]
    assert code == 0 and len(rows) == 56


def test_flags_table_and_search_verify_cycle(tmp_path, capsys):
    tab_path = tmp_path / "tab3.txt"
    code, _, _ = run(capsys, "flags", "table", "--k", "3",
                     "--out", str(tab_path))
    assert code == 0
    assert tab_path.read_text().startswith("FLAGTAB v1 3 4 4 12")

    cert_path = tmp_path / "cert.txt"
    code, _, _ = run(capsys, "flags", "search", "--gamma", "0.0625",
                     "--k", "3", "--out", str(cert_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert_path))
    assert code == 0
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    valid, lam = row.split(",")[0], float(row.split(",")[1])
    assert valid == "true"
    assert lam >= 3 / 64 - 1e-4


@pytest.mark.parametrize("lam,row", [("-inf", "0 0 0 0"),
                                     ("0.0", "nan 0 0 0")])
def test_verify_non_finite_certificate_is_data_error(tmp_path, capsys, lam,
                                                     row):
    path = tmp_path / "cert.txt"
    path.write_text(f"FLAGCERT v1 3 4\n0.0625\n0.0\n{lam}\n{row}\n"
                    + "0 0 0 0\n" * 3)
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 3 and out == ""
    assert "must be finite" in err


def test_verify_non_ascii_certificate_is_data_error(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_bytes(b"FLAGCERT v1 3 4\n0.0\xc3\xa9625\n0.0\n0.0\n"
                     + b"0 0 0 0\n" * 4)
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 3 and out == ""
    assert "line 2: non-ASCII byte 0xc3 at column 4" in err


def test_verify_identities_path(capsys):
    code, out, _ = run(capsys, "verify", "--in", "cyclic:25")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert all(r.split(",")[1] == "true" for r in rows[1:])


def test_verify_needs_an_argument(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


def test_verify_cert_and_in_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    write_certificate(search_certificate(0.1, 3), path)
    code, out, err = run(capsys, "verify", "--cert", str(path),
                         "--in", "cyclic:5")
    assert code == 2 and out == ""
    assert "--cert or --in, not both" in err


@pytest.mark.parametrize("k", ["3", "4"])
def test_flags_search_at_tiny_gamma_writes_the_zero_certificate(tmp_path,
                                                                k):
    # t^2 overflows at gamma = 1e-300, so the Lemma 1 candidate is not
    # finite and drops out; nothing but the banner reaches stderr
    path = tmp_path / "c.cert"
    proc = subprocess.run([sys.executable, "-m", "tourprof.cli", "flags",
                           "search", "--k", k, "--gamma", "1e-300",
                           "--out", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == \
        f"# tourprof {cli.__version__} lambda=-1e-12 -> {path}\n"
    cert = read_certificate(path)
    assert (cert.k, cert.gamma, cert.mu, cert.lam) == \
        (int(k), 1e-300, 0.0, -1e-12)
    assert all(x == 0 for row in cert.q for x in row)


# sha256 of the `verify --cert` CSV below the banner for the certificate
# that search_certificate(gamma, k) writes, recorded when the verdict
# became exact: min_kappa is the exact least kappa_H, and the delta
# column (0 or 1e-13, the shift that proved Q + delta I PSD) replaced the
# float min_eigenvalue.  valid and lambda read as before.  The k = 4
# rows were recorded again when search_certificate came to price its
# candidates exactly: lambda moved in its last bits, so min_kappa did.
VERIFY_CSV_SHA256 = {
    (3, 0.03): "236039905119ff9b704a3bfc95133a3163327bed18bef3ec01fa15fb582b1ccc",
    (3, 1 / 16): "cf883b8da3baa4d1ebdc3cc31b5075032b25bdd0a77bf12f123c136626bee833",
    (3, 0.1): "4e4d335a2ff05cef45e2284c2b71011423e5a22358a98b3ba5ce36674f01c341",
    (3, 1 / 4): "e357bf875c84bdc46e3535c82076774c8cbee1e95d187001e21fcc8ab6dd4e96",
    (4, 0.03): "18ba629946efb329cfd011a84d0906221d9b41cdbcbe8c6a41c7929e42a3088d",
    (4, 1 / 16): "cf883b8da3baa4d1ebdc3cc31b5075032b25bdd0a77bf12f123c136626bee833",
    (4, 0.1): "1ae9c89b0c07b572cb97301f9b1499d1cd790892ad5c6c1993b31ecaddea9985",
    (4, 1 / 4): "e357bf875c84bdc46e3535c82076774c8cbee1e95d187001e21fcc8ab6dd4e96",
}


@pytest.mark.parametrize("k,gamma", sorted(VERIFY_CSV_SHA256))
def test_verify_cert_csv_golden(tmp_path, capsys, k, gamma):
    path = tmp_path / "cert.txt"
    write_certificate(search_certificate(gamma, k), path)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and out.startswith("# tourprof ")
    body = out.split("\n", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == \
        VERIFY_CSV_SHA256[k, gamma]


def test_flags_moment_check(capsys):
    code, out, _ = run(capsys, "flags", "moment-check", "--in", "random:9,2")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 16
    assert all(r.endswith("true") for r in rows[1:])


def test_flags_moment_check_needs_input(capsys):
    code, out, err = run(capsys, "flags", "moment-check")
    assert code == 2 and out == ""
    assert "moment-check needs --in" in err


def test_search_csv_schema(capsys):
    code, out, _ = run(capsys, "search", "--gamma", "0.0625", "--n", "16",
                       "--seed", "3", "--moves", "1500")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "gamma,n,seed,c3,c4,objective,discovery_flag"
    fields = rows[1].split(",")
    assert fields[1] == "16" and fields[2] == "3"
    assert fields[6] in ("true", "false")


# sha256 of the default `search --seed 0` CSV below the banner: both
# default gammas at n = 64 under the default 60 000-move schedule, the
# scan that perfbench's `scan` workload times.
DEFAULT_SCAN_CSV_SHA256 = \
    "d315c70a2909b58adbd3e1e5e002e6aff84776c6cb0f422b4e3a5e0f09762fdf"


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in_process"])
def test_default_search_golden(monkeypatch, capsys, cpus):
    monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
    code, out, _ = run(capsys, "search", "--seed", "0")
    assert code == 0
    banner, body = out.split("\n", 1)
    assert banner == f"# tourprof {cli.__version__} search --seed 0"
    assert hashlib.sha256(body.encode()).hexdigest() == \
        DEFAULT_SCAN_CSV_SHA256


def test_search_zero_moves_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--n", "8", "--moves", "0")
    assert code == 2 and out == ""
    assert "moves >= 1" in err


@pytest.mark.parametrize("penalty", ["nan", "inf"])
def test_search_non_finite_penalty_is_usage_error(capsys, penalty):
    code, out, err = run(capsys, "search", "--n", "8", "--moves", "10",
                         "--penalty", penalty)
    assert code == 2 and out == ""
    assert "penalty must be finite" in err


@pytest.mark.parametrize("flag", ["--gamma", "--seeds"])
def test_search_empty_list_is_usage_error(capsys, flag):
    code, out, _ = run(capsys, "search", "--n", "8", "--moves", "10",
                       flag, "")
    assert code == 2 and out == ""


def test_console_script_subprocess(tmp_path):
    out = subprocess.run([sys.executable, "-m", "tourprof.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "tourprof" in out.stdout
    bad = subprocess.run([sys.executable, "-m", "tourprof.cli", "profile",
                          str(tmp_path / "nope.trn")],
                         capture_output=True, text=True)
    assert bad.returncode == 3


def test_piped_search_writes_one_banner_and_the_serial_bytes(monkeypatch,
                                                             capsys):
    argv = ["search", "--n", "16", "--moves", "1500", "--seeds", "0,1"]
    piped = subprocess.run([sys.executable, "-m", "tourprof.cli", *argv],
                           capture_output=True)
    assert piped.returncode == 0, piped.stderr
    monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert piped.stdout == out.encode("ascii")
    assert [ln for ln in out.splitlines() if ln.startswith("#")] == \
        [f"# tourprof {cli.__version__} " + " ".join(argv)]


HEAVY_MODULES = ("numpy.ma", "multiprocessing", "concurrent.futures")


def loaded_by(*argv, modules=HEAVY_MODULES):
    """Which of `modules` a fresh process running `tourprof argv` has
    imported when main returns."""
    code = ("import sys\nfrom tourprof.cli import main\n"
            "status = main(sys.argv[1:])\n"
            f"print([m for m in {modules!r} if m in sys.modules],"
            " file=sys.stderr)\n"
            "sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_certify_commands_load_no_heavy_modules(tmp_path):
    cert = str(tmp_path / "c.cert")
    # numpy, and the stdlib that dataclasses (inspect) and fractions
    # (decimal) bring, would each cost a fresh process milliseconds
    heavy = HEAVY_MODULES + ("numpy", "dataclasses", "inspect", "fractions",
                             "decimal")
    for k in ("3", "4"):
        assert loaded_by("flags", "search", "--k", k, "--gamma", "0.1",
                         "--out", cert, modules=heavy) == []
    assert loaded_by("verify", "--cert", cert, modules=heavy) == []


@pytest.mark.parametrize("gammas", ["0.0625", "0.0625,0.25"])
def test_search_does_not_load_numpy_ma(gammas):
    # one job anneals in this process, two in forked workers
    assert "numpy.ma" not in loaded_by("search", "--n", "16", "--moves",
                                       "300", "--gamma", gammas)
