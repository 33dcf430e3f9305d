import contextlib
import io
import subprocess
import sys

import pytest

from tourprof import cli, profiles
from tourprof.cli import main
from tourprof.core import read_trn
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


def test_profile_sample_mode_guard(capsys):
    code, _, err = run(capsys, "profile", "transitive:100",
                       "--mode", "sample")
    assert code == 2
    assert "exact mode is mandatory" in err


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


def test_edge_stats_computed_once(monkeypatch, capsys):
    calls = []
    real = profiles.edge_stats

    def counting(t):
        calls.append(t.n)
        return real(t)

    monkeypatch.setattr(cli, "edge_stats", counting)
    monkeypatch.setattr(profiles, "edge_stats", counting)
    for extra in (["--moments"], ["--cdf", "0.5"]):
        calls.clear()
        code, _, _ = run(capsys, "edge-stats", "cyclic:7", *extra)
        assert code == 0 and calls == [7]


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


def test_verify_identities_path(capsys):
    code, out, _ = run(capsys, "verify", "--in", "cyclic:25")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert all(r.split(",")[1] == "true" for r in rows[1:])


def test_verify_needs_an_argument(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2


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
