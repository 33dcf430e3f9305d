"""tourprof benchmark: three closed-loop workloads driven by one seed.

    python3 perfbench/run.py --workload trn-profile --seed 1 --seconds 15 --trace 0

Workloads (README.md says why each exists):

  trn-profile  per op, one tournament at n = 2000 (cyclic: 1999) through
               `gen ... --out F`, `profile F --counts` and
               `edge-stats F --moments`, in-process via tourprof.cli.main
  scan         per op, one default `tourprof search` scan, in-process,
               with TOURPROF_THREADS removed from the environment
  certify      per op, a fresh `tourprof flags search --k 4` and then a
               fresh `tourprof verify --cert`

Ops run back to back (a closed loop with one client) until --seconds
have passed, and at least one runs.  Every op's output is checked; a
failed op is counted and not timed.  The next to last line of stdout is
the full record (machine, inputs, per-command timings); the last line is
{"correct", "attempted", "failed", "metrics"}.  With --trace 1 the run
is a separate traced run that reports per-layer metrics and writes its
spans to .perfbench_out/.  The tourprof source is taken from src/ next
to this directory; without it the benchmark exits with an error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr
from math import comb
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("trn-profile", "scan", "certify")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
THREADS_ENV = "TOURPROF_THREADS"
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", THREADS_ENV)
KINKS = (1.0 / 16.0, 0.25)

# The full setting is the benchmark; the smoke setting only checks the
# harness end to end in seconds (selftest.py).
FULL = {"n": 2000, "moves": None, "gammas": 4}
SMOKE = {"n": 41, "moves": 300, "gammas": 1}

# Microbenchmark sizes for the traced scan run.
FLIPS = 2000
AUDITS = 20
DRAW_BATCHES, DRAWS_PER_BATCH = 20, 2000


class OpFailed(Exception):
    """An op's output failed the gate, or a command exited nonzero."""


class _Stdout:
    """sys.stdout stand-in whose target the harness switches to capture one
    command's output.  tourprof.cli binds sys.stdout as a default argument
    when it is imported, so only an object installed before that import
    receives every line the CLI prints."""

    def __init__(self, real):
        self.real = self.target = real

    def write(self, text):
        return self.target.write(text)

    def flush(self):
        self.target.flush()

    def __getattr__(self, name):
        return getattr(self.target, name)


# -- set-up ------------------------------------------------------------------


def load_tourprof() -> float:
    """Import tourprof from this checkout's src/; returns the import time."""
    if not (SRC / "tourprof" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tourprof source tree under {SRC}")
    if not isinstance(sys.stdout, _Stdout):
        sys.stdout = _Stdout(sys.stdout)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tourprof.cli
    elapsed = time.perf_counter() - start
    if Path(tourprof.__file__).resolve().parent != SRC / "tourprof":
        raise SystemExit(f"perfbench: imported tourprof from "
                         f"{tourprof.__file__}, not from {SRC}")
    return elapsed


def trn_ops(seed: int, setting: dict):
    """Endless op specs for trn-profile.  Ops alternate between a
    construction that draws from the rng stream (random, blow-up) and a
    structured one (cyclic, interval), so any even number of ops has the
    same mix whatever the seed."""
    rnd = random.Random(seed)
    drawn, fixed = ["random", "blowup"], ["cyclic", "interval"]
    rnd.shuffle(drawn)
    rnd.shuffle(fixed)
    order = [drawn[0], fixed[0], drawn[1], fixed[1]]
    n = setting["n"]
    k = 0
    while True:
        kind = order[k % 4]
        k += 1
        if kind == "random":
            yield {"kind": kind, "n": n, "gen": ["gen", "random", "--n", str(n),
                   "--seed", str(rnd.randrange(2**32))]}
        elif kind == "blowup":
            m = rnd.randint(2, 4)
            raw = [rnd.uniform(1.0, 2.0) for _ in range(m)]
            weights = [x / sum(raw) for x in raw]
            yield {"kind": kind, "n": n, "gen": [
                "gen", "blowup", "--host", f"T{m}", "--weights",
                ",".join(repr(w) for w in weights), "--n", str(n),
                "--seed", str(rnd.randrange(2**32))]}
        elif kind == "cyclic":
            odd = n if n % 2 else n - 1
            yield {"kind": kind, "n": odd,
                   "gen": ["gen", "cyclic", "--n", str(odd)]}
        else:
            s = rnd.randint((n + 1) // 2, n)
            yield {"kind": kind, "n": n, "gen": ["gen", "interval", "--n",
                   str(n), "--s", str(s)]}


def scan_ops(seed: int, setting: dict):
    rnd = random.Random(seed)
    extra = ["--moves", str(setting["moves"])] if setting["moves"] else []
    while True:
        s = rnd.randrange(2**31)
        yield {"seed": s, "argv": ["search", "--seed", str(s), *extra]}


def certify_gammas(seed: int, setting: dict) -> list:
    """The kinks 1/16 and 1/4 first, then gammas drawn from the seed."""
    rnd = random.Random(seed)
    gammas = list(KINKS)
    while len(gammas) < setting["gammas"]:
        gammas.append(round(rnd.uniform(0.01, 0.24), 6))
    return gammas[:setting["gammas"]]


def certify_ops(seed: int, setting: dict):
    gammas = certify_gammas(seed, setting)
    k = 0
    while True:
        yield {"gamma": gammas[k % len(gammas)]}
        k += 1


OP_SPECS = {"trn-profile": trn_ops, "scan": scan_ops, "certify": certify_ops}


def setup(workload: str, seed: int, setting: dict):
    """Harness set-up: import tourprof and derive the inputs."""
    import_s = load_tourprof()
    threads_env = os.environ.pop(THREADS_ENV, None)
    ops = OP_SPECS[workload](seed, setting)
    return import_s, threads_env, ops


def probe_setup(workload: str, seed: int, smoke: bool):
    """Run the set-up in SETUP_PROBES fresh interpreters; returns the wall
    time of each and the import time each reports."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited "
                             f"{proc.returncode}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


# -- running commands ----------------------------------------------------------


def run_cli(argv: list, rec=None):
    """tourprof.cli.main in-process with stdout and stderr captured."""
    import tourprof.cli as cli
    out, err = io.StringIO(), io.StringIO()
    saved_argv = sys.argv
    sys.argv = ["tourprof", *argv]
    sys.stdout.target = out
    try:
        with redirect_stderr(err):
            if rec is None:
                code = cli.main(argv)
            else:
                with rec.span("cli.main"):
                    code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.target = sys.stdout.real
        sys.argv = saved_argv
    return code, out.getvalue(), err.getvalue()


def run_child(argv: list, work: Path, rec=None):
    """One tourprof command in a fresh interpreter.  Traced, it runs
    child.py, whose spans are adopted under a bench.cmd span."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if rec is None:
        cmd = [sys.executable, "-m", "tourprof.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr
    span_file = work / "child-spans.json"
    with rec.span("bench.cmd") as cmd_id:
        cmd = [sys.executable, str(HERE / "child.py"), str(span_file),
               str(cmd_id * 10**6), "--", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if span_file.exists():
        for sp in json.loads(span_file.read_text(encoding="ascii")):
            sp["op"] = rec.op
            if sp["parent"] is None:
                sp["parent"] = cmd_id
            rec.spans.append(sp)
        span_file.unlink()
    return proc.returncode, proc.stdout, proc.stderr


def _command(runner, argv, corrupt, index, *args):
    """Run one command; returns (wall seconds, stdout)."""
    start = time.perf_counter()
    code, out, err = runner(argv, *args)
    wall = time.perf_counter() - start
    if corrupt is not None:
        out = corrupt(index, out)
    if code != 0:
        raise OpFailed(f"`{' '.join(argv[:2])}` exited {code}: "
                       f"{err.strip()[-300:]}")
    return wall, out


def _rows(text: str) -> list:
    """Non-comment CSV rows of a command's stdout, as lists of fields."""
    return [ln.split(",") for ln in text.splitlines()
            if ln and not ln.startswith("#")]


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise OpFailed(what)


# -- workload ops --------------------------------------------------------------


def check_counts(kind: str, n: int, row: list) -> int:
    """Check the exact identities of a --counts row; returns c3."""
    _require(len(row) == 7, f"counts row has {len(row)} fields")
    rn, t3, c3, t4, c4, w, l = (int(x) for x in row)
    n3, n4 = comb(n, 3), comb(n, 4)
    _require(rn == n, f"counts row is for n={rn}, not {n}")
    _require(t3 + c3 == n3, "t3 + c3 != C(n,3)")
    _require(t4 + c4 + w + l == n4, "t4 + c4 + w + l != C(n,4)")
    _require(2 * c4 + w + l == (n - 3) * c3, "2c4 + w + l != (n-3)c3")
    _require((t4 - c4) * n3 == (n3 - 4 * c3) * n4,
             "(t4 - c4)C(n,3) != (C(n,3) - 4c3)C(n,4)")
    if kind == "cyclic":
        _require(24 * c3 == n ** 3 - n, "cyclic c3 != (n^3 - n)/24")
    if kind == "interval":
        _require(w == 0 and l == 0, "interval has W or L 4-sets")
    return c3


def trn_op(spec: dict, work: Path, rec=None, corrupt=None):
    path = work / "op.trn"
    n, kind = spec["n"], spec["kind"]
    cmds = [spec["gen"] + ["--out", str(path)],
            ["profile", str(path), "--counts"],
            ["edge-stats", str(path), "--moments"]]
    walls, outs = [], []
    for i, argv in enumerate(cmds):
        wall, out = _command(run_cli, argv, corrupt, i, rec)
        walls.append(wall)
        outs.append(out)
        if i == 0:
            with open(path, "rb") as fh:
                head = fh.readline()
            size = path.stat().st_size
            _require(head.split() == [b"TRN", b"v1", str(n).encode()],
                     f"TRN header {head[:40]!r}")
            _require(size == len(head) + n * (n + 1),
                     f"TRN file has {size} bytes")
    c3 = check_counts(kind, n, _rows(outs[1])[-1])
    moments = _rows(outs[2])
    _require(moments[0][:2] == ["n", "ex"] and len(moments) == 2,
             "edge-stats --moments output")
    ex = float(moments[1][1])
    expected = 3 * c3 / (comb(n, 2) * (n - 2))
    _require(abs(ex - expected) <= 1e-11 * max(expected, 1e-300),
             f"ex={ex!r} != 3c3/(C(n,2)(n-2)) = {expected!r}")
    return walls, {"kind": kind, "n": n, "trn_bytes": size}


def _conjectured(c3: float) -> float:
    """Conjectured minimal c4 at c3, clamped into [0, 1/4] as the scan
    does when it flags discoveries."""
    from tourprof.bounds import conjectured_min_c4
    c3 = min(max(c3, 0.0), 0.25)
    return conjectured_min_c4(c3).c4 if c3 > 0 else 0.0


def scan_op(spec: dict, work: Path, rec=None, corrupt=None):
    wall, out = _command(run_cli, spec["argv"], corrupt, 0, rec)
    rows = _rows(out)
    _require(rows and rows[0] == ["gamma", "n", "seed", "c3", "c4",
                                  "objective", "discovery_flag"],
             "search CSV header")
    points = [dict(zip(rows[0], r)) for r in rows[1:]]
    _require([float(p["gamma"]) for p in points] == list(KINKS),
             "search did not report the default gammas 1/16 and 1/4")
    excess = []
    for p in points:
        _require(p["seed"] == str(spec["seed"]), "search seed column")
        _require(p["discovery_flag"] == "false",
                 f"discovery flagged at gamma={p['gamma']}")
        c3, c4 = float(p["c3"]), float(p["c4"])
        excess.append(c4 - _conjectured(c3))
    c3_kink = float(points[0]["c3"])
    _require(abs(c3_kink - KINKS[0]) <= 0.003,
             f"c3={c3_kink} misses 1/16 by more than 0.003")
    return [wall], {"seed": spec["seed"], "c4_excess": max(excess),
                    "points": [(p["gamma"], p["c3"], p["c4"])
                               for p in points]}


def certify_op(spec: dict, work: Path, rec=None, corrupt=None):
    from tourprof.bounds import lb_flag
    gamma = spec["gamma"]
    cert = work / "op.cert"
    search_argv = ["flags", "search", "--k", "4", "--gamma", repr(gamma),
                   "--out", str(cert)]
    cert_s, _ = _command(run_child, search_argv, corrupt, 0, work, rec)
    lines = cert.read_text(encoding="ascii").splitlines()
    _require(lines[0].split() == ["FLAGCERT", "v1", "4", "16"],
             f"FLAGCERT header {lines[0][:40]!r}")
    lam = float(lines[3])
    verify_s, out = _command(run_child, ["verify", "--cert", str(cert)],
                             corrupt, 1, work, rec)
    rows = _rows(out)
    _require(rows[0][:2] == ["valid", "lambda"] and len(rows) == 2,
             "verify output")
    _require(rows[1][0] == "true", f"verify says valid={rows[1][0]}")
    _require(rows[1][1] == f"{lam:.12g}",
             f"verify read lambda={rows[1][1]}, the file has {lam!r}")
    return [cert_s, verify_s], {"gamma": gamma, "lambda": lam,
                                "lambda_gap": lb_flag(gamma) - lam}


OPS = {"trn-profile": trn_op, "scan": scan_op, "certify": certify_op}
STAGES = {"trn-profile": ("gen_s", "profile_s", "edge_stats_s"),
          "scan": ("scan_s",), "certify": ("cert_s", "verify_s")}


def run_op(workload, spec, work, rec=None, corrupt=None):
    """One op; returns (walls, info) or None when it failed."""
    try:
        return OPS[workload](spec, work, rec, corrupt)
    except OpFailed as exc:
        print(f"perfbench: {workload} op failed: {exc}", file=sys.stderr)
    except Exception:  # a crash in the program is a failed op, not a stop
        print(f"perfbench: {workload} op raised:", file=sys.stderr)
        traceback.print_exc()
    return None


# -- statistics and the record -------------------------------------------------


def summary(xs) -> dict:
    """Median, sample count and the highest of p50/p90/p99/p99.9 that has
    at least ten samples beyond it (nearest rank), or null."""
    xs = sorted(xs)
    out = {"median": statistics.median(xs) if xs else None,
           "samples": len(xs), "percentile": None}
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(xs) * (1 - p / 100) >= 10:
            rank = max(1, math.ceil(p / 100 * len(xs)))
            out["percentile"] = {"p": p, "value": xs[rank - 1]}
            break
    return out


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def peak_rss_mb(workload: str) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "certify":
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def machine(threads_env) -> dict:
    import numpy as np
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    l3 = None
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    env = {k: os.environ.get(k) for k in ENV_KEYS}
    env[THREADS_ENV] = threads_env
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "l3_cache": l3,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "env": env,
            "env_note": f"{THREADS_ENV} is removed before the scan runs"}


def inputs_record(workload, seed, setting, infos) -> dict:
    rec = {"workload_seed": seed}
    if workload == "trn-profile":
        n = setting["n"]
        rec["n"] = sorted({i["n"] for i in infos})
        rec["trn_bytes"] = sorted({i["trn_bytes"] for i in infos})
        rec["constructions"] = [i["kind"] for i in infos]
        rec["cache_note"] = (
            f"at n = {n} the largest kernel array (n*n int64, "
            f"{8 * n * n / 2**20:.0f} MiB) fits the last-level cache, so "
            f"no bandwidth metric is claimed")
    elif workload == "scan":
        rec["n"] = 64
        rec["gammas"] = list(KINKS)
        rec["anneal_seeds"] = [i["seed"] for i in infos]
        rec["moves"] = setting["moves"] or "default"
    else:
        rec["gammas"] = certify_gammas(seed, setting)
        rec["k"] = 4
    return rec


# -- untraced run --------------------------------------------------------------


def timed_run(workload, ops, seconds, work, corrupt=None):
    deadline = time.perf_counter() + seconds
    done, attempted = [], 0
    while attempted == 0 or time.perf_counter() < deadline:
        attempted += 1
        result = run_op(workload, next(ops), work, corrupt=corrupt)
        if result is not None:
            done.append(result)
    return attempted, done


def e2e_metrics(workload, setup_walls, done) -> tuple:
    """The gated end-to-end metrics and the per-command detail."""
    walls = [w for w, _ in done]
    infos = [i for _, i in done]
    metrics = {
        "setup_s": (_median(setup_walls), "s"),
        "op_s": (_median([sum(w) for w in walls]), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    detail = {name: summary([w[i] for w in walls])
              for i, name in enumerate(STAGES[workload])}
    if workload == "scan":
        detail["c4_excess"] = max((i["c4_excess"] for i in infos),
                                  default=None)
    if workload == "certify":
        detail["lambda_gap"] = max((i["lambda_gap"] for i in infos),
                                   default=None)
    return metrics, detail


# -- traced run ----------------------------------------------------------------


def _n_of(args, kwargs):
    return {"n": args[0].n}


def inprocess_targets() -> list:
    from tourprof import cli, profiles, rng, search
    targets = [(cli, "read_trn", "core.read_trn"),
               (cli, "write_trn", "core.write_trn"),
               (cli, "profile3", "profiles.profile3"),
               (cli, "profile4", "profiles.profile4"),
               (cli, "edge_stats", "profiles.edge_stats"),
               (cli, "moments", "profiles.moments"),
               (profiles, "paths_matrix", "profiles.paths_matrix", _n_of),
               (profiles, "edge_stats", "profiles.edge_stats"),
               (rng, "values", "rng.values"),
               (search, "boundary_scan", "search.boundary_scan"),
               (search, "anneal", "search.anneal"),
               (search, "profile3", "profiles.profile3"),
               (search, "profile4", "profiles.profile4")]
    targets += [(cli, f, "core.construct") for f in
                ("transitive", "cyclic", "interval", "random_tournament",
                 "blowup")]
    return targets


def _named(spans_, name):
    return [s for s in spans_ if s["name"] == name]


def _dur(sp):
    return sp["end"] - sp["start"]


def _children(spans_, sp, name):
    return [c for c in spans_ if c["parent"] == sp["id"] and c["name"] == name]


def layer_metrics(op_spans: list) -> dict:
    """Per-call and per-op layer metrics from the spans of traced ops."""
    all_spans = [s for ops in op_spans for s in ops]
    pm = _named(all_spans, "profiles.paths_matrix")
    p4 = _named(all_spans, "profiles.profile4")
    search_c = _named(all_spans, "flags.search_certificate")
    verify_c = [s for s in _named(all_spans, "flags.verify_certificate")
                if any(p["id"] == s["parent"] and p["name"] == "cli.main"
                       for p in all_spans)]
    by_id = {s["id"]: s for s in all_spans}
    cold_tables = {}
    for s in sorted(_named(all_spans, "flags.product_table"),
                    key=lambda s: s["start"]):
        if s.get("k") == 4:
            cold_tables.setdefault(_cmd_of(by_id, s), s)

    def minus_tables(sp):
        return _dur(sp) - sum(_dur(c) for c in
                              _children(all_spans, sp, "flags.product_table"))

    m = {
        "core.read_trn_s": _median([_dur(s) for s in
                                    _named(all_spans, "core.read_trn")]),
        "core.write_trn_s": _median([_dur(s) for s in
                                     _named(all_spans, "core.write_trn")]),
        "core.construct_s": _median([
            sum(_dur(s) for s in _named(ops, "core.construct"))
            for ops in op_spans if _named(ops, "core.construct")]),
        "profiles.paths_matrix_s": _median([_dur(s) for s in pm]),
        "profiles.kernel_triples_per_s": _median(
            [s["n"] ** 3 / _dur(s) for s in pm]),
        "profiles.profile4_s": _median([_dur(s) for s in p4]),
        "profiles.wl_count_s": _median([
            _dur(s) - sum(_dur(c) for c in
                          _children(all_spans, s, "profiles.paths_matrix"))
            for s in p4]),
        "profiles.edge_stats_s": _median([_dur(s) for s in _named(
            all_spans, "profiles.edge_stats")]),
        "profiles.moments_s": _median([_dur(s) for s in _named(
            all_spans, "profiles.moments")]),
        "flags.product_table4_s": _median([_dur(s) for s in
                                           cold_tables.values()]),
        "flags.search_certificate_s": _median([minus_tables(s)
                                               for s in search_c]),
        "flags.verify_certificate_s": _median([minus_tables(s)
                                               for s in verify_c]),
        "flags.cert_io_s": _median([
            sum(_dur(s) for s in ops if s["name"] in
                ("flags.read_certificate", "flags.write_certificate"))
            for ops in op_spans if _named(ops, "flags.read_certificate")]),
    }
    selfs = [spans.layer_self_times(ops) for ops in op_spans]
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = _median([s[layer] for s in selfs])
    return m


def _cmd_of(by_id, sp):
    """Id of the bench.cmd span (one child interpreter) above sp."""
    while sp is not None and sp["name"] != "bench.cmd":
        sp = by_id.get(sp["parent"])
    return sp["id"] if sp else None


def scan_layers(spec, setting, scan_wall, rec) -> tuple:
    """Serial anneals of the op's jobs, then FlipState and rng.Stream
    driven directly on the op's warm-start tournament."""
    from tourprof import bounds, core, profiles, rng, search
    schedule = search.AnnealSchedule()
    if setting["moves"]:
        schedule = search.AnnealSchedule(moves=setting["moves"])
    seed = spec["seed"]
    rec.op = "serial"
    anneal_ids, proposals, proposed, accepted, results = [], 0, 0, 0, []
    for gamma in KINKS:
        with rec.span("search.anneal") as sid:
            res = search.anneal(64, gamma, seed=seed, schedule=schedule)
        anneal_ids.append(sid)
        proposals += schedule.warmup + res.proposed
        proposed += res.proposed
        accepted += res.accepted
        results.append((f"{res.gamma:.12g}", f"{res.c3:.12g}",
                        f"{res.c4:.12g}"))

    # The scan's warm start for gamma = 1/16, rebuilt from public calls.
    opt = bounds.conjectured_min_c4(KINKS[0])
    start_t = core.blowup(core.BlowupSpec(core.transitive(opt.m), opt.weights),
                          64, seed=rng.derive(seed, 0xB10))
    state = profiles.FlipState(start_t)
    rnd = random.Random(seed)
    rec.op = "micro"
    flip_spans = []
    for _ in range(FLIPS):
        u, v = rnd.sample(range(64), 2)
        with rec.span("profiles.flip") as sid:
            state.flip(u, v)
        flip_spans.append(sid)
    audit_ids = []
    for _ in range(AUDITS):
        with rec.span("profiles.audit") as sid:
            state.audit()
        audit_ids.append(sid)
    stream = rng.Stream(seed)
    draw_ids = []
    for _ in range(DRAW_BATCHES):
        with rec.span("rng.draw_batch", draws=DRAWS_PER_BATCH) as sid:
            for _ in range(DRAWS_PER_BATCH):
                stream.next_below(64)
        draw_ids.append(sid)
    by_id = {s["id"]: s for s in rec.spans}
    anneal_s = [_dur(by_id[i]) for i in anneal_ids]
    m = {
        "search.anneal_s": _median(anneal_s),
        "search.proposal_us": 1e6 * sum(anneal_s) / proposals,
        "search.accept_ratio": accepted / proposed,
        "search.pool_speedup": sum(anneal_s) / scan_wall,
        "profiles.flip_us": 1e6 * _median([_dur(by_id[i])
                                           for i in flip_spans]),
        "profiles.audit_ms": 1e3 * _median([_dur(by_id[i])
                                            for i in audit_ids]),
        "rng.draw_us": 1e6 * _median([_dur(by_id[i]) for i in draw_ids])
        / DRAWS_PER_BATCH,
    }
    return m, results


PER_LAYER = (
    "core.read_trn_s", "core.write_trn_s", "core.construct_s",
    "profiles.paths_matrix_s", "profiles.kernel_triples_per_s",
    "profiles.profile4_s", "profiles.wl_count_s", "profiles.edge_stats_s",
    "profiles.moments_s", "profiles.flip_us", "profiles.audit_ms",
    "search.anneal_s", "search.proposal_us", "search.accept_ratio",
    "search.pool_speedup", "rng.draw_us",
    "flags.product_table4_s", "flags.search_certificate_s",
    "flags.verify_certificate_s", "flags.cert_io_s", "cli.import_s",
    *(f"{layer}.self_s" for layer in spans.LAYERS), "trace.overhead_s")


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "triples/s"
    if name.endswith(("accept_ratio", "pool_speedup")):
        return "ratio"
    return name.rsplit("_", 1)[1]


def traced_run(workload, ops, seconds, work, setting, import_samples):
    """Pairs of (untraced op, the same op traced) until --seconds pass;
    the scan does one pair, then its serial jobs and microbenchmarks."""
    rec = spans.Recorder()
    deadline = time.perf_counter() + seconds
    attempted, failed, pairs, op_spans = 0, 0, [], []
    extra, infos = {}, []
    while attempted == 0 or (workload != "scan"
                             and time.perf_counter() < deadline):
        spec = next(ops)
        attempted += 2
        plain = run_op(workload, spec, work)
        rec.op = attempted
        saved = spans.install(rec, inprocess_targets()) \
            if workload != "certify" else []
        try:
            with rec.span("bench.op"):
                traced = run_op(workload, spec, work, rec)
        finally:
            spans.restore(saved)
        failed += (plain is None) + (traced is None)
        if plain is None or traced is None:
            continue
        pairs.append((sum(plain[0]), sum(traced[0])))
        op_spans.append([s for s in rec.spans if s["op"] == rec.op])
        infos.append(plain[1])
        if workload == "scan":
            extra, serial_results = scan_layers(spec, setting,
                                                sum(plain[0]), rec)
            if [tuple(p) for p in plain[1]["points"]] != serial_results:
                print("perfbench: threaded scan differs from serial anneals",
                      file=sys.stderr)
                failed += 1
    m = dict.fromkeys(PER_LAYER, 0.0)
    if op_spans:
        m.update(layer_metrics(op_spans))
    m.update(extra)
    if workload == "certify":
        m["cli.import_s"] = _median([_dur(s) for s in
                                     _named(rec.spans, "cli.import")])
    else:
        m["cli.import_s"] = _median(import_samples)
    if pairs:
        m["trace.overhead_s"] = (_median([t for _, t in pairs])
                                 - _median([p for p, _ in pairs]))
    return attempted, failed, m, infos, rec.spans


# -- entry point ---------------------------------------------------------------


def run(workload, seed, seconds, trace, smoke=False, corrupt=None):
    """One benchmark run; returns (result, record)."""
    setting = SMOKE if smoke else FULL
    setup_walls, import_samples = probe_setup(workload, seed, smoke)
    _, threads_env, ops = setup(workload, seed, setting)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if trace:
            attempted, failed, m, infos, span_list = traced_run(
                workload, ops, seconds, work, setting, import_samples)
            metrics = {k: (m[k], _unit(k)) for k in PER_LAYER}
            detail = {}
            span_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            with open(span_path, "w", encoding="ascii") as fh:
                for sp in span_list:
                    fh.write(json.dumps(sp) + "\n")
        else:
            attempted, done = timed_run(workload, ops, seconds, work, corrupt)
            failed = attempted - len(done)
            infos = [i for _, i in done]
            metrics, detail = e2e_metrics(workload, setup_walls, done)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["setup_s"] = summary(setup_walls)
    detail["failed_frac"] = failed / attempted
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke,
              "machine": machine(threads_env),
              "inputs": inputs_record(workload, seed, setting, infos),
              "detail": detail}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small n, short schedule, one gamma")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    setting = SMOKE if args.smoke else FULL
    if args.setup_probe:
        import_s, _, ops = setup(args.workload, args.seed, setting)
        next(ops)
        print(json.dumps({"import_s": import_s}))
        return 0
    if not (SRC / "tourprof" / "__init__.py").is_file():
        print(f"perfbench: no tourprof source tree under {SRC}",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"record": record, "result": result},
                                       indent=1), encoding="ascii")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
