"""Command line surface.

Subcommands: gen, profile, edge-stats, curve, flags, search, verify.
Every run is deterministic given its full argument list (including
seeds).  CSV outputs begin with a comment line

    # tourprof <version> <command line>

so a dataset always names the exact invocation that produced it.
Tournament files carry no comments (the TRN format has none); for
`gen` the reproducibility line goes to stderr instead.

Exit codes: 0 success, 2 usage/parameter error, 3 data error in an
input file, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__
from .base import DataFormatError, InternalInvariantError

if TYPE_CHECKING:
    from .core import Tournament

# core, profiles, bounds, search and flags import numpy, so each command
# imports what it needs when it runs, and `verify --cert` and `flags
# search` load none of them.  The core and profiles names below are
# bound into this module by _bind() on the first command that needs
# them, keeping a name that was rebound here before then (a tracer's
# wrapper); reading one from outside binds them too.
_CORE = ("BlowupSpec", "MixSpec", "blowup", "cyclic", "flip_perturb",
         "interval", "mix", "random_tournament", "read_trn", "transitive",
         "write_trn")
_PROFILES = ("edge_stats", "moments", "profile3", "profile4",
             "sample_profile4", "verify_identities", "x_cdf")


def _bind() -> None:
    from . import core, profiles
    names = globals()
    for module, attrs in ((core, _CORE), (profiles, _PROFILES)):
        for attr in attrs:
            names.setdefault(attr, getattr(module, attr))


def __getattr__(name):
    if name in _CORE or name in _PROFILES:
        _bind()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

EXACT_PROFILE_MAX_N = 6000


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _banner(args, out=None) -> None:
    """The reproducibility comment line, naming the arguments that main
    parsed.  `out=None` prints to sys.stdout as it is at call time, so a
    redirect made after import still catches it."""
    print(f"# tourprof {__version__} " + " ".join(args.argv), file=out)


def _load(path: str, read=None):
    """read(path), read_trn by default; OSError becomes DataFormatError."""
    try:
        return (read or read_trn)(path)
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc.strerror or exc}") from exc


_CONSTRUCTIONS = ("transitive", "cyclic", "interval", "random", "blowup",
                  "flip", "mix")


def _parse_host(text: str) -> Tournament:
    """Host for blow-ups: Tk (transitive), Ck (cyclic, odd k), Rk:<seed>
    (random), or a TRN file path."""
    if len(text) >= 2 and text[0] in "TC" and text[1:].isdigit():
        k = int(text[1:])
        return transitive(k) if text[0] == "T" else cyclic(k)
    if text.startswith("R") and ":" in text:
        body, _, s = text[1:].partition(":")
        if body.isdigit() and s.lstrip("-").isdigit():
            return random_tournament(int(body), int(s))
    return _load(text)


def _parse_list(option: str, text: str, kind) -> list:
    """The comma list `text` of option `option` as `kind` values."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"bad {option} {text!r}; expected comma "
                         f"{kind.__name__}s") from None


def _make_input(text: str) -> Tournament:
    """profile/edge-stats input: a TRN path, or an inline construction
    transitive:N | cyclic:N | interval:N,S | random:N,SEED."""
    name, _, rest = text.partition(":")
    if name in ("transitive", "cyclic", "interval", "random") and rest:
        nums = rest.split(",")
        if not all(p.lstrip("-").isdigit() for p in nums):
            raise ValueError(f"bad construction parameters in {text!r}")
        nums = [int(p) for p in nums]
        if name == "transitive" and len(nums) == 1:
            return transitive(nums[0])
        if name == "cyclic" and len(nums) == 1:
            return cyclic(nums[0])
        if name == "interval" and len(nums) == 2:
            return interval(nums[0], nums[1])
        if name == "random" and len(nums) == 2:
            return random_tournament(nums[0], nums[1])
        raise ValueError(f"wrong parameter count in {text!r}")
    return _load(text)


def _cmd_gen(args) -> int:
    _bind()
    seed = args.seed
    name = args.construction
    if name == "transitive":
        t = transitive(args.n)
    elif name == "cyclic":
        t = cyclic(args.n)
    elif name == "interval":
        if args.s is None:
            raise ValueError("interval needs --s")
        t = interval(args.n, args.s)
    elif name == "random":
        t = random_tournament(args.n, seed)
    elif name == "blowup":
        if not args.host or not args.weights:
            raise ValueError("blowup needs --host and --weights")
        host = _parse_host(args.host)
        weights = _parse_list("weights", args.weights, float)
        t = blowup(BlowupSpec(host=host, weights=weights), args.n, seed)
    elif name == "flip":
        if not args.infile or args.p is None:
            raise ValueError("flip needs --in and --p")
        t = flip_perturb(_load(args.infile), args.p, seed)
    elif name == "mix":
        if not args.in1 or not args.in2 or args.p is None:
            raise ValueError("mix needs --in1, --in2 and --p")
        t1, t2 = _load(args.in1), _load(args.in2)
        t = mix(t1, t2, MixSpec(p=args.p), seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown construction {name!r}")
    write_trn(t, args.out)
    print(f"# tourprof {__version__} gen {name} n={t.n} seed={seed} "
          f"-> {args.out}", file=sys.stderr)
    return 0


def _profile_row(t: Tournament, args) -> int:
    if t.n < 4:
        raise ValueError(f"profile needs n >= 4 (got n={t.n})")
    p3 = profile3(t)
    if args.mode == "sample":
        if t.n <= EXACT_PROFILE_MAX_N:
            raise ValueError(
                f"exact mode is mandatory for n <= {EXACT_PROFILE_MAX_N}")
        est = sample_profile4(t, samples=args.samples, seed=args.seed)
        dens = tuple(est.estimates[k] for k in ("T4", "C4", "W", "L"))
    else:
        p4 = profile4(t)
        dens = (p4.t4, p4.c4, p4.w, p4.l)
        counts4 = (p4.t4_count, p4.c4_count, p4.w_count, p4.l_count)
    _banner(args)
    print("n,t3,c3,t4,c4,w,l")
    print(",".join([str(t.n), _fmt(p3.t3), _fmt(p3.c3)]
                   + [_fmt(x) for x in dens]))
    if args.counts:
        print("# counts")
        print(",".join(str(x) for x in
                       (t.n, p3.t3_count, p3.c3_count) + counts4))
    return 0


def _cmd_profile(args) -> int:
    _bind()
    if args.counts and args.mode == "sample":
        raise ValueError("--counts requires exact mode")
    return _profile_row(_make_input(args.input), args)


def _cmd_edge_stats(args) -> int:
    if args.moments and args.cdf is not None:
        raise ValueError("edge-stats takes --moments or --cdf, not both")
    _bind()
    t = _make_input(args.input)
    if args.moments:
        rep = moments(t).as_floats()
        _banner(args)
        print("n," + ",".join(rep))
        print(",".join([str(t.n)] + [_fmt(x) for x in rep.values()]))
        return 0
    if args.cdf is not None:
        phi = float(x_cdf(t, args.cdf)[0])
        _banner(args)
        print("n,x,phi")
        print(f"{t.n},{_fmt(args.cdf)},{_fmt(phi)}")
        return 0
    stats = edge_stats(t)
    _banner(args)
    print("u,v,cyc,thru,dom_out,dom_in")
    _write_rows(sys.stdout, (*stats.edges.T, stats.cyc, stats.thru,
                             stats.dom_out, stats.dom_in))
    return 0


_CSV_CHUNK = 1 << 14


def _write_rows(out, columns) -> None:
    """Write equal-length integer columns as CSV rows, _CSV_CHUNK rows
    per write: each chunk is formatted by one %-operation over its
    flattened values, which is far faster than a format per row and
    keeps the Python objects to one chunk's worth."""
    import numpy as np
    row = ",".join(["%d"] * len(columns)) + "\n"
    fmt = row * _CSV_CHUNK
    for i in range(0, len(columns[0]), _CSV_CHUNK):
        block = np.column_stack([c[i:i + _CSV_CHUNK] for c in columns])
        out.write(fmt[:len(block) * len(row)] % tuple(block.ravel().tolist()))


def _cmd_curve(args) -> int:
    if args.grid < 2:
        raise ValueError("--grid must be at least 2")
    from . import bounds
    step = 0.25 / (args.grid - 1)
    grid = [i * step for i in range(args.grid)]
    table = bounds.curve_dataset(grid, which=f"fig{args.fig}")
    out = (open(args.out, "w", encoding="ascii", errors="backslashreplace")
           if args.out else sys.stdout)
    try:
        _banner(args, out)
        print(f"{table.abscissa},upper,lb_variance,lb_flag,conjectured,m",
              file=out)
        for row in table.rows:
            print(",".join([_fmt(row[0]), _fmt(row[1]), _fmt(row[2]),
                            _fmt(row[3]), _fmt(row[4]), str(row[5])]),
                  file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_flags(args) -> int:
    if args.action == "search":
        from . import certificate
        cert = certificate.search_certificate(args.gamma, k=args.k)
        if args.out:
            certificate.write_certificate(cert, args.out)
            print(f"# tourprof {__version__} lambda={_fmt(cert.lam)} "
                  f"-> {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(certificate.certificate_to_text(cert))
        return 0
    from . import flags as flagmod
    if args.action == "enumerate":
        _bind()
        types = flagmod.enumerate_types(args.k)
        _banner(args)
        print("index,code,c3_count")
        for ty in types:
            print(f"{ty.index},{ty.code},{profile3(ty.rep).c3_count}")
        return 0
    if args.action == "table":
        table = flagmod.product_table(args.k)
        if args.out:
            flagmod.write_table(table, args.out)
            print(f"# tourprof {__version__} wrote FLAGTAB k={args.k} "
                  f"({len(table.types)} types) -> {args.out}",
                  file=sys.stderr)
        else:
            sys.stdout.write(flagmod.table_to_text(table))
        return 0
    if args.action == "data":
        if args.out:
            flagmod.write_flag_data(args.out)
        else:
            sys.stdout.write(flagmod.flag_data_text())
        return 0
    if args.action == "moment-check":
        if args.input is None:
            raise ValueError("moment-check needs --in")
        _bind()
        t = _make_input(args.input)
        report = flagmod.moment_consistency_check(t)
        _banner(args)
        print("i,j,lhs,rhs,ok")
        for (i, j), (lhs, rhs) in sorted(report.entries.items()):
            print(f"{i},{j},{lhs},{rhs},{str(lhs == rhs).lower()}")
        if not report.all_ok:
            raise InternalInvariantError("moment consistency failed")
        return 0
    raise ValueError(f"unknown flags action {args.action!r}")


def _cmd_search(args) -> int:
    from . import search as searchmod
    gammas = (_parse_list("gamma", args.gamma, float)
              if args.gamma is not None else list(searchmod.DEFAULT_GAMMAS))
    seeds = (_parse_list("seeds", args.seeds, int)
             if args.seeds is not None else [args.seed])
    penalty = searchmod.DEFAULT_PENALTY if args.penalty is None \
        else args.penalty
    schedule = searchmod.AnnealSchedule(moves=args.moves) \
        if args.moves is not None else None
    points = searchmod.boundary_scan(gammas, n=args.n, seeds=seeds,
                                     penalty=penalty,
                                     schedule=schedule)
    _banner(args)
    print("gamma,n,seed,c3,c4,objective,discovery_flag")
    for p in points:
        print(",".join([_fmt(p.gamma), str(p.n), str(p.seed), _fmt(p.c3),
                        _fmt(p.c4), _fmt(p.objective),
                        str(p.discovery).lower()]))
    return 0


def _cmd_verify(args) -> int:
    if args.cert and args.input:
        raise ValueError("verify takes --cert or --in, not both")
    if args.cert:
        from .certificate import read_certificate, verify_certificate
        report = verify_certificate(_load(args.cert, read_certificate))
        _banner(args)
        print("valid,lambda,min_kappa,delta")
        print(",".join([str(report.valid).lower(), _fmt(report.lam),
                        _fmt(float(report.min_kappa)),
                        _fmt(report.delta)]))
        return 0
    if args.input:
        _bind()
        t = _make_input(args.input)
        report = verify_identities(t)
        _banner(args)
        print("name,ok,lhs,rhs")
        for chk in report.checks:
            print(f"{chk.name},{str(chk.ok).lower()},{chk.lhs},{chk.rhs}")
        if not report.all_ok:
            raise InternalInvariantError("identity check failed")
        return 0
    raise ValueError("verify needs --cert or --in")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tourprof",
        description="Tournament 3/4-profile toolkit: constructions, "
                    "bound curves, flag certificates, and search.")
    ap.add_argument("--version", action="version",
                    version=f"tourprof {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tournament file")
    gen.add_argument("construction", choices=_CONSTRUCTIONS)
    gen.add_argument("--n", type=int, default=None,
                     help="vertex count (not used by mix)")
    gen.add_argument("--s", type=int, default=None,
                     help="interval half-width parameter")
    gen.add_argument("--p", type=float, default=None,
                     help="flip probability (flip) or cross-arc reversal "
                          "probability (mix)")
    gen.add_argument("--host", help="blowup host: Tk, Ck, Rn:seed, or file")
    gen.add_argument("--weights", help="blowup weights, comma separated")
    gen.add_argument("--in", dest="infile", help="input TRN (flip)")
    gen.add_argument("--in1", help="first block (mix)")
    gen.add_argument("--in2", help="second block (mix)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen, needs_n=True)

    prof = sub.add_parser("profile", help="3/4-type density row")
    prof.add_argument("input",
                      help="TRN path or transitive:N|cyclic:N|"
                           "interval:N,S|random:N,SEED")
    prof.add_argument("--mode", choices=("exact", "sample"), default="exact")
    prof.add_argument("--samples", type=int, default=100_000)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--counts", action="store_true",
                      help="also print the integer counts row")
    prof.set_defaults(func=_cmd_profile)

    es = sub.add_parser("edge-stats", help="per-edge statistics")
    es.add_argument("input")
    es.add_argument("--moments", action="store_true",
                    help="print the X/Y/Z moments instead, a closed "
                         "form in the c3, t3, c4 and t4 counts")
    es.add_argument("--cdf", type=float, default=None,
                    help="print the upper tail phi(x) of X instead")
    es.set_defaults(func=_cmd_edge_stats)

    cv = sub.add_parser("curve", help="bound-curve dataset for a figure")
    cv.add_argument("--fig", type=int, choices=(1, 2, 3, 4), required=True)
    cv.add_argument("--grid", type=int, default=101)
    cv.add_argument("--out", default=None)
    cv.set_defaults(func=_cmd_curve)

    fl = sub.add_parser("flags", help="flag algebra operations")
    fl.add_argument("action",
                    choices=("enumerate", "table", "search", "moment-check",
                             "data"))
    fl.add_argument("--k", type=int, default=3,
                    help="type order (enumerate) or flag order (others)")
    fl.add_argument("--gamma", type=float, default=0.0625)
    fl.add_argument("--in", dest="input", help="tournament (moment-check)")
    fl.add_argument("--out", default=None)
    fl.set_defaults(func=_cmd_flags)

    se = sub.add_parser("search", help="annealing scan against the "
                                       "conjectured envelope")
    se.add_argument("--gamma", default=None,
                    help="comma separated target c3 values")
    se.add_argument("--n", type=int, default=64)
    se.add_argument("--seed", type=int, default=0)
    se.add_argument("--seeds", default=None,
                    help="comma separated seed list (overrides --seed)")
    se.add_argument("--penalty", type=float, default=None)
    se.add_argument("--moves", type=int, default=None)
    se.set_defaults(func=_cmd_search)

    ve = sub.add_parser("verify", help="check a certificate file or a "
                                       "tournament's counting identities")
    ve.add_argument("--cert", default=None)
    ve.add_argument("--in", dest="input", default=None)
    ve.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    if getattr(args, "needs_n", False) and args.n is None \
            and args.construction not in ("mix", "flip"):
        ap.error(f"gen {args.construction} needs --n")
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"tourprof: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DataFormatError as exc:
        print(f"tourprof: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, TypeError) as exc:
        print(f"tourprof: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"tourprof: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
