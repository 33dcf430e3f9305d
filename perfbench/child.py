"""Traced stand-in for the `tourprof` console script, run by the certify
workload's traced ops in a fresh interpreter.

    python3 perfbench/child.py SPANS.json FIRST_ID -- <tourprof arguments>

It times `import tourprof.cli`, records spans around the public calls
into tourprof.flags that the command makes, runs tourprof.cli.main and
writes the spans to SPANS.json for the parent to adopt.  The exit code
is the command's.
"""

import json
import sys
import time
from pathlib import Path

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def _table_order(args, kwargs):
    return {"k": kwargs.get("k", args[0] if args else None)}


def main() -> int:
    out_path, first_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPANS.json FIRST_ID -- ARGS...")
    sys.path.insert(0, str(SRC))
    rec = spans.Recorder(int(first_id))
    start = time.perf_counter()
    import tourprof.cli as cli
    rec.add("cli.import", start, time.perf_counter())
    from tourprof import flags

    spans.install(rec, [
        (flags, "product_table", "flags.product_table", _table_order),
        (flags, "search_certificate", "flags.search_certificate"),
        (flags, "verify_certificate", "flags.verify_certificate"),
        (flags, "write_certificate", "flags.write_certificate"),
        (flags, "read_certificate", "flags.read_certificate"),
    ])
    sys.argv = ["tourprof", *argv]
    try:
        with rec.span("cli.main"):
            code = cli.main(argv)
    finally:
        Path(out_path).write_text(json.dumps(rec.spans), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main())
