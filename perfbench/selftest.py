"""Self-test of the benchmark harness, in seconds.

    python3 perfbench/selftest.py

1. Runs every workload in the smoke setting (small n, short annealing
   schedule, one gamma), untraced and traced, and requires every op to
   pass the output gate and exactly the metrics and units that
   BENCHMARK.json names to be reported.
2. Corrupts one output of each workload's op and requires the op to be
   counted as failed and to contribute no timing.
"""

import json
import sys

import run

CORRUPTIONS = {
    # c4 count + 1 breaks t4 + c4 + w + l = C(n,4).
    "trn-profile": lambda i, out: _bump_counts_c4(out) if i == 1 else out,
    "scan": lambda i, out: out.replace(",false", ",true"),
    "certify": lambda i, out: out.replace("true,", "false,") if i == 1
    else out,
}


def _bump_counts_c4(out: str) -> str:
    lines = out.splitlines()
    fields = lines[-1].split(",")
    fields[4] = str(int(fields[4]) + 1)
    return "\n".join(lines[:-1] + [",".join(fields)]) + "\n"


def check(cond: bool, what: str, failures: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {key: {m["name"]: m["unit"] for m in bench[key]}
                for key in ("end_to_end", "per_layer")}
    failures = []
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json names the harness's workloads", failures)
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run(workload, seed=1, seconds=0, trace=trace,
                                smoke=True)
            units = declared["per_layer" if trace else "end_to_end"]
            check(result["correct"] and result["failed"] == 0
                  and {k: v["unit"] for k, v in result["metrics"].items()}
                  == units,
                  f"{workload} trace={int(trace)}: all ops pass, "
                  f"{len(units)} metrics", failures)
        result, record = run.run(workload, seed=1, seconds=0, trace=False,
                                 smoke=True, corrupt=CORRUPTIONS[workload])
        check(result["attempted"] == 1 and result["failed"] == 1
              and not result["correct"]
              and result["metrics"]["op_s"]["value"] == 0.0
              and all(d["samples"] == 0 for k, d in record["detail"].items()
                      if k in run.STAGES[workload]),
              f"{workload}: a corrupted output fails the op and is not timed",
              failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
