"""bellcat benchmark: one seeded closed-loop workload per invocation.

    python3 bellbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload runs untraced for whole cycles until S seconds
have passed, every operation is checked for correctness, and the
end-to-end metrics are printed.  With --trace 1 a fixed number of cycles
runs untraced here and again in a child interpreter that wraps bellcat's
public functions, and the per-layer metrics are printed.  The last line
of standard output is always one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from anywhere; the program under test is the bellcat source in
src/ next to this directory, and nothing else.  Results, provenance and
spans are also written to .bellbench_out/ in that checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP pools are pinned to one thread before numpy loads, here
# and, through the inherited environment, in every child interpreter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bellbench_out"

# Name -> unit of the metrics on the last line with --trace 0: the steady
# ones.  The median and the throughput are printed above it; on a host whose
# speed switches between two levels they move with the share of each run
# spent in the fast one (see DESIGN.md).
END_TO_END = {
    "setup_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

WORKLOAD_NAMES = ("immunity_scan", "violation_search", "sampled_bell_test", "cli_roundtrip")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--sizes", default="full", choices=("full", "tiny"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-child", dest="traced_child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_bellcat() -> float:
    """Import the checkout's bellcat; returns the import time in seconds."""
    if not (SRC / "bellcat" / "__init__.py").is_file():
        sys.exit(f"error: no bellcat source at {SRC}")
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    import bellcat
    import bellcat.cli  # noqa: F401
    elapsed = perf_counter() - started
    if Path(bellcat.__file__).resolve().parent != SRC / "bellcat":
        sys.exit(f"error: imported bellcat from {bellcat.__file__}, not {SRC}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_bellcat()

    import harness
    import tracer as tracing
    import workloads

    sizes = workloads.TINY if args.sizes == "tiny" else workloads.FULL
    workload = workloads.WORKLOADS[args.workload]
    scratch = OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    cycles = sizes.trace_cycles[args.workload]

    if args.traced_child:
        tracer = tracing.Tracer()
        api = tracer.install(str(scratch))
        api.cli = harness.inprocess_cli(api)
        try:
            records, _ = harness.closed_loop(workload, api, args.seed, sizes, cycles=cycles)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["cli.import_s"] = import_s
        metrics["cli.bytes_written"] = sum(r.out.get("bytes", 0) for r in records if r.out)
        harness.write_json(Path(args.traced_child), {
            "metrics": metrics, "op_seconds": sum(r.latency for r in records),
            "attempted": len(records), "failed": sum(r.problem is not None for r in records),
        })
        tracer.save_spans(OUT / f"{stem}-spans.npz")
        return 0

    info = harness.provenance(ROOT, args.workload, args.seed, args.trace,
                              {var: os.environ.get(var) for var in THREAD_VARS})
    print("# provenance " + json.dumps(info, sort_keys=True))
    api = tracing.plain_api(str(scratch))

    if args.trace:
        api.cli = harness.inprocess_cli(api)
        records, _ = harness.closed_loop(workload, api, args.seed, sizes, cycles=cycles)
        child_out = OUT / f"{stem}-traced.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
             "--sizes", args.sizes, "--traced-child", str(child_out)],
            cwd=ROOT, check=True, timeout=harness.CHILD_TIMEOUT_S)
        traced = json.loads(child_out.read_text(encoding="utf-8"))
        metrics = traced["metrics"]
        untraced_s = sum(r.latency for r in records)
        metrics["trace.overhead_ratio"] = traced["op_seconds"] / untraced_s - 1.0
        attempted = len(records) + traced["attempted"]
        failed = sum(r.problem is not None for r in records) + traced["failed"]
        rows = [(name, metrics[name], unit, "moves " + moves)
                for name, (unit, _, moves) in tracing.PER_LAYER.items()]
        harness.print_metrics(f"per-layer, {cycles} cycle(s) traced in a child process", rows)
        print("# exact-repeat counts: " + ", ".join(
            f"{name}={metrics[name]!r}" for name in tracing.EXACT_REPEAT))
        units = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
    else:
        reps = harness.setup_times(workload, ROOT, sizes.setup_reps)
        api.cli = harness.subprocess_cli(ROOT, scratch)
        records, wall = harness.closed_loop(workload, api, args.seed, sizes,
                                            seconds=args.seconds)
        latencies = [r.latency for r in records]
        tail_label, op_tail_s = harness.tail(latencies)
        work, work_seconds = workload.work(records)
        attempted = len(records)
        failed = sum(r.problem is not None for r in records)
        metrics = {
            "setup_s": statistics.median(reps),
            "op_tail_s": op_tail_s,
            "peak_rss_mb": harness.peak_rss_mb(records),
        }
        rows = [
            ("setup_s", metrics["setup_s"], "s", f"median of {len(reps)} fresh interpreters"),
            ("wall_s", wall, "s", "timed region"),
            ("op_p50_s", statistics.median(latencies), "s", f"n={attempted}"),
            ("op_tail_s", op_tail_s, "s", f"{tail_label}, n={attempted}"),
            ("failed_ratio", failed / attempted, "ratio", f"{failed}/{attempted}"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", ""),
            (workload.work_metric, work / work_seconds if work_seconds else 0.0, "1/s",
             "per second of operation time"),
            *((name, value, unit, "") for name, (value, unit) in workload.extra(records).items()),
        ]
        harness.print_metrics(f"end-to-end, {args.workload}, seed {args.seed}", rows)
        units = END_TO_END

    harness.write_json(OUT / f"{stem}-trace{args.trace}.json", {
        "provenance": info, "attempted": attempted, "failed": failed,
        "metrics": {name: value for name, value, _, _ in rows},
        "latencies_s": [r.latency for r in records],
        "problems": [r.problem for r in records if r.problem],
    })
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
