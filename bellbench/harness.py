"""Closed-loop runner, set-up probes, command-line executors and reports."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np
import scipy

# A child that runs longer than this is killed and its operation fails.
CHILD_TIMEOUT_S = 150.0

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bellcat\n"
    "{code}"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Record:
    """One attempted operation: its kind, latency, output and gate verdict."""

    kind: str
    latency: float
    out: Optional[dict]
    problem: Optional[str]


def child_env(root: Path) -> dict:
    """Environment for child interpreters: this one's, with the checkout's source first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def closed_loop(workload, api, seed: int, sizes, *, seconds: Optional[float] = None,
                cycles: Optional[int] = None) -> tuple[list[Record], float]:
    """Run whole cycles, one operation at a time, until `seconds` have passed
    or `cycles` cycles are done.  Returns the records and the wall time."""
    records: list[Record] = []
    started = perf_counter()
    cycle = 0
    while True:
        for op in workload.specs(seed, cycle, sizes):
            if api.tracer is not None:
                api.tracer.op_id = len(records)
            out, problem = None, None
            t0 = perf_counter()
            try:
                out = workload.run(api, op, sizes)
            except Exception:
                problem = "raised: " + traceback.format_exc()
            latency = perf_counter() - t0
            if problem is None:
                with paused(api):
                    try:
                        problem = workload.gate(op, out, sizes)
                    except Exception:
                        problem = "gate raised: " + traceback.format_exc()
            if problem is not None:
                print(f"FAILED {workload.name} cycle {cycle} {op.kind}: {problem}",
                      file=sys.stderr)
            records.append(Record(op.kind, latency, out, problem))
        cycle += 1
        if (cycle >= cycles) if cycles is not None else (perf_counter() - started >= seconds):
            return records, perf_counter() - started


@contextlib.contextmanager
def paused(api):
    """Keep correctness checks out of the trace."""
    if api.tracer is None:
        yield
        return
    api.tracer.paused = True
    try:
        yield
    finally:
        api.tracer.paused = False


def setup_times(workload, root: Path, reps: int) -> list[float]:
    """Fresh-interpreter `import bellcat` plus the workload's state and provider
    construction, timed inside each child."""
    code = SETUP_PROBE.format(code=workload.setup_code)
    times = []
    for _ in range(reps):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(root), cwd=root,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def subprocess_cli(root: Path, scratch: Path):
    """Executor running `python -m bellcat argv` in a fresh interpreter.

    Returns (exit code, stdout, the child's peak RSS in MB).
    """
    env = child_env(root)

    def run(argv: list[str]) -> tuple[int, str, float]:
        with open(scratch / "cli.stdout", "w+b") as out, \
                open(scratch / "cli.stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "bellcat", *argv],
                                    stdout=out, stderr=err, env=env, cwd=root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            out.seek(0)
            return proc.returncode, out.read().decode(), usage.ru_maxrss / 1024.0

    return run


def inprocess_cli(api):
    """Executor calling bellcat.cli.main(argv) in this process (no RSS figure)."""

    def run(argv: list[str]) -> tuple[int, str, None]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = api.cli_main(argv)
        return code, buf.getvalue(), None

    return run


def tail(latencies: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return f"p{p:g}", float(np.percentile(latencies, p))
    return "p50", float(np.percentile(latencies, 50.0))


def peak_rss_mb(records: list[Record]) -> float:
    """Largest command-line child if there were any, else this process."""
    children = [r.out["rss_mb"] for r in records if r.out and r.out.get("rss_mb")]
    if children:
        return max(children)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: Path, workload: str, seed: int, trace: int, threads: dict) -> dict:
    """Where a result came from: code, toolchain, machine, seed and threads."""
    sha, dirty = None, None
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bellcat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "threads": threads,
    }


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def print_metrics(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    """One line per metric: name, value, unit and a note."""
    print(f"# {title}")
    for name, value, unit, note in rows:
        print(f"{name:40s} {value:>18.6g} {unit:8s} {note}".rstrip())

