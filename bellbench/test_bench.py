"""Fast self-tests of the benchmark at tiny sizes.

    python3 -m pytest bellbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_bellcat()

import bellcat as bc  # noqa: E402
import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCRIPT = Path(run.__file__).resolve()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--sizes", "tiny"],
        capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in lines)


def test_benchmark_json_names_the_printed_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_prints_every_metric_with_its_unit(name):
    lines, result = bench(name, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    workload = workloads.WORKLOADS[name]
    expected = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                "failed_ratio": "ratio", "peak_rss_mb": "MB", workload.work_metric: "1/s"}
    if name == "violation_search":
        expected["time_to_solution_s"] = "s"
    for metric, unit in expected.items():
        assert printed(lines, metric, unit), f"{metric} [{unit}] missing from {name}"
    assert lines[0].startswith("# provenance ")
    info = json.loads(lines[0][len("# provenance "):])
    assert {"git_sha", "git_dirty", "python", "numpy", "scipy", "nproc", "seed",
            "threads"} <= set(info)
    assert set(info["threads"].values()) == {"1"}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric(name):
    lines, result = bench(name, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _, _) in tracing.PER_LAYER.items()}
    for metric, (unit, _, _) in tracing.PER_LAYER.items():
        assert printed(lines, metric, unit), f"{metric} [{unit}] missing from {name}"


@pytest.mark.parametrize("name", ["violation_search", "sampled_bell_test"])
def test_same_seed_traced_runs_repeat_counts_exactly(name):
    first = bench(name, trace=1, seed=5)[1]["metrics"]
    second = bench(name, trace=1, seed=5)[1]["metrics"]
    for metric in tracing.EXACT_REPEAT:
        assert first[metric]["value"] == second[metric]["value"], metric
    assert first["rng.words"]["value"] > 0
    assert first["optimize.sweep_combos"]["value"] > 0


def closed_loop_failures(name: str, **overrides) -> float:
    api = tracing.plain_api(str(run.OUT / "scratch"))
    for key, value in overrides.items():
        setattr(api, key, value)
    records, _ = harness.closed_loop(workloads.WORKLOADS[name], api, 1, workloads.TINY,
                                     cycles=1)
    return sum(r.problem is not None for r in records) / len(records)


def test_provider_returning_one_fails_the_search_gates():
    def fake(state, mode="raw"):
        return bc.CorrelationProvider("full", lambda a, b: 1.0, lambda a, b, sa, sb: 1.0)

    assert closed_loop_failures("violation_search", full_provider=fake) > 0.0


def test_nonzero_interference_fails_the_immunity_gate():
    def leaky(state, a, b, mode="raw"):
        exact = bc.correlation(state, a, b, mode=mode)
        return bc.CorrelationBreakdown(exact.p_total, exact.p_lc, 1e-3, 1.0, mode)

    assert closed_loop_failures("immunity_scan", correlation=leaky) > 0.0


def test_biased_sampler_fails_the_sampling_gate():
    def biased(state, a, b, n, seed, postselect=False):
        stats = bc.sample_outcomes(state, a, b, n, seed, postselect=postselect)
        return bc.SampleStats(stats.n_total, stats.counts, stats.estimate + 0.5,
                              stats.stderr, stats.seed, stats.postselect)

    assert closed_loop_failures("sampled_bell_test", sample_outcomes=biased) > 0.0


def test_wrong_exit_code_fails_the_cli_gate():
    api = tracing.plain_api(str(run.OUT / "scratch"))
    api.cli = lambda argv: (0, harness.inprocess_cli(api)(argv)[1], None)
    records, _ = harness.closed_loop(workloads.WORKLOADS["cli_roundtrip"], api, 1,
                                     workloads.TINY, cycles=1)
    assert [r.kind for r in records if r.problem] == ["check"]


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert harness.tail(list(range(1000)))[0] == "p99"
    assert harness.tail(list(range(100)))[0] == "p90"
    assert harness.tail(list(range(21)))[0] == "p50"
    assert math.isclose(harness.tail(list(range(101)))[1], 90.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SCRIPT.parent, tmp_path / SCRIPT.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{SCRIPT.parent.name}/run.py", "--workload", "immunity_scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
