"""The four closed-loop workloads of the bellcat benchmark.

Each workload is a fixed cycle of operations.  Inputs are raw floats and
integers drawn from the benchmark's own numpy generator, seeded by
(seed, workload, cycle), so a seed fixes every input and a cycle's inputs
do not depend on how many cycles ran before it.  Only those numbers cross
into bellcat; building Directions and states from them is program work
and happens inside the timed operation.

A workload supplies:

* ``specs(seed, cycle, sizes)``: the operations of one cycle;
* ``run(api, op, sizes)``: perform one operation through the api (timed);
* ``gate(op, out, sizes)``: correctness check, ``None`` or a message
  (not timed, and not traced);
* ``work(records)``: (units of work, seconds of operation time), whose
  ratio is the throughput reported under the name ``work_metric``;
* ``extra(records)``: further end-to-end metrics of the workload.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import bellcat as bc

TWO_PI = 2.0 * math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)
TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Work per operation and cycle counts; FULL is the benchmark, TINY the self-tests."""

    scan_configs: int
    refine_iter: int
    chsh_resolution: int
    triple_resolution: int
    starts: int
    shots: int
    pair_shots: int
    sampled_resolution: int
    cli_shots: int
    cli_starts: int
    export_resolution: int
    setup_reps: int
    trace_cycles: dict


FULL = Sizes(
    scan_configs=2000, refine_iter=400, chsh_resolution=7, triple_resolution=9,
    starts=6, shots=3_000_000, pair_shots=20_000, sampled_resolution=5,
    cli_shots=200_000, cli_starts=3, export_resolution=4, setup_reps=5,
    trace_cycles={"immunity_scan": 6, "violation_search": 1,
                  "sampled_bell_test": 2, "cli_roundtrip": 1},
)

TINY = Sizes(
    scan_configs=20, refine_iter=20, chsh_resolution=3, triple_resolution=3,
    starts=1, shots=2000, pair_shots=200, sampled_resolution=2,
    cli_shots=1000, cli_starts=1, export_resolution=2, setup_reps=1,
    trace_cycles={"immunity_scan": 1, "violation_search": 1,
                  "sampled_bell_test": 1, "cli_roundtrip": 1},
)


@dataclass(frozen=True)
class Op:
    """One operation: its kind and the raw inputs the benchmark generated."""

    kind: str
    params: dict


def _generator(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], cycle])


def _sphere(gen: np.random.Generator, count: int) -> list[float]:
    """count directions uniform on the sphere, as interleaved (theta, phi)."""
    theta = np.arccos(gen.uniform(-1.0, 1.0, count))
    phi = gen.uniform(0.0, TWO_PI, count)
    return np.column_stack([theta, phi]).ravel().tolist()


def _coeffs(gen: np.random.Generator, max_interference: float = 1.0) -> tuple:
    """(alpha, gamma1, gamma2) with |sin(2 alpha)| <= max_interference."""
    alpha = 0.5 * math.asin(gen.uniform(-max_interference, max_interference))
    if gen.uniform() < 0.5:
        alpha = math.copysign(math.pi / 2.0, alpha) - alpha
    g1, g2 = gen.uniform(0.0, TWO_PI, 2).tolist()
    return alpha, g1, g2


def _state(api, two_s: int, coeffs: tuple):
    return api.CatState(api.SpinQuantum(two_s), api.CatCoefficients(*coeffs))


def _latency(records) -> float:
    return sum(r.latency for r in records)


class Workload:
    """Defaults shared by the workloads."""

    def extra(self, records) -> dict:
        return {}


# --------------------------------------------------------------- immunity_scan

class ImmunityScan(Workload):
    """Integer-spin cats scored on random CHSH configurations, then refined.

    Mirrors Tier-1 acceptance criterion 3: four scalar correlation calls
    per configuration and a 400-iteration Nelder-Mead polish from the
    best one.  Loads correlations and spins; rng and cli stay idle.
    """

    name = "immunity_scan"
    work_metric = "configs_per_s"
    setup_code = (
        "s = bellcat.CatState(bellcat.SpinQuantum(2), bellcat.CatCoefficients(0.3, 0.1, 0.2))\n"
        "p = bellcat.full_provider(s)\n"
        "s = bellcat.CatState(bellcat.SpinQuantum(4), bellcat.CatCoefficients(0.3, 0.1, 0.2))\n"
        "p = bellcat.full_provider(s)\n"
    )

    def specs(self, seed: int, cycle: int, sizes: Sizes) -> list[Op]:
        gen = _generator(seed, self.name, cycle)
        ops = []
        for two_s in (2, 4):
            coeffs = _coeffs(gen)
            angles = _sphere(gen, 4 * sizes.scan_configs)
            ops.append(Op("scan", {"two_s": two_s, "coeffs": coeffs, "angles": angles}))
        return ops

    def run(self, api, op: Op, sizes: Sizes) -> dict:
        p = op.params
        state = _state(api, p["two_s"], p["coeffs"])
        direction, corr = api.Direction, api.correlation
        angles = p["angles"]
        best, best_dirs, nonzero_nlc = -1.0, None, 0
        for i in range(0, len(angles), 8):
            a = direction(angles[i], angles[i + 1])
            b = direction(angles[i + 2], angles[i + 3])
            c = direction(angles[i + 4], angles[i + 5])
            d = direction(angles[i + 6], angles[i + 7])
            ab, ac = corr(state, a, b), corr(state, a, c)
            db, dc = corr(state, d, b), corr(state, d, c)
            if ab.p_nlc != 0.0 or ac.p_nlc != 0.0 or db.p_nlc != 0.0 or dc.p_nlc != 0.0:
                nonzero_nlc += 1
            value = abs(ab.p_total + ac.p_total + db.p_total - dc.p_total)
            if value > best:
                best, best_dirs = value, (a, b, c, d)
        refined = api.refine(api.full_provider(state), "chsh", api.AngleConfig(best_dirs),
                             max_iter=sizes.refine_iter)
        return {"scan_max": best, "refined": refined.best_value,
                "nonzero_nlc": nonzero_nlc, "configs": len(angles) // 8}

    def gate(self, op: Op, out: dict, sizes: Sizes):
        if out["nonzero_nlc"]:
            return f"{out['nonzero_nlc']} configurations with p_nlc != 0.0"
        for key in ("scan_max", "refined"):
            if not out[key] <= 2.0 + TOL:
                return f"{key} {out[key]!r} exceeds 2 at 2s={op.params['two_s']}"
        return None

    def work(self, records) -> tuple[float, float]:
        return sum(r.out["configs"] for r in records if r.out), _latency(records)


# ------------------------------------------------------------ violation_search

SEARCH_KINDS = ("chsh", "bell", "quadratic", "wigner")


class ViolationSearch(Workload):
    """Sweep, polish and multistart searches over kind x spin x provider.

    One task per (kind, 2s) with the full provider plus one local-model
    CHSH task.  Loads optimize and inequalities heavily, correlations
    moderately; rng is touched only by the multistart draws, sampling never.
    """

    name = "violation_search"
    work_metric = "tasks_per_s"
    setup_code = (
        "for two_s in (1, 2, 3):\n"
        "    c = bellcat.CatCoefficients(-0.78, 0.1, 0.2)\n"
        "    s = bellcat.CatState(bellcat.SpinQuantum(two_s), c)\n"
        "    p = bellcat.full_provider(s)\n"
        "p = bellcat.lc_provider(s)\n"
    )

    def specs(self, seed: int, cycle: int, sizes: Sizes) -> list[Op]:
        gen = _generator(seed, self.name, cycle)
        tasks = [(kind, two_s, "full") for kind in SEARCH_KINDS for two_s in (1, 2, 3)]
        tasks.append(("chsh", 1, "lc"))
        ops = []
        for kind, two_s, provider in tasks:
            coeffs = _coeffs(gen)
            if two_s == 1:
                # the s = 1/2 gate needs a maximally entangled state
                coeffs = (-math.pi / 4.0, *coeffs[1:])
            ops.append(Op("search", {
                "kind": kind, "two_s": two_s, "provider": provider, "coeffs": coeffs,
                "start_seed": int(gen.integers(0, 2**62)),
            }))
        return ops

    def run(self, api, op: Op, sizes: Sizes) -> dict:
        p = op.params
        state = _state(api, p["two_s"], p["coeffs"])
        provider = (api.full_provider(state) if p["provider"] == "full"
                    else api.lc_provider(state))
        kind = p["kind"]
        resolution = sizes.chsh_resolution if kind == "chsh" else sizes.triple_resolution
        sweep = api.grid_sweep(provider, kind, resolution)
        polished = api.refine(provider, kind, sweep.best_config)
        multi = api.multistart_refine(provider, kind, sizes.starts, p["start_seed"])
        return {"best": max(sweep.best_value, polished.best_value, multi.best_value)}

    def gate(self, op: Op, out: dict, sizes: Sizes):
        p, best = op.params, out["best"]
        if not math.isfinite(best):
            return f"non-finite best value {best!r}"
        classical = p["provider"] == "lc" or p["two_s"] % 2 == 0
        if p["kind"] == "chsh":
            if not best <= TSIRELSON + TOL:
                return f"chsh {best!r} above the Tsirelson bound"
            if classical and not best <= 2.0 + TOL:
                return f"chsh {best!r} above 2 for 2s={p['two_s']} ({p['provider']})"
            if not classical and p["two_s"] == 1 and abs(best - TSIRELSON) > 1e-6:
                return f"s=1/2 chsh reached {best!r}, not 2*sqrt(2)"
        elif p["kind"] in ("bell", "quadratic") and classical and not best <= TOL:
            # the search maximizes the overshoot past the classical bound
            return f"{p['kind']} overshoot {best!r} for 2s={p['two_s']} ({p['provider']})"
        return None

    def work(self, records) -> tuple[float, float]:
        return sum(1 for r in records if r.problem is None), _latency(records)

    def extra(self, records) -> dict:
        verified = [r.latency for r in records if r.problem is None]
        return {"time_to_solution_s": (float(np.median(verified)) if verified else math.inf, "s")}


# ----------------------------------------------------------- sampled_bell_test

class SampledBellTest(Workload):
    """Monte Carlo shots in raw and postselected modes, plus sampled sweeps.

    2s = 1 has no inconclusive branch, 2s = 2 and 3 do.  The sweeps go
    through sampled_provider, so derive and the per-pair cache are used,
    and report() re-checks the winner from the cache.  Loads rng and
    sampling; correlations only computes the outcome probabilities.
    """

    name = "sampled_bell_test"
    work_metric = "shots_per_s"
    setup_code = (
        "for two_s in (1, 2, 3):\n"
        "    c = bellcat.CatCoefficients(0.2, 0.1, 0.2)\n"
        "    s = bellcat.CatState(bellcat.SpinQuantum(two_s), c)\n"
        "    p = bellcat.sampled_provider(s, 1000, 7)\n"
    )

    def specs(self, seed: int, cycle: int, sizes: Sizes) -> list[Op]:
        gen = _generator(seed, self.name, cycle)
        ops = []
        for two_s in (1, 2, 3):
            for postselect in (False, True):
                # |sin 2 alpha| <= 1/2 keeps the conclusive weight >= 4^(1-2s) / 2
                ops.append(Op("sample", {
                    "two_s": two_s, "coeffs": _coeffs(gen, 0.5), "angles": _sphere(gen, 2),
                    "postselect": postselect, "seed": int(gen.integers(0, 2**62)),
                }))
        repeat = ops[cycle % len(ops)]
        ops[cycle % len(ops)] = Op("sample", {**repeat.params, "repeat": True})
        for two_s in (1, 2, 3):
            ops.append(Op("sweep", {
                "two_s": two_s, "coeffs": _coeffs(gen, 0.5),
                "seed": int(gen.integers(0, 2**62)),
            }))
        return ops

    def run(self, api, op: Op, sizes: Sizes) -> dict:
        p = op.params
        state = _state(api, p["two_s"], p["coeffs"])
        if op.kind == "sample":
            t = p["angles"]
            stats = api.sample_outcomes(state, api.Direction(t[0], t[1]),
                                        api.Direction(t[2], t[3]), sizes.shots, p["seed"],
                                        postselect=p["postselect"])
            return {"stats": stats, "shots": sizes.shots}
        provider = api.sampled_provider(state, sizes.pair_shots, p["seed"])
        sweep = api.grid_sweep(provider, "chsh", sizes.sampled_resolution)
        return {"sweep": sweep, "report": sweep.report(provider)}

    def gate(self, op: Op, out: dict, sizes: Sizes):
        p = op.params
        state = bc.CatState(bc.SpinQuantum(p["two_s"]), bc.CatCoefficients(*p["coeffs"]))
        if op.kind == "sample":
            t = p["angles"]
            a, b = bc.Direction(t[0], t[1]), bc.Direction(t[2], t[3])
            stats = out["stats"]
            mode = "postselected" if p["postselect"] else "raw"
            exact = bc.correlation(state, a, b, mode=mode).p_total
            if abs(stats.estimate - exact) > 5.0 * stats.stderr + 1e-12:
                return f"estimate {stats.estimate!r} is over 5 stderr from {exact!r}"
            if p.get("repeat"):
                again = bc.sample_outcomes(state, a, b, sizes.shots, p["seed"],
                                           postselect=p["postselect"])
                if again.counts != stats.counts:
                    return "repeated seed gave different counts"
            return None
        sweep, report = out["sweep"], out["report"]
        if abs(report.lhs - sweep.best_value) > 1e-12:
            return f"report() lhs {report.lhs!r} differs from sweep {sweep.best_value!r}"
        exact = bc.check(bc.full_provider(state), "chsh", *sweep.best_config.directions).lhs
        # four raw-mode estimates, each with standard error at most 1/sqrt(n)
        if abs(report.lhs - exact) > 5.0 * 4.0 / math.sqrt(sizes.pair_shots):
            return f"sampled chsh {report.lhs!r} is far from exact {exact!r}"
        return None

    def work(self, records) -> tuple[float, float]:
        samples = [r for r in records if r.kind == "sample"]
        return sum(r.out["shots"] for r in samples if r.out), _latency(samples)


# --------------------------------------------------------------- cli_roundtrip

class CliRoundtrip(Workload):
    """One `python -m bellcat` call per operation, each in a fresh interpreter.

    Covers import cost, argument and config handling, and the export
    write path, where the sweep emits every row instead of an argmax.
    Loads cli and, through the exports, optimize; the library work of the
    other commands is small next to the interpreter start and import.
    """

    name = "cli_roundtrip"
    work_metric = "rows_per_s"
    setup_code = "import bellcat.cli\nbellcat.cli.build_parser()\n"

    def specs(self, seed: int, cycle: int, sizes: Sizes) -> list[Op]:
        gen = _generator(seed, self.name, cycle)
        ops = []

        def state_args(two_s, coeffs):
            return ["--two-s", str(two_s), "--alpha", repr(coeffs[0]),
                    "--gamma1", repr(coeffs[1]), "--gamma2", repr(coeffs[2])]

        def pair(t, i):
            return f"{t[2 * i]!r},{t[2 * i + 1]!r}"

        two_s = 1 + cycle % 3
        t = _sphere(gen, 2)
        coeffs = _coeffs(gen, 0.5)
        ops.append(Op("correlate", {"argv": ["correlate", *state_args(two_s, coeffs),
                                             "--a", pair(t, 0), "--b", pair(t, 1)],
                                    "two_s": two_s, "coeffs": coeffs, "angles": t}))
        shift = float(gen.uniform(0.0, TWO_PI))
        config = [0.0, shift, math.pi / 4, shift, math.pi / 4, shift + math.pi,
                  math.pi / 2, shift]
        ops.append(Op("check", {"argv": ["check", "--two-s", "1", "--kind", "chsh",
                                         *(x for i, name in enumerate("abcd")
                                           for x in (f"--{name}", pair(config, i)))]}))
        t = _sphere(gen, 2)
        coeffs = _coeffs(gen, 0.5)
        seed_value = int(gen.integers(0, 2**62))
        postselect = cycle % 2 == 1
        ops.append(Op("sample", {
            "argv": ["sample", *state_args(two_s, coeffs), "--a", pair(t, 0), "--b", pair(t, 1),
                     "--n", str(sizes.cli_shots), "--seed", str(seed_value)]
                    + (["--postselect"] if postselect else []),
            "two_s": two_s, "coeffs": coeffs, "angles": t, "seed": seed_value,
            "postselect": postselect}))
        coeffs = (-math.pi / 4.0, *_coeffs(gen)[1:])
        ops.append(Op("optimize", {"argv": ["optimize", *state_args(1, coeffs), "--kind", "chsh",
                                            "--starts", str(sizes.cli_starts),
                                            "--seed", str(int(gen.integers(0, 2**62))),
                                            "--resolution", "5"]}))
        t = _sphere(gen, 1)
        ops.append(Op("coherent", {"argv": ["coherent", "--two-s", "61", "--dir", pair(t, 0),
                                            "--sign", "+" if gen.uniform() < 0.5 else "-"]}))
        for fmt in ("csv", "json"):
            ops.append(Op("export", {
                "argv": ["sweep", *state_args(int(gen.integers(1, 4)), _coeffs(gen)),
                         "--kind", "chsh", "--resolution", str(sizes.export_resolution),
                         "--format", fmt],
                "format": fmt}))
        return ops

    def run(self, api, op: Op, sizes: Sizes) -> dict:
        argv = list(op.params["argv"])
        path = None
        if op.kind == "export":
            path = os.path.join(api.scratch, f"export.{op.params['format']}")
            argv += ["--output", path]
        code, stdout, rss_mb = api.cli(argv)
        written = len(stdout.encode())
        if path is not None and os.path.exists(path):
            written += os.path.getsize(path)
        return {"code": code, "stdout": stdout, "rss_mb": rss_mb, "path": path,
                "bytes": written, "rows": self.rows(sizes) if path else 0}

    def gate(self, op: Op, out: dict, sizes: Sizes):
        try:
            return self._gate(op, out, sizes)
        finally:
            if out["path"] is not None and os.path.exists(out["path"]):
                os.remove(out["path"])

    def _gate(self, op: Op, out: dict, sizes: Sizes):
        expected_code = 10 if op.kind == "check" else 0
        if out["code"] != expected_code:
            return f"{op.kind} exited {out['code']}, expected {expected_code}"
        payload = json.loads(out["stdout"])
        p = op.params
        if op.kind in ("correlate", "sample"):
            state = bc.CatState(bc.SpinQuantum(p["two_s"]), bc.CatCoefficients(*p["coeffs"]))
            t = p["angles"]
            a, b = bc.Direction(t[0], t[1]), bc.Direction(t[2], t[3])
        if op.kind == "correlate":
            exact = bc.correlation(state, a, b).p_total
            if payload["p_total"] != exact:
                return f"p_total {payload['p_total']!r} != {exact!r}"
            return None
        if op.kind == "check":
            ok = payload["violated"] and abs(payload["lhs"] - TSIRELSON) <= TOL
            return None if ok else f"Tsirelson check returned {payload}"
        if op.kind == "sample":
            counts = bc.sample_outcomes(state, a, b, sizes.cli_shots, p["seed"],
                                        postselect=p["postselect"]).counts
            if payload["counts"] != counts:
                return f"counts {payload['counts']} != {counts}"
            return None
        if op.kind == "optimize":
            best = payload["best_value"]
            return None if abs(best - TSIRELSON) <= 1e-6 else f"optimize reached {best!r}"
        if op.kind == "coherent":
            amps = payload["amplitudes"]
            norm = sum(re * re + im * im for re, im in amps)
            ok = len(amps) == 62 and len(payload["m_values"]) == 62 and abs(norm - 1.0) <= TOL
            return None if ok else f"coherent state has {len(amps)} amplitudes, norm {norm!r}"
        rows = self.rows(sizes)
        if payload["evaluations"] != rows:
            return f"sweep reports {payload['evaluations']} evaluations, expected {rows}"
        header = "kind," + ",".join(f"theta_{x},phi_{x}" for x in "abcd") + ",value"
        if p["format"] == "csv":
            with open(out["path"], encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
                count = sum(1 for _ in fh)
            if first != header or count != rows:
                return f"csv header {first!r} with {count} rows, expected {rows}"
            return None
        with open(out["path"], encoding="utf-8") as fh:
            artifact = json.load(fh)
        widths = {len(row) for row in artifact["rows"]}
        if len(artifact["rows"]) != rows or widths != {9}:
            return f"json artifact has {len(artifact['rows'])} rows of widths {widths}"
        return None

    @staticmethod
    def rows(sizes: Sizes) -> int:
        return (sizes.export_resolution ** 2) ** 4

    def work(self, records) -> tuple[float, float]:
        exports = [r for r in records if r.kind == "export"]
        return sum(r.out["rows"] for r in exports if r.out), _latency(exports)


WORKLOADS = {w.name: w for w in (ImmunityScan(), ViolationSearch(), SampledBellTest(),
                                 CliRoundtrip())}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
