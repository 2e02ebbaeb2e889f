"""Span tracing of bellcat from the outside, and the per-layer metrics.

The tracer replaces each public function at the binding its caller
resolves (``bellcat.optimize.refine`` for multistart_refine's inner calls,
``bellcat.sampling.rng`` attributes for the sampler, and so on) with a
wrapper that records a span: name, start, end, parent span and operation
id.  Providers are wrapped by building a CorrelationProvider around
instrumented callables.  Spans stay in memory until the run ends.

A layer's busy time is its self time: span time minus the time of child
spans, summed over the layer's spans.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns
from types import SimpleNamespace

import numpy as np

import bellcat as bc
import bellcat.cli

# (span name, defining module, attribute, modules whose callers resolve it there)
TRACED = (
    ("rng.integers", "bellcat.rng", "integers", ("bellcat.rng",)),
    ("rng.uniforms", "bellcat.rng", "uniforms", ("bellcat.rng",)),
    ("rng.derive", "bellcat.rng", "derive", ("bellcat.rng",)),
    ("spins.Direction", "bellcat.spins", "Direction", ("bellcat.optimize", "bellcat.cli")),
    ("spins.coherent_state", "bellcat.spins", "coherent_state", ("bellcat.cli",)),
    ("correlations.correlation", "bellcat.correlations", "correlation",
     ("bellcat.inequalities", "bellcat.cli")),
    ("correlations.lc_correlation_closed", "bellcat.correlations", "lc_correlation_closed",
     ("bellcat.inequalities",)),
    ("correlations.wigner_joint", "bellcat.correlations", "wigner_joint",
     ("bellcat.inequalities",)),
    ("correlations.rho_elements_closed", "bellcat.correlations", "rho_elements_closed",
     ("bellcat.correlations", "bellcat.inequalities", "bellcat.sampling")),
    ("inequalities.check", "bellcat.inequalities", "check", ("bellcat.optimize", "bellcat.cli")),
    ("optimize.grid_sweep", "bellcat.optimize", "grid_sweep", ("bellcat.cli",)),
    ("optimize.refine", "bellcat.optimize", "refine", ("bellcat.optimize",)),
    ("optimize.multistart_refine", "bellcat.optimize", "multistart_refine", ("bellcat.cli",)),
    ("sampling.outcome_probabilities", "bellcat.sampling", "outcome_probabilities",
     ("bellcat.sampling",)),
    ("sampling.sample_outcomes", "bellcat.sampling", "sample_outcomes",
     ("bellcat.sampling", "bellcat.cli")),
    ("cli.main", "bellcat.cli", "main", ()),
)

PROVIDER_FACTORIES = ("full_provider", "lc_provider", "sampled_provider")

# Counts that two same-seed traced runs must reproduce exactly.
EXACT_REPEAT = (
    "rng.words", "correlations.calls", "optimize.sweep_combos", "optimize.refine_evals",
    "optimize.multistart_evals", "sampling.conclusive_fraction",
    "inequalities.sampled_cache_hit_ratio",
)

# Per-layer metric -> (unit, better, what it should move).
PER_LAYER = {
    "rng.words": ("count", "lower",
                  "shots_per_s, peak_rss_mb on sampled_bell_test; nothing on immunity_scan"),
    "rng.busy_s": ("s", "lower", "shots_per_s on sampled_bell_test"),
    "rng.ns_per_word": ("ns/word", "lower", "shots_per_s on sampled_bell_test"),
    "rng.bytes_computed": ("B", "lower", "peak_rss_mb on sampled_bell_test"),
    "rng.derive_calls": ("count", "lower", "wall_s on sampled_bell_test"),
    "spins.directions_built": ("count", "lower", "configs_per_s on immunity_scan"),
    "spins.direction_busy_s": (
        "s", "lower", "configs_per_s on immunity_scan; op_p50_s on cli_roundtrip a little"),
    "spins.coherent_calls": ("count", "lower", "op_p50_s on cli_roundtrip a little"),
    "spins.coherent_busy_s": ("s", "lower", "op_p50_s on cli_roundtrip a little"),
    "correlations.calls": (
        "count", "lower", "configs_per_s (immunity_scan), time_to_solution_s (violation_search)"),
    "correlations.busy_s": ("s", "lower",
                            "configs_per_s, time_to_solution_s; nothing on sampled_bell_test"),
    "correlations.us_per_call": ("us/call", "lower", "configs_per_s on immunity_scan"),
    "correlations.rho_closed_busy_s": ("s", "lower", "configs_per_s on immunity_scan"),
    "correlations.joint_calls": ("count", "lower", "time_to_solution_s on violation_search"),
    "inequalities.provider_calls": ("count", "lower", "time_to_solution_s on violation_search"),
    "inequalities.provider_busy_s": ("s", "lower",
                                     "time_to_solution_s; wall_s on sampled_bell_test"),
    "inequalities.check_calls": ("count", "lower", "time_to_solution_s on violation_search"),
    "inequalities.sampled_cache_hit_ratio": ("ratio", "higher", "wall_s on sampled_bell_test"),
    "inequalities.sampled_cache_entries": ("count", "lower", "wall_s on sampled_bell_test"),
    "optimize.sweep_table_s": ("s", "lower", "time_to_solution_s on violation_search"),
    "optimize.sweep_reduce_s": ("s", "lower", "time_to_solution_s; rows_per_s on cli_roundtrip"),
    "optimize.sweep_combos": ("count", "lower", "time_to_solution_s on violation_search"),
    "optimize.ns_per_combo": ("ns/combo", "lower", "time_to_solution_s on violation_search"),
    "optimize.distinct_pair_ratio": ("ratio", "higher", "time_to_solution_s on violation_search"),
    "optimize.refine_evals": ("count", "lower", "time_to_solution_s on violation_search"),
    "optimize.refine_iterations": ("count", "lower", "time_to_solution_s on violation_search"),
    "optimize.us_per_eval": ("us/eval", "lower", "time_to_solution_s on violation_search"),
    "optimize.converged_ratio": ("ratio", "higher", "time_to_solution_s on violation_search"),
    "optimize.multistart_evals": ("count", "lower", "time_to_solution_s on violation_search"),
    "optimize.sink_rows": ("count", "lower", "rows_per_s, peak_rss_mb on cli_roundtrip"),
    "sampling.calls": ("count", "lower", "shots_per_s on sampled_bell_test"),
    "sampling.busy_s": ("s", "lower", "shots_per_s on sampled_bell_test"),
    "sampling.ns_per_shot": ("ns/shot", "lower", "shots_per_s on sampled_bell_test"),
    "sampling.probabilities_busy_s": ("s", "lower", "shots_per_s on sampled_bell_test"),
    "sampling.conclusive_fraction": ("ratio", "higher", "shots_per_s on sampled_bell_test"),
    "cli.import_s": ("s", "lower", "setup_s everywhere; op_p50_s on cli_roundtrip"),
    "cli.main_s": ("s", "lower", "op_p50_s, rows_per_s on cli_roundtrip"),
    "cli.format_s": ("s", "lower", "rows_per_s, peak_rss_mb on cli_roundtrip"),
    "cli.bytes_written": ("B", "lower", "rows_per_s, peak_rss_mb on cli_roundtrip"),
    "trace.overhead_ratio": ("ratio", "lower", "none: the cost of tracing itself"),
}


def plain_api(scratch: str) -> SimpleNamespace:
    """The bellcat entry points the workloads call, untraced.

    The caller sets ``cli``, the executor for command lines.
    """
    return SimpleNamespace(
        tracer=None, cli=None, scratch=scratch,
        Direction=bc.Direction, SpinQuantum=bc.SpinQuantum, CatState=bc.CatState,
        CatCoefficients=bc.CatCoefficients, AngleConfig=bc.AngleConfig,
        correlation=bc.correlation, full_provider=bc.full_provider,
        lc_provider=bc.lc_provider, sampled_provider=bc.sampled_provider,
        grid_sweep=bc.grid_sweep, refine=bc.refine, multistart_refine=bc.multistart_refine,
        sample_outcomes=bc.sample_outcomes, cli_main=bellcat.cli.main,
    )


def _physical(d) -> tuple:
    x, y, z = d.unit_vector()
    return (round(x, 9) + 0.0, round(y, 9) + 0.0, round(z, 9) + 0.0)


class Tracer:
    """Records spans around bellcat calls while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.paused = False
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._sweep_pairs: set | None = None
        self._physical: dict[tuple[float, float], tuple] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """fn wrapped to record a span; after(args, kwargs, result) adds counts."""
        nid = self._intern(name)
        name_id, parent, op, start, end, stack = (
            self.name_id, self.parent, self.op, self.start, self.end, self.stack)

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------------- hooks

    def _count_arg(self, key: str, position: int, keyword: str):
        def after(args, kwargs, _result):
            self.counts[key] += args[position] if len(args) > position else kwargs[keyword]
        return after

    def _after_sample(self, args, kwargs, result) -> None:
        self.counts["sampling.shots"] += result.n_total
        self.counts["sampling.conclusive"] += result.n_conclusive
        if self.stack and self.name_id[self.stack[-1]] == self._sampled_id:
            self.counts["inequalities.sampled_misses"] += 1

    def _after_refine(self, args, kwargs, result) -> None:
        self.counts["optimize.refine_calls"] += 1
        self.counts["optimize.refine_evals"] += result.evaluations
        self.counts["optimize.refine_iterations"] += len(result.trace or ())
        self.counts["optimize.refine_converged"] += bool(result.converged)

    def _after_sweep(self, args, kwargs, result) -> None:
        self.counts["optimize.sweep_combos"] += result.evaluations

    def _after_multistart(self, args, kwargs, result) -> None:
        self.counts["optimize.multistart_evals"] += result.evaluations

    def _after_provider(self, args, kwargs, result) -> None:
        pairs = self._sweep_pairs
        if pairs is not None and self.stack and self.name_id[self.stack[-1]] == self._sweep_id:
            key = []
            for d in args[:2]:
                angles = (d.theta, d.phi)
                if angles not in self._physical:
                    self._physical[angles] = _physical(d)
                key.append(self._physical[angles])
            pairs.add(tuple(key))
            self.counts["optimize.table_entries"] += 1

    # -------------------------------------------------------- instrumentation

    def provider(self, provider):
        """A CorrelationProvider whose callables record provider spans."""
        label = "lc" if provider.provenance == "lc-only" else provider.provenance
        name = f"inequalities.provider.{label}"
        joint = provider.joint
        return bc.CorrelationProvider(
            provider.provenance,
            self.span(name, provider.correlation, self._after_provider),
            None if joint is None else self.span(name, joint, self._after_provider),
        )

    def _grid_sweep(self, traced):
        def grid_sweep(provider, kind, resolution, sink=None):
            if sink is not None:
                inner_sink = sink

                def sink(angles, value):
                    self.counts["optimize.sink_rows"] += 1
                    inner_sink(angles, value)
            self._sweep_pairs = set()
            try:
                return traced(provider, kind, resolution, sink=sink)
            finally:
                self.counts["optimize.distinct_pairs"] += len(self._sweep_pairs)
                self._sweep_pairs = None
        return grid_sweep

    def install(self, scratch: str) -> SimpleNamespace:
        """Patch every binding in TRACED and return the traced api."""
        hooks = {
            "rng.integers": self._count_arg("rng.words", 1, "count"),
            "rng.uniforms": self._count_arg("rng.floats", 1, "count"),
            "sampling.sample_outcomes": self._after_sample,
            "optimize.grid_sweep": self._after_sweep,
            "optimize.refine": self._after_refine,
            "optimize.multistart_refine": self._after_multistart,
        }
        self._sweep_id = self._intern("optimize.grid_sweep")
        self._sampled_id = self._intern("inequalities.provider.sampled")
        wrapped = {}
        for name, module, attr, bindings in TRACED:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.span(name, original, hooks.get(name))
            if name == "optimize.grid_sweep":
                wrapper = self._grid_sweep(wrapper)
            wrapped[attr] = wrapper
            for binding in bindings:
                self._patch(importlib.import_module(binding), attr, wrapper)
        for factory in PROVIDER_FACTORIES:
            original = getattr(bc.inequalities, factory)
            wrapped[factory] = self._factory(original)
            self._patch(bellcat.cli, factory, wrapped[factory])
        api = plain_api(scratch)
        for key, value in wrapped.items():
            if hasattr(api, key):
                setattr(api, key, value)
        api.cli_main = wrapped["main"]
        api.tracer = self
        return api

    def _factory(self, original):
        def factory(*args, **kwargs):
            return self.provider(original(*args, **kwargs))
        return factory

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # ---------------------------------------------------------------- output

    def save_spans(self, path) -> None:
        """Write the spans: parallel arrays indexed by span, and the name table."""
        np.savez(path, name_id=np.asarray(self.name_id), parent=np.asarray(self.parent),
                 op=np.asarray(self.op), start_ns=np.asarray(self.start),
                 end_ns=np.asarray(self.end), names=np.array(self.names))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counts (cli.import_s and
        cli.bytes_written and trace.overhead_ratio are added by the caller)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        incl = np.bincount(ids, weights=dur, minlength=n_names) / 1e9
        self_s = np.bincount(ids, weights=own, minlength=n_names) / 1e9

        def pick(table, *names):
            return sum(table[self._ids[n]].item() for n in names if n in self._ids)

        def layer(prefix):
            return float(sum(self_s[i] for i, n in enumerate(self.names)
                             if n.startswith(prefix + ".")))

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        providers = [n for n in self.names if n.startswith("inequalities.provider.")]
        sweep_children = np.zeros(len(dur), dtype=bool)
        if providers and "optimize.grid_sweep" in self._ids:
            provider_ids = [self._ids[n] for n in providers]
            under = np.zeros(len(dur), dtype=bool)
            under[has_parent] = ids[parent[has_parent]] == self._ids["optimize.grid_sweep"]
            sweep_children = under & np.isin(ids, provider_ids)
        scalar = ("correlations.correlation", "correlations.lc_correlation_closed",
                  "correlations.wigner_joint")
        corr_calls = pick(calls, *scalar)
        sampled_calls = pick(calls, "inequalities.provider.sampled")
        reduce_s = pick(self_s, "optimize.grid_sweep")
        return {
            "rng.words": c["rng.words"],
            "rng.busy_s": layer("rng"),
            "rng.ns_per_word": ratio(layer("rng") * 1e9, c["rng.words"]),
            "rng.bytes_computed": 8 * (c["rng.words"] + c["rng.floats"]),
            "rng.derive_calls": pick(calls, "rng.derive"),
            "spins.directions_built": pick(calls, "spins.Direction"),
            "spins.direction_busy_s": pick(incl, "spins.Direction"),
            "spins.coherent_calls": pick(calls, "spins.coherent_state"),
            "spins.coherent_busy_s": pick(incl, "spins.coherent_state"),
            "correlations.calls": corr_calls,
            "correlations.busy_s": layer("correlations"),
            "correlations.us_per_call": ratio(pick(incl, *scalar) * 1e6, corr_calls),
            "correlations.rho_closed_busy_s": pick(incl, "correlations.rho_elements_closed"),
            "correlations.joint_calls": pick(calls, "correlations.wigner_joint"),
            "inequalities.provider_calls": pick(calls, *providers),
            "inequalities.provider_busy_s": pick(self_s, *providers),
            "inequalities.check_calls": pick(calls, "inequalities.check"),
            "inequalities.sampled_cache_hit_ratio": ratio(
                sampled_calls - c["inequalities.sampled_misses"], sampled_calls),
            "inequalities.sampled_cache_entries": c["inequalities.sampled_misses"],
            "optimize.sweep_table_s": float(dur[sweep_children].sum() / 1e9),
            "optimize.sweep_reduce_s": reduce_s,
            "optimize.sweep_combos": c["optimize.sweep_combos"],
            "optimize.ns_per_combo": ratio(reduce_s * 1e9, c["optimize.sweep_combos"]),
            "optimize.distinct_pair_ratio": ratio(c["optimize.distinct_pairs"],
                                                  c["optimize.table_entries"]),
            "optimize.refine_evals": c["optimize.refine_evals"],
            "optimize.refine_iterations": c["optimize.refine_iterations"],
            "optimize.us_per_eval": ratio(pick(incl, "optimize.refine") * 1e6,
                                          c["optimize.refine_evals"]),
            "optimize.converged_ratio": ratio(c["optimize.refine_converged"],
                                              c["optimize.refine_calls"]),
            "optimize.multistart_evals": c["optimize.multistart_evals"],
            "optimize.sink_rows": c["optimize.sink_rows"],
            "sampling.calls": pick(calls, "sampling.sample_outcomes"),
            "sampling.busy_s": layer("sampling"),
            "sampling.ns_per_shot": ratio(pick(incl, "sampling.sample_outcomes") * 1e9,
                                          c["sampling.shots"]),
            "sampling.probabilities_busy_s": pick(incl, "sampling.outcome_probabilities"),
            "sampling.conclusive_fraction": ratio(c["sampling.conclusive"], c["sampling.shots"]),
            "cli.main_s": pick(incl, "cli.main"),
            "cli.format_s": pick(self_s, "cli.main"),
        }
