"""Search for angle configurations that maximize inequality violation.

Two derivative-free stages: a dense grid sweep that evaluates every
combination of gridded directions through a broadcast pair-correlation
table, and local Nelder-Mead polish (scipy) from the sweep winner or from
seeded random multistarts.  The objective is smooth in the raw angles, so
simplex refinement converges quickly once the sweep lands in the right
basin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from . import rng
from .inequalities import CorrelationProvider, InequalityReport, check, evaluate, inequality
from .spins import Direction

__all__ = [
    "AngleConfig",
    "OptimizationResult",
    "GridTooLargeError",
    "GRID_POINT_LIMIT",
    "objective_value",
    "grid_sweep",
    "refine",
    "multistart_refine",
]

# Hard ceiling on resolution**(2 * arity) grid combinations.
GRID_POINT_LIMIT = 10**8


class GridTooLargeError(ValueError):
    """Requested sweep exceeds the combination budget."""


@dataclass(frozen=True)
class AngleConfig:
    """An ordered tuple of measurement directions."""

    directions: tuple[Direction, ...]

    def flat(self) -> np.ndarray:
        """Angles interleaved as (theta_1, phi_1, theta_2, phi_2, ...)."""
        return np.array([v for d in self.directions for v in (d.theta, d.phi)])

    @classmethod
    def from_flat(cls, values) -> "AngleConfig":
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size % 2 != 0:
            raise ValueError(f"need an even number of angles, got {vals.size}")
        dirs = tuple(
            Direction(vals[2 * i], vals[2 * i + 1]) for i in range(vals.size // 2)
        )
        return cls(dirs)


@dataclass(frozen=True)
class OptimizationResult:
    """Best configuration found by a sweep or refinement.

    best_value is the raw objective: the |combination| for "chsh", and the
    overshoot lhs-vs-bound for the other kinds (positive means the
    inequality is violated there).  trace, when present, records
    (iteration, best value so far) pairs from the refinement loop.
    """

    kind: str
    best_config: AngleConfig
    best_value: float
    evaluations: int
    converged: bool
    trace: Optional[tuple[tuple[int, float], ...]] = None

    def report(self, provider: CorrelationProvider) -> InequalityReport:
        """Re-check the winning configuration with full report bookkeeping."""
        return check(provider, self.kind, *self.best_config.directions)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "best_config": [[d.theta, d.phi] for d in self.best_config.directions],
            "best_value": self.best_value,
            "evaluations": self.evaluations,
            "converged": self.converged,
            "trace": None if self.trace is None else [list(t) for t in self.trace],
        }


def objective_value(provider: CorrelationProvider, kind: str,
                    config: AngleConfig) -> float:
    """Scalar being maximized, shared by both search stages.

    The (lhs, rhs) that check reports, reduced by Inequality.objective:
    |combination| for chsh, the overshoot -margin for the other kinds
    (positive means violation).
    """
    spec, lhs, rhs = evaluate(provider, kind, config.directions)
    return spec.objective(lhs, rhs)


def _grid_directions(resolution: int) -> list[Direction]:
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if resolution == 1:
        return [Direction(0.0, 0.0)]
    thetas = np.linspace(0.0, math.pi, resolution)
    # phi uses the same inclusive spacing as theta; 2*pi folds back to 0, so
    # e.g. resolution 5 puts phi = 0, pi/2, pi, 3*pi/2 on the grid.
    phis = [j * 2.0 * math.pi / (resolution - 1) for j in range(resolution)]
    return [Direction(t, p) for t in thetas for p in phis]


def grid_sweep(provider: CorrelationProvider, kind: str, resolution: int,
               sink: Optional[Callable[[tuple[float, ...], float], None]] = None,
               ) -> OptimizationResult:
    """Exhaustive sweep over a (theta, phi) product grid per direction.

    The pair values the inequality reads are computed once per ordered
    direction pair, and the spec's sides are evaluated on broadcast views
    of that table, chunked over the first direction to bound memory, so
    every row equals objective_value.  The winner is the lexicographically
    first maximizing combination.

    sink, if given, receives every evaluated row as
    (interleaved angles tuple, objective value) in lexicographic order.

    Raises
    ------
    GridTooLargeError
        If resolution**(2 * arity) exceeds GRID_POINT_LIMIT.
    """
    spec = inequality(kind)
    total = resolution ** (2 * spec.arity)
    if total > GRID_POINT_LIMIT:
        raise GridTooLargeError(
            f"resolution {resolution} gives {total:.3g} combinations for {kind}, "
            f"limit is {GRID_POINT_LIMIT:.0e}"
        )
    dirs = _grid_directions(resolution)
    g = len(dirs)
    angles = [(d.theta, d.phi) for d in dirs]

    pair = spec.reader(provider)
    table = np.array([[pair(da, db) for db in dirs] for da in dirs], dtype=float)

    # Block axes are directions 1..arity-1 with direction 0 fixed at ia.  A
    # pair (0, j) reads row ia of the table along axis j; a pair (i, j)
    # reads the table, transposed if i > j, along axes i and j.
    views = []
    for i, j in spec.pairs:
        axes = (j,) if i == 0 else (i, j)
        index = tuple(slice(None) if k in axes else None for k in range(1, spec.arity))
        views.append((i, j, index))

    best_val = -math.inf
    best_idx: tuple[int, ...] = ()
    for ia in range(g):
        values = [(table[ia] if i == 0 else table if i < j else table.T)[index]
                  for i, j, index in views]
        block = spec.objective(*spec.sides(*values))
        flat_pos = int(np.argmax(block))
        val = float(block.flat[flat_pos])
        if val > best_val:
            best_val = val
            best_idx = (ia, *np.unravel_index(flat_pos, block.shape))
        if sink is not None:
            prefix = angles[ia]
            for rest, value in np.ndenumerate(block):
                parts = prefix
                for k in rest:
                    parts = parts + angles[k]
                sink(parts, float(value))

    config = AngleConfig(tuple(dirs[i] for i in best_idx))
    return OptimizationResult(kind, config, best_val, g ** spec.arity, True, None)


def _simplex_around(x0: np.ndarray, edge: float) -> np.ndarray:
    simplex = np.tile(x0, (x0.size + 1, 1))
    for i in range(x0.size):
        simplex[i + 1, i] += edge
    return simplex


def refine(provider: CorrelationProvider, kind: str, start: AngleConfig,
           max_iter: int = 2000, tol: float = 1e-10) -> OptimizationResult:
    """Nelder-Mead polish of a starting configuration.

    Terminates on objective-value spread below tol (the angle spread is
    deliberately not a criterion: flat directions are common at optima).
    Never returns a configuration worse than the start.
    """
    start_value = objective_value(provider, kind, start)
    x0 = start.flat()
    state = {"best": -math.inf, "evals": 1}
    trace: list[tuple[int, float]] = []

    def negated(x: np.ndarray) -> float:
        value = objective_value(provider, kind, AngleConfig.from_flat(x))
        state["evals"] += 1
        if value > state["best"]:
            state["best"] = value
        return -value

    def on_iteration(_xk: np.ndarray) -> None:
        trace.append((len(trace), state["best"]))

    result = minimize(
        negated,
        x0,
        method="Nelder-Mead",
        callback=on_iteration,
        options={
            "initial_simplex": _simplex_around(x0, 0.1),
            "fatol": tol,
            "xatol": np.inf,
            "maxiter": max_iter,
            "maxfev": 10**9,
        },
    )
    best_config = AngleConfig.from_flat(result.x)
    best_value = -float(result.fun)
    if start_value > best_value:
        best_config, best_value = start, start_value
    return OptimizationResult(
        kind, best_config, best_value, state["evals"], bool(result.success),
        tuple(trace),
    )


def multistart_refine(provider: CorrelationProvider, kind: str, n_starts: int,
                      seed: int, max_iter: int = 2000, tol: float = 1e-10,
                      extra_starts: tuple[AngleConfig, ...] = (),
                      ) -> OptimizationResult:
    """Best refinement over seeded random starts plus optional fixed starts.

    Start k draws its angles from the deterministic uniform stream, so two
    runs with equal arguments agree bit for bit.  Ties keep the earliest
    start.
    """
    dim = 2 * inequality(kind).arity
    if n_starts < 1 and not extra_starts:
        raise ValueError("need at least one start")
    u = rng.uniforms(seed, n_starts * dim).reshape(n_starts, dim) if n_starts else None
    starts = list(extra_starts)
    for k in range(n_starts):
        row = u[k]
        angles = np.empty(dim)
        angles[0::2] = row[0::2] * math.pi
        angles[1::2] = row[1::2] * 2.0 * math.pi
        starts.append(AngleConfig.from_flat(angles))
    best: Optional[OptimizationResult] = None
    evals = 0
    for start in starts:
        run = refine(provider, kind, start, max_iter=max_iter, tol=tol)
        evals += run.evaluations
        if best is None or run.best_value > best.best_value:
            best = run
    assert best is not None
    return OptimizationResult(
        kind, best.best_config, best.best_value, evals, best.converged, None
    )
