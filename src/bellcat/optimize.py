"""Search for angle configurations that maximize inequality violation.

Two derivative-free stages: a dense grid sweep that evaluates every
combination of gridded directions through a broadcast pair-correlation
table, and local Nelder-Mead polish from the sweep winner or from seeded
random multistarts.  The objective is smooth in the raw angles, so
simplex refinement converges quickly once the sweep lands in the right
basin.

check, objective_value and refine read each configuration through
inequalities.evaluator, which prepares each direction once through the
inequality's kernel (Inequality.kernel).  The sweep prepares each grid
direction through the same kernel into a table of pair values, so every
value it reports equals objective_value bit for bit.  It evaluates the
inequality in sub-blocks of at most _SUB_BLOCK combinations, so its
scratch does not grow with the grid, unless a sink keeps its rows: then
it evaluates one float64 block per grid point of the first direction and
hands each block to the sink as it is, never as a Python object per row,
so a caller that keeps every row holds 8 B per row.
"""

from __future__ import annotations

import math
from operator import add

from . import rng
from .correlations import DegeneratePostselectionError
from .inequalities import CorrelationProvider, InequalityReport, check, evaluator, inequality
from .spins import BudgetExceededError, Direction, _Record

__all__ = [
    "AngleConfig",
    "OptimizationResult",
    "GridTooLargeError",
    "BudgetExceededError",
    "objective_value",
    "grid_sweep",
    "refine",
    "multistart_refine",
]

# Work limits, each checked before anything is drawn or allocated.
# Hard ceiling on resolution**(2 * arity) grid combinations.
GRID_POINT_LIMIT = 10**8
# Ceiling on the rows of one sweep artifact (sweep --output), the same
# resolution**(2 * arity); the sweep holds 8 B per row until it writes.
EXPORT_ROW_LIMIT = 10**7
# Ceiling on starts * max_iter in multistart_refine.
EVALUATION_LIMIT = 10**7

# Most combinations a grid_sweep without a sink evaluates at once: each
# temporary the sides make holds at most 128 KiB of float64, so the sweep's
# scratch stays in cache and does not grow with the resolution.
_SUB_BLOCK = 2**14


class GridTooLargeError(ValueError):
    """Requested sweep exceeds the combination budget."""


class AngleConfig(_Record):
    """An ordered tuple of measurement directions."""

    directions: tuple[Direction, ...]

    def __init__(self, directions: tuple[Direction, ...]) -> None:
        self.__dict__["directions"] = directions

    def flat(self) -> np.ndarray:
        """Angles interleaved as (theta_1, phi_1, theta_2, phi_2, ...)."""
        import numpy as np

        return np.array([v for d in self.directions for v in (d.theta, d.phi)])

    @classmethod
    def from_flat(cls, values) -> "AngleConfig":
        import numpy as np

        vals = np.asarray(values, dtype=float).ravel()
        if vals.size % 2 != 0:
            raise ValueError(f"need an even number of angles, got {vals.size}")
        dirs = tuple(
            Direction(vals[2 * i], vals[2 * i + 1]) for i in range(vals.size // 2)
        )
        return cls(dirs)


class OptimizationResult(_Record):
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
    trace: Optional[tuple[tuple[int, float], ...]]

    def __init__(self, kind, best_config, best_value, evaluations, converged, trace=None) -> None:
        d = self.__dict__
        d["kind"], d["best_config"], d["best_value"] = kind, best_config, best_value
        d["evaluations"], d["converged"], d["trace"] = evaluations, converged, trace

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
    (positive means violation).  Like check, it raises
    DegeneratePostselectionError where a postselected pair is undefined;
    the searches read such a configuration as NaN instead.
    """
    spec, lhs_rhs = evaluator(provider, kind)
    return spec.objective(*lhs_rhs(config.flat()))


def _better(value: float, best: float) -> bool:
    """The searches' rule for a new best: a larger value, or a number over NaN."""
    return value > best or (math.isnan(best) and not math.isnan(value))


def _grid_directions(resolution: int) -> list[Direction]:
    import numpy as np

    if resolution == 1:
        return [Direction(0.0, 0.0)]
    thetas = np.linspace(0.0, math.pi, resolution)
    # phi uses the same inclusive spacing as theta; 2*pi folds back to 0, so
    # e.g. resolution 5 puts phi = 0, pi/2, pi, 3*pi/2 on the grid.
    phis = [j * 2.0 * math.pi / (resolution - 1) for j in range(resolution)]
    return [Direction(t, p) for t in thetas for p in phis]


def grid_sweep(provider: CorrelationProvider, kind: str, resolution: int,
               sink: Optional[Callable[[np.ndarray, list[tuple[float, float]]], None]] = None,
               ) -> OptimizationResult:
    """Exhaustive sweep over a (theta, phi) product grid per direction.

    The pair values the inequality reads are computed once per ordered
    direction pair, into a (g, g) float64 table filled row by row, g grid
    directions per axis.  The spec's sides are evaluated on broadcast views
    of that table, one first direction at a time; without a sink, in
    sub-blocks along the second direction of at most _SUB_BLOCK elements
    (at least one row), so the scratch does not grow with g**(arity - 1).
    A pair whose read raises DegeneratePostselectionError (a postselected
    pair with no conclusive weight) is NaN in the table, and each other
    value equals objective_value.  The winner is the lexicographically
    first combination with the largest value that is not NaN, or the first
    combination if every value is NaN.

    sink, if given, is called once per grid index ia of the first
    direction, in order, as sink(block, angles), after the block's winner
    bookkeeping (writing into a block cannot change the winner).  block is
    the whole C-contiguous float64 array of shape (g,) * (arity - 1), as
    evaluated; its element [j, k, ...] is the objective of directions
    (ia, j, k, ...).  angles lists the g grid directions' canonical
    (theta, phi) pairs.  The blocks in call order, each in C index order,
    are every row in lexicographic order; keeping them holds 8 B per row.

    Raises
    ------
    ValueError
        If resolution < 1.
    GridTooLargeError
        If resolution**(2 * arity) exceeds GRID_POINT_LIMIT.
    BudgetExceededError
        If a sink is given and resolution**(2 * arity), the rows it
        receives, exceeds EXPORT_ROW_LIMIT.
    """
    import numpy as np

    spec = inequality(kind)
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    total = resolution ** (2 * spec.arity)
    error, limit, what = ((GridTooLargeError, GRID_POINT_LIMIT, f"combinations for {kind}")
                          if sink is None else
                          (BudgetExceededError, EXPORT_ROW_LIMIT, f"rows for a {kind} export"))
    if total > limit:
        # a float holds at most about 1.8e308; an int past that cannot be formatted as one
        shown = f"{total:.3g}" if total < 1e308 else "more than 1e+308"
        raise error(f"resolution {resolution} gives {shown} {what}, limit is {limit:.0e}")
    dirs = _grid_directions(resolution)
    g = len(dirs)
    angles = [(d.theta, d.phi) for d in dirs]

    prepare, pair = spec.kernel(provider)
    factors = [prepare(d.theta, d.phi) for d in dirs]
    table = np.empty((g, g))
    for ia, fa in enumerate(factors):
        entries = []
        for fb in factors:
            try:
                entries.append(pair(fa, fb))
            except DegeneratePostselectionError:
                entries.append(math.nan)
        table[ia] = entries

    # Block axes are directions 1..arity-1 with direction 0 fixed at ia.  A
    # pair (0, j) reads row ia of the table along axis j; a pair (i, j)
    # reads the table, transposed if i > j, along axes i and j.  A sub-block
    # takes rows start:start + step of axis 1, so each view along axis 1 is
    # cut there.  The views' indices are built once per sub-block and serve
    # every ia.  A sink keeps every block, so its sub-block is the whole block.
    step = g if sink is not None else max(1, _SUB_BLOCK // g ** (spec.arity - 2))
    sub_blocks = []
    for start in range(0, g, step):
        views = []
        for i, j in spec.pairs:
            axes = (j,) if i == 0 else (i, j)
            index = tuple((slice(start, start + step) if k == 1 else slice(None))
                          if k in axes else None for k in range(1, spec.arity))
            views.append((i == 0, table if i < j else table.T, index))
        sub_blocks.append((start, views))

    best_val = math.nan
    best_idx: tuple[int, ...] = ()
    for ia in range(g):
        row = table[ia]
        for start, views in sub_blocks:
            values = [(row if first else src)[index] for first, src, index in views]
            sub = spec.objective(*spec.sides(*values))
            pos = int(sub.argmax())
            val = sub.item(pos)
            if math.isnan(val):
                # argmax stops at the first NaN; take the first largest number instead
                numbers = np.flatnonzero(~np.isnan(sub))
                if numbers.size:
                    pos = int(numbers[sub.flat[numbers].argmax()])
                    val = sub.item(pos)
            if not best_idx or _better(val, best_val):
                row_index, *rest = np.unravel_index(pos, sub.shape)
                best_val, best_idx = val, (ia, start + row_index, *rest)
            if sink is not None:
                sink(sub, angles)

    config = AngleConfig(tuple(dirs[i] for i in best_idx))
    return OptimizationResult(kind, config, best_val, g ** spec.arity, True, None)


def _simplex_around(x0: np.ndarray, edge: float) -> np.ndarray:
    import numpy as np

    simplex = np.tile(x0, (x0.size + 1, 1))
    for i in range(x0.size):
        simplex[i + 1, i] += edge
    return simplex


def _nelder_mead(f: Callable[[list[float]], float], sim: list[list[float]], fatol: float,
                 maxiter: int, callback: Callable[[], None],
                 ) -> tuple[list[float], float, bool]:
    """Minimize f from the initial simplex sim; return (x, fun, converged).

    Ported expression for expression, sorts and stopping test included,
    from the reference that tests/test_optimize.py compares it with bit for
    bit, for refine's case only: standard coefficients, no bounds, no
    evaluation cap, and no x-spread test (with an infinite tolerance it
    fails only on NaN, which Direction rejects).  The initial simplex is
    iteration 1, so at most maxiter - 1 steps run, each followed by one
    callback; converged means maxiter was not reached.

    The simplex is a list of points, each a list of Python floats; f gets
    a point's list itself and must not modify it.  numpy serves only the
    re-sorts, which take argsort's order, ties included, and the final
    np.min, whose result (the sign of a zero included) is fun.  Every float
    operation is the reference's, element by element: the centroid adds the
    rows in order, as its axis-0 reduction does (builtin sum would not), and
    a NaN value fails the spread test, as it does there.
    """
    import numpy as np

    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(sim[0])
    fsim = [f(x) for x in sim]
    ind = np.array(fsim).argsort().tolist()
    sim = [sim[i] for i in ind]
    fsim = [fsim[i] for i in ind]
    iterations = 1
    while iterations < maxiter:
        best = fsim[0]
        # The reference's all(abs(best - v) <= fatol for v in fsim[1:]) on a
        # list sorted with NaN last; the first term fails, as it does there,
        # on two -inf values even when fatol is inf.
        if fsim[1] - best <= fatol and fsim[-1] - best <= fatol:
            break
        xbar = sim[0]
        for row in sim[1:-1]:
            xbar = map(add, xbar, row)
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = [(1 + rho) * a - rho * b for a, b in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < best:
            xe = [(1 + rho * chi) * a - rho * chi * b for a, b in zip(xbar, worst)]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = [(1 + psi * rho) * a - psi * rho * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = [(1 - psi) * a + psi * b for a, b in zip(xbar, worst)]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                x0 = sim[0]
                for j in range(1, n + 1):
                    sim[j] = [a + sigma * (b - a) for a, b in zip(x0, sim[j])]
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.array(fsim).argsort().tolist()
        sim = [sim[i] for i in ind]
        fsim = [fsim[i] for i in ind]
        callback()
    return sim[0], np.min(fsim), iterations < maxiter


def refine(provider: CorrelationProvider, kind: str, start: AngleConfig,
           max_iter: int = 2000, tol: float = 1e-10) -> OptimizationResult:
    """Nelder-Mead polish of a starting configuration.

    Terminates on objective-value spread below tol (the angle spread is
    deliberately not a criterion: flat directions are common at optima).
    A negative or non-finite tol raises ValueError before any evaluation.
    Never returns a configuration worse than the start.

    max_iter counts the initial simplex as iteration 1, so at most
    max_iter - 1 simplex steps run and the trace has at most max_iter - 1
    entries, one per step; converged is False when max_iter is reached.
    With max_iter=1 only the start and the dim + 1 simplex vertices are
    evaluated, the trace is empty and converged is False.

    The start and every simplex point are scored on their interleaved
    angles by the kind's inequalities.evaluator, as objective_value scores
    a configuration, except that one whose read raises
    DegeneratePostselectionError scores NaN.  If the final simplex minimum
    is NaN, which such points or a custom provider's NaN values can cause,
    the start and its value are returned.
    The simplex is Python lists, and its loop calls numpy only to re-sort
    (argsort) and for the final minimum.
    """
    _check_tol(tol)
    spec, lhs_rhs = evaluator(provider, kind)
    objective = spec.objective
    x0 = start.flat()
    try:
        start_value = objective(*lhs_rhs(x0))
    except DegeneratePostselectionError:
        start_value = math.nan
    best, evals = -math.inf, 1
    trace: list[tuple[int, float]] = []

    def negated(x: list[float]) -> float:
        nonlocal best, evals
        try:
            value = objective(*lhs_rhs(x))
        except DegeneratePostselectionError:
            value = math.nan
        evals += 1
        if value > best:
            best = value
        return -value

    def on_iteration() -> None:
        trace.append((len(trace), best))

    x, fun, converged = _nelder_mead(negated, _simplex_around(x0, 0.1).tolist(), tol,
                                     max_iter, on_iteration)
    best_config = AngleConfig.from_flat(x)
    best_value = -float(fun)
    if start_value > best_value or math.isnan(best_value):
        best_config, best_value = start, start_value
    return OptimizationResult(kind, best_config, best_value, evals, converged, tuple(trace))


def _check_tol(tol: float) -> None:
    """Refuse a tol for which refine's stopping test can never pass."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _check_starts(n_starts: int, n_extra: int, seed: int, max_iter: int, tol: float) -> None:
    """multistart_refine's checks of its random and n_extra fixed starts,
    seed, budget and tol, for a caller that must refuse before any work."""
    _check_tol(tol)
    if n_starts < 0:
        raise ValueError(f"n_starts must be non-negative, got {n_starts}")
    if n_starts < 1 and not n_extra:
        raise ValueError("need at least one start")
    rng.check_seed(seed)
    total = n_starts + n_extra
    if total * max(max_iter, 1) > EVALUATION_LIMIT:
        raise BudgetExceededError(
            f"{total} starts x {max_iter} iterations exceeds the evaluation "
            f"limit {EVALUATION_LIMIT:.0e}"
        )


def multistart_refine(provider: CorrelationProvider, kind: str, n_starts: int,
                      seed: int, max_iter: int = 2000, tol: float = 1e-10,
                      extra_starts: tuple[AngleConfig, ...] = (),
                      ) -> OptimizationResult:
    """Best refinement over seeded random starts plus optional fixed starts.

    Start k draws its angles from the deterministic uniform stream, so two
    runs with equal arguments agree bit for bit.  Ties keep the earliest
    start, and a run with a number beats one with NaN.  Each random start
    is drawn just before it is refined, so memory does not grow with
    n_starts.

    Raises
    ------
    ValueError
        If there is no start, seed is not an integer in [0, 2**64), or tol
        is negative or not finite; nothing is drawn.
    BudgetExceededError
        If the starts, extra ones included, times max_iter (at least 1)
        exceed EVALUATION_LIMIT; nothing is drawn.
    """
    import numpy as np

    dim = 2 * inequality(kind).arity
    _check_starts(n_starts, len(extra_starts), seed, max_iter, tol)

    def starts():
        yield from extra_starts
        for k in range(n_starts):
            row = rng.uniforms(seed, dim, k * dim)
            angles = np.empty(dim)
            angles[0::2] = row[0::2] * math.pi
            angles[1::2] = row[1::2] * 2.0 * math.pi
            yield AngleConfig.from_flat(angles)

    best: Optional[OptimizationResult] = None
    evals = 0
    for start in starts():
        run = refine(provider, kind, start, max_iter=max_iter, tol=tol)
        evals += run.evaluations
        if best is None or _better(run.best_value, best.best_value):
            best = run
    assert best is not None
    return OptimizationResult(
        kind, best.best_config, best.best_value, evals, best.converged, None
    )
