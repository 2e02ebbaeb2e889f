"""Grid sweep and simplex refinement."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_direction, random_state
from reference import sweep_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcat import (
    INEQUALITIES,
    AngleConfig,
    BudgetExceededError,
    CatCoefficients,
    CatState,
    CorrelationProvider,
    DegeneratePostselectionError,
    Direction,
    GridTooLargeError,
    SpinQuantum,
    check,
    correlation,
    full_provider,
    grid_sweep,
    lc_provider,
    multistart_refine,
    objective_value,
    refine,
    sampled_provider,
    singlet,
)
from bellcat import optimize, rng
from bellcat.inequalities import Inequality
from bellcat.optimize import _nelder_mead, _simplex_around

PI = math.pi
TSIRELSON = AngleConfig((
    Direction(0.0, 0.0),
    Direction(PI / 4, 0.0),
    Direction(PI / 4, PI),
    Direction(PI / 2, 0.0),
))


angle = st.floats(-2 * PI, 2 * PI, allow_nan=False)
direction = st.builds(Direction, angle, angle)


def full_half():
    return full_provider(singlet(SpinQuantum(1)))


def nan_region_provider():
    """A provider whose values are NaN wherever the two axes read lie more
    than 0.25 rad apart in theta; built-in providers never return NaN."""
    full = full_provider(CatState(SpinQuantum(1), CatCoefficients(0.4, 0.2)), "postselected")

    def holed(reader):
        def read(a, b, *signs):
            return math.nan if abs(a.theta - b.theta) > 0.25 else reader(a, b, *signs)
        return read

    return CorrelationProvider("full", holed(full.correlation), holed(full.joint))


def all_nan_provider():
    """A provider whose every value is NaN."""
    return CorrelationProvider("custom", lambda a, b: math.nan, lambda a, b, *signs: math.nan)


def nan_at_pole_provider():
    """The full provider of a 2s = 1 cat, but NaN wherever the first axis
    read is the pole (0, 0); built-in providers never return NaN."""
    full = full_provider(CatState(SpinQuantum(1), CatCoefficients(0.4, 0.2)))

    def holed(reader):
        def read(a, b, *signs):
            return math.nan if (a.theta, a.phi) == (0.0, 0.0) else reader(a, b, *signs)
        return read

    return CorrelationProvider("custom", holed(full.correlation), holed(full.joint))


def undefined_as_nan(provider):
    """provider without its kernel, reading an undefined postselected value
    (DegeneratePostselectionError) as NaN."""
    def read(reader):
        def value(*args):
            try:
                return reader(*args)
            except DegeneratePostselectionError:
                return math.nan
        return value

    return CorrelationProvider(provider.provenance, read(provider.correlation),
                               read(provider.joint))


def nan_region_start(kind, spacing):
    """A start whose thetas lie spacing apart around 1: with nan_region_provider,
    spacing 0.1 scores a number and 1.0 scores NaN."""
    rng = np.random.default_rng(len(kind))
    return AngleConfig(tuple(Direction(1.0 + spacing * (k % 3 - 1), 2 * PI * rng.random())
                             for k in range(INEQUALITIES[kind].arity)))


class TestObjective:
    def test_chsh_at_known_optimum(self):
        assert objective_value(full_half(), "chsh", TSIRELSON) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_positive_means_violation_for_bell(self):
        p = full_half()
        cfg = AngleConfig((Direction(0.0, 0.0), Direction(PI / 3, 0.0),
                           Direction(2 * PI / 3, 0.0)))
        assert objective_value(p, "bell", cfg) == pytest.approx(0.5, abs=1e-12)

    def test_arity_and_kind_validation(self):
        with pytest.raises(ValueError):
            objective_value(full_half(), "chsh", AngleConfig(TSIRELSON.directions[:3]))
        with pytest.raises(ValueError):
            objective_value(full_half(), "sumrule", TSIRELSON)

    @settings(max_examples=60, deadline=None)
    @given(two_s=st.integers(1, 4), coeffs=st.tuples(angle, angle, angle),
           lc=st.booleans(), dirs=st.lists(direction, min_size=4, max_size=4))
    def test_objective_is_the_reported_inequality(self, two_s, coeffs, lc, dirs):
        state = CatState(SpinQuantum(two_s), CatCoefficients(*coeffs))
        p = lc_provider(state) if lc else full_provider(state)
        for kind, spec in INEQUALITIES.items():
            config = AngleConfig(tuple(dirs[:spec.arity]))
            report = check(p, kind, *config.directions)
            expected = report.lhs if kind == "chsh" else -report.margin
            assert objective_value(p, kind, config) == expected


class TestAngleConfig:
    def test_flat_round_trip(self):
        flat = TSIRELSON.flat()
        again = AngleConfig.from_flat(flat)
        assert np.allclose(again.flat(), flat)

    def test_from_flat_canonicalizes(self):
        cfg = AngleConfig.from_flat([-0.5, 0.0, 1.0, 7.0])
        assert cfg.directions[0].theta == pytest.approx(0.5, abs=1e-15)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            AngleConfig.from_flat([1.0, 2.0, 3.0])


class TestGridSweep:
    def test_chsh_resolution_five_contains_tsirelson(self):
        result = grid_sweep(full_half(), "chsh", 5)
        assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert result.evaluations == 25 ** 4
        assert result.converged

    def test_lc_chsh_stays_classical(self):
        result = grid_sweep(lc_provider(singlet(SpinQuantum(1))), "chsh", 5)
        assert result.best_value <= 2.0 + 1e-9

    def test_bell_integer_spin_never_violates(self):
        result = grid_sweep(full_provider(singlet(SpinQuantum(2))), "bell", 7)
        assert result.best_value <= 1e-9

    def test_wigner_spin_one_finds_the_violation(self):
        result = grid_sweep(lc_provider(singlet(SpinQuantum(2))), "wigner", 5)
        assert result.best_value >= 0.25 - 1e-12

    def test_budget_guard(self):
        with pytest.raises(GridTooLargeError):
            grid_sweep(full_half(), "chsh", 11)

    def test_resolution_one_is_the_pole(self):
        calls = []
        result = grid_sweep(full_half(), "chsh", 1,
                            sink=lambda *block_angles: calls.append(block_angles))
        assert result.best_config == AngleConfig((Direction(0.0, 0.0),) * 4)
        assert result.evaluations == 1
        assert len(calls) == 1 and calls[0][1] == [(0.0, 0.0)]
        assert calls[0][0].shape == (1, 1, 1)

    def test_sink_streams_every_combination(self):
        p = full_half()
        for kind, spec in INEQUALITIES.items():
            calls = []
            result = grid_sweep(p, kind, 3, sink=lambda *block_angles: calls.append(block_angles))
            # resolution 3 gives 9 grid directions: one block per first
            # direction, holding the 9^(arity - 1) combinations of the rest
            grid = calls[0][1]
            assert len(calls) == len(grid) == 9
            assert all(angles is grid for _, angles in calls)
            assert all(block.shape == (9,) * (spec.arity - 1) and block.dtype == np.float64
                       for block, _ in calls)
            # element rest of the ia-th block is the row of grid directions
            # (ia, *rest), so expanding the blocks in call order, then in C
            # index order, lists the rows lexicographically; the values are
            # checked against objective_value row by row below
            indices = [(ia, *rest) for ia, (block, _) in enumerate(calls)
                       for rest in np.ndindex(block.shape)]
            rows = [(tuple(v for i in index for v in grid[i]), float(calls[index[0]][0][index[1:]]))
                    for index in indices]
            assert len(rows) == 9 ** spec.arity
            assert result.evaluations == 9 ** spec.arity
            assert all(len(ang) == 2 * spec.arity for ang, _ in rows)
            assert rows[0][0] == (0.0,) * (2 * spec.arity)
            # every emitted row is the search objective itself, to the last bit
            for ang, val in rows:
                assert objective_value(p, kind, AngleConfig.from_flat(ang)) == val
            assert max(v for _, v in rows) == result.best_value

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_sweep(full_half(), "bell", 0)
        # the resolution is checked before the size, whose message formats any int
        keep = lambda *block_angles: None
        for sink in (None, keep):
            with pytest.raises(ValueError, match="^resolution must be >= 1, got -11$"):
                grid_sweep(full_half(), "chsh", -11, sink=sink)
        huge = 10 ** 41
        with pytest.raises(GridTooLargeError,
                           match=f"^resolution {huge} gives more than 1e\\+308 combinations"):
            grid_sweep(full_half(), "chsh", huge)
        with pytest.raises(BudgetExceededError, match=f"^resolution {huge} gives 1e\\+246 rows"):
            grid_sweep(full_half(), "bell", huge, sink=keep)
        # rows handed to a sink are bound by the export limit
        with pytest.raises(BudgetExceededError,
                           match="^resolution 11 gives 2.14e\\+08 rows for a chsh export"):
            grid_sweep(full_half(), "chsh", 11, sink=keep)


    @pytest.mark.parametrize("provider", [all_nan_provider, nan_at_pole_provider],
                             ids=["all NaN", "NaN at the pole"])
    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_nan_values_are_skipped(self, provider, kind):
        # the winner is the first combination with the largest value that is
        # not NaN, or the first combination if every value is NaN
        p = provider()
        for resolution in (2, 3):
            value, config = sweep_oracle(p, kind, resolution)
            result = grid_sweep(p, kind, resolution)
            assert result.best_config == config
            assert repr(result.best_value) == repr(value)
            assert math.isnan(value) == (provider is all_nan_provider)
            # the winner has the kind's arity, so it can be reported and refined
            assert repr(result.report(p).lhs) == repr(check(p, kind, *config.directions).lhs)

    @pytest.mark.parametrize("two_s", [2, 4])
    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_undefined_postselected_pairs_read_as_nan(self, kind, two_s):
        # an odd grid holds the equator, where equal azimuths leave an integer
        # singlet no conclusive weight; the sweep reads those pairs as NaN,
        # and every block equals the sweep of a provider that returns NaN there
        state = singlet(SpinQuantum(two_s))
        equator = Direction(PI / 2, 0.0)
        with pytest.raises(DegeneratePostselectionError):
            correlation(state, equator, equator, "postselected")
        for make, resolutions in ((lambda: full_provider(state, "postselected"), (3, 5)),
                                  (lambda: sampled_provider(state, 100, 1, True), (3,))):
            for resolution in resolutions:
                blocks, nan_blocks = [], []
                result = grid_sweep(make(), kind, resolution,
                                    sink=lambda block, _: blocks.append(block.tobytes()))
                nan_read = grid_sweep(undefined_as_nan(make()), kind, resolution,
                                      sink=lambda block, _: nan_blocks.append(block.tobytes()))
                assert blocks == nan_blocks
                assert repr(result.to_dict()) == repr(nan_read.to_dict())
                alone = grid_sweep(make(), kind, resolution)
                assert repr(alone.to_dict()) == repr(result.to_dict())
                # the brute-force oracle; CHSH at resolution 5 (390,625 scalar
                # evaluations, about 12 s) rests on the NaN-provider sweep above
                if kind != "chsh" or resolution == 3:
                    value, config = sweep_oracle(undefined_as_nan(make()), kind, resolution)
                    assert result.best_config == config
                    assert repr(result.best_value) == repr(value)
                assert not math.isnan(result.best_value)

    def test_all_minus_inf_returns_the_first_combination(self, monkeypatch):
        spec = INEQUALITIES["chsh"]
        monkeypatch.setitem(INEQUALITIES, "chsh", Inequality(
            spec.arity, spec.pairs, spec.joint, lambda ab, ac, db, dc: (ab * 0.0 - math.inf, 2.0),
            spec.lower, spec.maximize_lhs))
        result = grid_sweep(full_half(), "chsh", 3)
        assert result.best_value == -math.inf
        assert result.best_config == AngleConfig((Direction(0.0, 0.0),) * 4)
        assert sweep_oracle(full_half(), "chsh", 3) == (-math.inf, result.best_config)

    @pytest.mark.parametrize("sub_block", [1, 50])
    @pytest.mark.parametrize("label", ["lc", "raw", "postselected", "sampled", "NaN at the pole"])
    def test_sub_blocks_change_nothing(self, monkeypatch, label, sub_block):
        # _SUB_BLOCK = 1 evaluates one row of the second direction at a time,
        # 50 a few rows with a shorter last sub-block; the blocks handed to
        # the sink and the results equal those of the default sub-blocks
        state = CatState(SpinQuantum(2), CatCoefficients(0.7, 0.3, -0.4))
        providers = {"lc": lambda: lc_provider(state),
                     "raw": lambda: full_provider(state),
                     "postselected": lambda: full_provider(state, "postselected"),
                     "sampled": lambda: sampled_provider(state, 50, 3),
                     "NaN at the pole": nan_at_pole_provider}

        def sweep(kind, resolution):
            blocks = []
            streamed = grid_sweep(providers[label](), kind, resolution,
                                  sink=lambda block, _angles: blocks.append(block))
            alone = grid_sweep(providers[label](), kind, resolution)
            assert repr(alone.to_dict()) == repr(streamed.to_dict())
            assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
            return [(b.shape, b.tobytes()) for b in blocks], repr(streamed.to_dict())

        for kind in sorted(INEQUALITIES):
            for resolution in (2, 3, 4):
                default = sweep(kind, resolution)
                with monkeypatch.context() as m:
                    m.setattr(optimize, "_SUB_BLOCK", sub_block)
                    assert sweep(kind, resolution) == default

    @pytest.mark.parametrize("kind, resolution, limit_mb", [
        ("chsh", 7, 1.0), ("chsh", 8, 1.0), ("chsh", 10, 1.0), ("quadratic", 21, 2.5)])
    def test_scratch_does_not_grow_with_the_grid(self, kind, resolution, limit_mb):
        # without a sink the sweep holds its g x g table and a few sub-blocks
        # of at most _SUB_BLOCK elements, never a block per first direction
        # (a CHSH block at resolution 10 is 8 MB); the lc provider keeps the
        # traced table build short
        p = lc_provider(CatState(SpinQuantum(2), CatCoefficients(0.7, 0.3, -0.4)))
        tracemalloc.start()
        try:
            grid_sweep(p, kind, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mb * 1e6


class TestRefine:
    def test_polishes_grid_winner_to_tsirelson(self):
        p = full_half()
        start = grid_sweep(p, "chsh", 3).best_config
        result = refine(p, "chsh", start)
        assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
        assert result.converged
        assert result.evaluations > 0
        assert result.trace

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)
        p = full_half()
        for _ in range(10):
            start = AngleConfig(tuple(random_direction(rng) for _ in range(4)))
            result = refine(p, "chsh", start, max_iter=60)
            assert result.best_value >= objective_value(p, "chsh", start) - 1e-12

    @pytest.mark.parametrize("tol", [-1.0, -5e-324, math.nan, math.inf, -math.inf])
    def test_bad_tol_is_refused_before_any_evaluation(self, tol):
        # the stopping test never passes for these, so every start would run
        # to max_iter
        def no_read(a, b):
            raise AssertionError("a pair was read")

        p = CorrelationProvider("custom", no_read)
        message = f"tol must be finite and non-negative, got {tol}"
        with pytest.raises(ValueError, match=message):
            refine(p, "chsh", TSIRELSON, tol=tol)
        with pytest.raises(ValueError, match=message):
            multistart_refine(p, "chsh", 1, seed=1, tol=tol)

    def test_zero_tol_stops_on_an_exact_tie(self):
        result = refine(full_half(), "chsh", TSIRELSON, tol=0.0)
        assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_trace_is_monotone(self):
        p = full_half()
        result = refine(p, "chsh", grid_sweep(p, "chsh", 3).best_config)
        values = [v for _, v in result.trace]
        assert all(later >= earlier for earlier, later in zip(values, values[1:]))
        assert result.best_value >= values[-1] - 1e-9

    def test_wigner_refinement(self):
        p = lc_provider(singlet(SpinQuantum(2)))
        start = AngleConfig((Direction(PI / 2 + 0.05, 0.1), Direction(0.08, 0.0),
                             Direction(PI - 0.07, 0.2)))
        result = refine(p, "wigner", start)
        assert result.best_value >= 0.25 - 1e-6

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            refine(full_half(), "bell", TSIRELSON)

    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_nan_minimum_returns_the_start(self, kind):
        # every initial simplex holds a NaN vertex, so the final minimum is NaN
        p = nan_region_provider()
        start = nan_region_start(kind, 0.1)
        start_value = objective_value(p, kind, start)
        assert math.isfinite(start_value)
        result = refine(p, kind, start, max_iter=1)
        assert (result.best_config, result.best_value) == (start, start_value)

    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_undefined_postselected_points_read_as_nan(self, kind):
        # a start or simplex point with an undefined pair (the first two
        # directions on the same equatorial axis) scores NaN instead of
        # ending the search, as it does for a provider that returns NaN there
        p = full_provider(singlet(SpinQuantum(2)), "postselected")
        arity = INEQUALITIES[kind].arity
        equator = Direction(PI / 2, 0.0)
        start = AngleConfig((equator, equator, Direction(1.0, 0.3), Direction(2.0, 1.1))[:arity])
        on_axis = AngleConfig((equator,) * arity)
        with pytest.raises(DegeneratePostselectionError):
            objective_value(p, kind, start)
        for config in (start, on_axis):
            result = refine(p, kind, config, max_iter=200)
            assert repr(result.to_dict()) == repr(
                refine(undefined_as_nan(p), kind, config, max_iter=200).to_dict())
            if config is start:
                # a simplex point near the start is defined
                assert result.best_value == objective_value(p, kind, result.best_config)
            else:
                # with every direction on the axis none is: the start comes back
                assert result.best_config == on_axis and math.isnan(result.best_value)

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 30])
    def test_max_iter_counts_the_initial_simplex(self, max_iter):
        rng = np.random.default_rng(max_iter)
        start = AngleConfig(tuple(random_direction(rng) for _ in range(4)))
        result = refine(full_half(), "chsh", start, max_iter=max_iter)
        # at most max_iter - 1 steps, one trace entry each; converged means
        # the loop stopped on tol before using them all
        assert len(result.trace) <= max_iter - 1
        assert result.converged == (len(result.trace) < max_iter - 1)
        if max_iter == 1:
            # empty trace, not converged: only the start and the 8 + 1
            # vertices of the initial simplex are evaluated
            assert result.evaluations == 1 + (8 + 1)


class TestNelderMeadReference:
    """The in-package Nelder-Mead reproduces scipy's, iterate for iterate."""

    @pytest.mark.parametrize("mode", ["raw", "postselected"])
    @pytest.mark.parametrize("two_s", [1, 2, 3])
    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_matches_scipy_bit_for_bit(self, kind, two_s, mode):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng([two_s, len(kind), len(mode)])
        state = CatState(SpinQuantum(two_s),
                         CatCoefficients(*rng.uniform(-PI, PI, 3)))
        p = full_provider(state, mode)
        arity = INEQUALITIES[kind].arity
        x0 = AngleConfig(tuple(random_direction(rng) for _ in range(arity))).flat()

        def reference(f, sim, max_iter, steps):
            res = scipy_optimize.minimize(
                f, x0, method="Nelder-Mead", callback=lambda *_: steps.append(1),
                options={"initial_simplex": sim, "fatol": 1e-10, "xatol": np.inf,
                         "maxiter": max_iter, "maxfev": 10**9},
            )
            # scipy counts the initial simplex as iteration 1
            assert res.nit == 1 + len(steps)
            return res.x, res.fun, bool(res.success)

        def ours(f, sim, max_iter, steps):
            return _nelder_mead(f, sim.tolist(), 1e-10, max_iter, lambda: steps.append(1))

        def run(minimizer, max_iter, digits):
            calls, steps = [], []

            def f(x):
                calls.append(np.asarray(x).tobytes())
                value = objective_value(p, kind, AngleConfig.from_flat(x))
                return -value if digits is None else -round(value, digits)

            x, fun, converged = minimizer(f, _simplex_around(x0, 0.1), max_iter, steps)
            return np.asarray(x).tobytes(), repr(float(fun)), converged, calls, len(steps)

        # the rounded objective has plateaus and exact ties, which take the
        # shrink step and the tie sides of every comparison
        for digits in (None, 2):
            for max_iter in (1, 2, 7, 2000):
                assert run(ours, max_iter, digits) == run(reference, max_iter, digits)

    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_nan_region_matches_scipy_bit_for_bit(self, kind):
        # The objective is NaN wherever two axes it reads lie more than 0.25
        # rad apart in theta, which some initial vertices do, so NaN values
        # enter the sorts, the comparisons and the spread test.  Rounded to
        # whole numbers, the finite vertices tie, and the spread test must
        # not stop while a NaN is in the simplex.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        full = full_provider(CatState(SpinQuantum(1), CatCoefficients(0.4, 0.2)), "postselected")

        def holed(reader):
            def read(a, b, *signs):
                return math.nan if abs(a.theta - b.theta) > 0.25 else reader(a, b, *signs)
            return read

        p = CorrelationProvider("full", holed(full.correlation), holed(full.joint))
        rng = np.random.default_rng(len(kind))
        arity = INEQUALITIES[kind].arity
        x0 = AngleConfig(tuple(Direction(1.0 + 0.1 * k, 2 * PI * rng.random())
                               for k in range(arity))).flat()
        values = []

        def run(minimize, max_iter, digits):
            calls, steps = [], []

            def f(x):
                calls.append(np.asarray(x).tobytes())
                value = objective_value(p, kind, AngleConfig.from_flat(x))
                values.append(value)
                return -value if digits is None else -round(value, digits)

            x, fun, converged = minimize(f, _simplex_around(x0, 0.1), max_iter, steps)
            return np.asarray(x).tobytes(), repr(float(fun)), converged, calls, len(steps)

        def ours(f, sim, max_iter, steps):
            return _nelder_mead(f, sim.tolist(), 1e-10, max_iter, lambda: steps.append(1))

        def reference(f, sim, max_iter, steps):
            res = scipy_optimize.minimize(
                f, x0, method="Nelder-Mead", callback=lambda *_: steps.append(1),
                options={"initial_simplex": sim, "fatol": 1e-10, "xatol": np.inf,
                         "maxiter": max_iter, "maxfev": 10**9},
            )
            assert res.nit == 1 + len(steps)
            return res.x, res.fun, bool(res.success)

        for digits in (None, 2, 0):
            for max_iter in (1, 2, 7, 2000):
                assert run(ours, max_iter, digits) == run(reference, max_iter, digits)
        assert any(math.isnan(v) for v in values)
        assert any(math.isfinite(v) for v in values)


    def test_tied_minus_infinities_keep_the_search_going(self):
        # Two vertices at -inf and one finite, with fatol = inf: the spread
        # to the last vertex is inf, but -inf - -inf is NaN, which fails
        # scipy's spread test, so scipy steps on and so must the port.
        scipy_optimize = pytest.importorskip("scipy.optimize")
        x0 = np.zeros(2)
        sim = _simplex_around(x0, 0.1)

        def run(minimize, max_iter):
            calls = []

            def f(x):
                calls.append(np.asarray(x).tobytes())
                return -math.inf if x[0] + x[1] > 0.05 else float(x[0] - x[1])

            x, fun, converged = minimize(f, max_iter)
            return np.asarray(x).tobytes(), repr(float(fun)), converged, calls

        def reference(f, max_iter):
            with np.errstate(invalid="ignore"):
                res = scipy_optimize.minimize(
                    f, x0, method="Nelder-Mead",
                    options={"initial_simplex": sim, "fatol": np.inf, "xatol": np.inf,
                             "maxiter": max_iter, "maxfev": 10**9})
            return res.x, res.fun, bool(res.success)

        def ours(f, max_iter):
            return _nelder_mead(f, sim.tolist(), math.inf, max_iter, lambda: None)

        for max_iter in (2, 3, 7):
            got = run(ours, max_iter)
            assert got == run(reference, max_iter)
            assert len(got[3]) > 3


class TestMultistart:
    def test_reaches_tsirelson(self):
        result = multistart_refine(full_half(), "chsh", 20, seed=7)
        assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)

    def test_deterministic(self):
        a = multistart_refine(full_half(), "chsh", 5, seed=123)
        b = multistart_refine(full_half(), "chsh", 5, seed=123)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_config.flat(), b.best_config.flat())
        assert a.evaluations == b.evaluations

    def test_lc_stays_classical(self):
        result = multistart_refine(lc_provider(singlet(SpinQuantum(1))), "chsh",
                                   20, seed=11)
        assert result.best_value <= 2.0 + 1e-9

    def test_extra_starts_participate(self):
        result = multistart_refine(full_half(), "chsh", 0, seed=1,
                                   extra_starts=(TSIRELSON,))
        assert result.best_value >= 2.0 * math.sqrt(2.0) - 1e-9

    def test_three_halves_search_is_recorded(self):
        # exploratory: no claim about beating 2; the run must be finite
        # and reproducible
        result = multistart_refine(full_provider(singlet(SpinQuantum(3))), "chsh",
                                   20, seed=5)
        assert math.isfinite(result.best_value)
        assert result.best_value >= 1.0

    @pytest.mark.parametrize("kind", sorted(INEQUALITIES))
    def test_a_number_replaces_a_nan_best(self, kind):
        p = nan_region_provider()
        nan_start, start = nan_region_start(kind, 1.0), nan_region_start(kind, 0.1)
        assert math.isnan(refine(p, kind, nan_start, max_iter=1).best_value)
        result = multistart_refine(p, kind, 0, seed=1, max_iter=1,
                                   extra_starts=(nan_start, start))
        assert (result.best_config, result.best_value) == (start, objective_value(p, kind, start))

    def test_needs_at_least_one_start(self):
        with pytest.raises(ValueError):
            multistart_refine(full_half(), "chsh", 0, seed=1)
        with pytest.raises(ValueError):
            multistart_refine(full_half(), "chsh", -1, seed=1, extra_starts=(TSIRELSON,))

    def test_seed_is_a_64_bit_word_checked_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("starts were drawn")

        for seed in (0, 2**64 - 1):
            multistart_refine(full_half(), "chsh", 1, seed=seed, max_iter=5)
        monkeypatch.setattr(rng, "uniforms", no_draw)
        monkeypatch.setattr(optimize, "refine", no_draw)
        for seed in (-1, 2**64, 5 + 2**64):
            with pytest.raises(ValueError, match="seed must be an integer"):
                multistart_refine(full_half(), "chsh", 1, seed=seed, extra_starts=(TSIRELSON,))

    def test_random_starts_read_one_stream(self, monkeypatch):
        # start k takes uniforms k*dim .. (k+1)*dim - 1, the rows of one draw
        seen = []
        real_refine = optimize.refine

        def recording_refine(provider, kind, start, **kwargs):
            seen.append(start.flat().tolist())
            return real_refine(provider, kind, start, **kwargs)

        monkeypatch.setattr(optimize, "refine", recording_refine)
        multistart_refine(full_half(), "chsh", 3, seed=9, max_iter=3,
                          extra_starts=(TSIRELSON,))
        u = rng.uniforms(9, 3 * 8).reshape(3, 8)
        want = [TSIRELSON.flat().tolist()]
        for row in u:
            angles = np.empty(8)
            angles[0::2] = row[0::2] * math.pi
            angles[1::2] = row[1::2] * 2.0 * math.pi
            want.append(AngleConfig.from_flat(angles).flat().tolist())
        assert seen == want

    def test_evaluation_limit_checked_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("starts were drawn")

        monkeypatch.setattr(optimize, "EVALUATION_LIMIT", 100)
        monkeypatch.setattr(rng, "uniforms", no_draw)
        with pytest.raises(BudgetExceededError, match="evaluation limit"):
            multistart_refine(full_half(), "chsh", 11, seed=1, max_iter=10)
        # a start costs at least one iteration, whatever max_iter says
        with pytest.raises(BudgetExceededError):
            multistart_refine(full_half(), "chsh", 101, seed=1, max_iter=0)
        # fixed starts count too
        with pytest.raises(BudgetExceededError):
            multistart_refine(full_half(), "chsh", 0, seed=1, max_iter=101,
                              extra_starts=(TSIRELSON,))
        with pytest.raises(AssertionError, match="drawn"):
            multistart_refine(full_half(), "chsh", 10, seed=1, max_iter=10)


# Postselected CHSH winners on the singlets, recorded once to 4 decimals:
# grid_sweep at resolution 6, then multistart_refine from its winner and 16
# random starts, seed 5, max_iter 3000.  The raw winners of 2s >= 2 were the
# pole for all four directions.
POSTSELECTED_CHSH_WINNERS = {
    2: [1.1802, 1.0314, 2.2395, 5.7535, 0.9071, 1.029, 3.0297, 3.6562],
    3: [1.8782, 3.3702, 0.6502, 1.6343, 1.5572, 0.251, 1.8414, 4.4605],
    4: [0.9721, 5.1782, 1.9378, 1.6433, 1.8912, 2.2684, 1.3621, 0.0354],
    5: [1.7956, 5.1603, 1.5296, 1.9546, 1.2207, 2.398, 1.4544, 5.0526],
}
POLE = AngleConfig((Direction(0.0, 0.0),) * 4)


class TestParityMaxima:
    """Where the paper's claims hold: raw against postselected CHSH maxima.

    Raw, only s = 1/2 violates; postselected, every half-integer singlet
    reaches 2 sqrt 2 and the integer ones sqrt 5, above the local bound.
    """

    def test_spin_half_reaches_tsirelson_in_both_modes(self):
        for mode in ("raw", "postselected"):
            result = refine(full_provider(singlet(SpinQuantum(1)), mode), "chsh", TSIRELSON,
                            max_iter=3000)
            assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)

    @pytest.mark.parametrize("two_s", sorted(POSTSELECTED_CHSH_WINNERS))
    def test_postselection_alone_violates(self, two_s):
        state = singlet(SpinQuantum(two_s))
        start = AngleConfig.from_flat(POSTSELECTED_CHSH_WINNERS[two_s])
        post = refine(full_provider(state, "postselected"), "chsh", start, max_iter=3000)
        bound = math.sqrt(5.0) if two_s % 2 == 0 else 2.0 * math.sqrt(2.0)
        assert post.converged
        assert post.best_value == pytest.approx(bound, abs=1e-9)
        # raw, the same start climbs no higher than the local bound, which
        # the pole reaches
        raw = [refine(full_provider(state), "chsh", x, max_iter=3000).best_value
               for x in (start, POLE)]
        assert max(raw) <= 2.0 + 1e-9
        assert raw[1] == 2.0


class TestChshCeilings:
    """ROADMAP item 2's CHSH laws on seeded random cat states.

    Raw, no cat above s = 1/2 passes the local bound 2.  Postselected, a
    half-integer cat's correlation is singlet-like, u_a . M u_b on unit
    vectors u with M = diag(-1, I R(delta)), so by the Horodecki criterion
    its CHSH maximum is 2 sqrt(1 + I^2) / (w1 + w2), with I = sin 2 alpha.
    """

    @pytest.mark.parametrize("two_s", [2, 3, 4, 5])
    def test_raw_chsh_stays_local_above_spin_half(self, two_s):
        gen = np.random.default_rng(two_s)
        for _ in range(4):
            provider = full_provider(random_state(gen, two_s))
            result = multistart_refine(provider, "chsh", 4, seed=int(gen.integers(2**63)))
            assert result.best_value <= 2.0 + 1e-9

    @pytest.mark.parametrize("two_s", [1, 3, 5])
    def test_half_integer_postselected_chsh_reaches_the_law(self, two_s):
        gen = np.random.default_rng(100 + two_s)
        for _ in range(4):
            state = random_state(gen, two_s)
            c = state.coeffs
            law = 2.0 * math.sqrt(1.0 + c.interference ** 2) / (c.weight1 + c.weight2)
            result = multistart_refine(full_provider(state, "postselected"), "chsh", 6,
                                       seed=int(gen.integers(2**63)), max_iter=3000)
            assert law - 1e-8 <= result.best_value <= law + 1e-9


class TestResultPayload:
    def test_to_dict_and_report(self):
        p = full_half()
        result = refine(p, "chsh", TSIRELSON)
        d = result.to_dict()
        assert d["kind"] == "chsh"
        assert len(d["best_config"]) == 4
        assert d["trace"] is not None
        report = result.report(p)
        assert report.kind == "chsh"
        assert report.violated


# Recorded before the simplex moved to Python lists; a change to how the
# searches evaluate or step must reproduce them.  Each digest covers every
# sweep value as little-endian float64 bytes, then the repr of each
# result's to_dict(), in the order the test computes them.
SEARCH_GOLDEN = {
    ("bell", 1, "raw"): "379ddc589806c89be221b6aefade112c",
    ("bell", 1, "postselected"): "ca838001c70eb693a86b7c41e3ce33b9",
    ("bell", 1, "lc"): "17c0d5e9b261dd7488e4665e8d86e757",
    ("bell", 2, "raw"): "d2065d53086956973406ca2f7deae848",
    ("bell", 2, "postselected"): "b9fff3412045e0c4a4311527cb6f5764",
    ("bell", 2, "lc"): "f724c4ad695a7406b49aae9c1b343ce4",
    ("bell", 3, "raw"): "e0fbc9188d38ee93278a2c85e795c2c8",
    ("bell", 3, "postselected"): "869d7966dd6556b453d49f78c55f2bcc",
    ("bell", 3, "lc"): "737045850b00126a57ba6463c949af75",
    ("chsh", 1, "raw"): "ce3f40c0441493af7309fb9c99ddd887",
    ("chsh", 1, "postselected"): "45bddfd4ac886b35e1aa03d8ffd6f921",
    ("chsh", 1, "lc"): "571aa9f787e82dbf043b6027492be3de",
    ("chsh", 2, "raw"): "8c9f6083703b7e5d0831279f34df5c34",
    ("chsh", 2, "postselected"): "20a7494d33dac1a81ef1ae35fdeb68cc",
    ("chsh", 2, "lc"): "84a367059f3443ea5de5a3a97ea9a93c",
    ("chsh", 3, "raw"): "ea66a27a8a0ac1c7ce5e9e4635d0d1a5",
    ("chsh", 3, "postselected"): "cb4078ac1f57f8869d6933393470fce4",
    ("chsh", 3, "lc"): "da69ed5244251103dde4a967eb5c7f60",
    ("quadratic", 1, "raw"): "9f6f33ca5be18fa1aec2fc8a9d8d0704",
    ("quadratic", 1, "postselected"): "8d1f656a969ee62cb0680b1cf15096ea",
    ("quadratic", 1, "lc"): "76949f92eaeb5cad17a360d5060c6049",
    ("quadratic", 2, "raw"): "32f49851ca66d2cad1a3d551238e2ed6",
    ("quadratic", 2, "postselected"): "49eb0da9c894d8ff542b0838331c2e60",
    ("quadratic", 2, "lc"): "350a6d299e8cf4c0bc96cbaa4d33e5db",
    ("quadratic", 3, "raw"): "3dc81f84079712fadd310d56256ae90a",
    ("quadratic", 3, "postselected"): "1b12f776f33809a2d715fc752bdaaaa6",
    ("quadratic", 3, "lc"): "65d1498d8d4f55f1f0306db22e1a143a",
    ("wigner", 1, "raw"): "9f304f6ac6b5c3426e67ee8fa295cbf5",
    ("wigner", 1, "postselected"): "35bdbc79a8f2d9051ef8de522183b255",
    ("wigner", 1, "lc"): "700add2b8e492c4a44257933e1d5bc9b",
    ("wigner", 2, "raw"): "4014399539e4665c09b8b834a817eb37",
    ("wigner", 2, "postselected"): "852f017755c558fd1b0d2817eb780fe9",
    ("wigner", 2, "lc"): "6784f1c9c1a6a6ee1c801e90512bb3e2",
    ("wigner", 3, "raw"): "b0490c7506d504e8a187b24d9a9355ea",
    ("wigner", 3, "postselected"): "d1cac042d424cad570fd7575890c964e",
    ("wigner", 3, "lc"): "12eeadd668c90b40b853b393b1ad653d",
}


class TestSearchGolden:
    @pytest.mark.parametrize("kind, two_s, label", list(SEARCH_GOLDEN))
    def test_search_results(self, kind, two_s, label):
        state = CatState(SpinQuantum(two_s), CatCoefficients(0.7, 0.3, -0.4))
        provider = lc_provider(state) if label == "lc" else full_provider(state, label)
        h = hashlib.sha256()
        sweep = grid_sweep(provider, kind, 3,
                           sink=lambda block, _angles: h.update(block.astype("<f8").tobytes()))
        h.update(repr(sweep.to_dict()).encode())
        for max_iter in (1, 2, 7, 2000):
            for result in (refine(provider, kind, sweep.best_config, max_iter=max_iter),
                           multistart_refine(provider, kind, 2, seed=17 + two_s,
                                             max_iter=max_iter)):
                h.update(repr(result.to_dict()).encode())
        assert h.hexdigest()[:32] == SEARCH_GOLDEN[(kind, two_s, label)]


# Recorded before the sweep evaluated its blocks in sub-blocks: at these
# resolutions a CHSH block spans several sub-blocks.  Each digest covers
# every sweep value as little-endian float64 bytes, then the repr of the
# result's to_dict().
CHSH_SWEEP_GOLDEN = {
    (6, 1, "raw"): "10a1b2a7fa82b5a2ef170b2e60280a08",
    (6, 1, "postselected"): "4a06877d6472afac4f3aecc9a62fece8",
    (6, 1, "lc"): "5f41c0081cd6ee64b8be10141ecc6705",
    (6, 2, "raw"): "7bcc6f93e6a640127730039256467a7c",
    (6, 2, "postselected"): "64adcda28826471d6ff2b20dd2a363a6",
    (6, 2, "lc"): "5f41c0081cd6ee64b8be10141ecc6705",
    (6, 3, "raw"): "a9623215899661e910e80a18e6ab2648",
    (6, 3, "postselected"): "c35e6705081a4458a27d7eb0e3413b3d",
    (6, 3, "lc"): "b042c2334607a1b055f438e99791c255",
    (7, 1, "raw"): "0fa90345d314e44ecf921e47a651a270",
    (7, 1, "postselected"): "40a691b5a99c3eb3d39a8908a056ca95",
    (7, 1, "lc"): "f04fd9d7e4f6ff1f2ccb58567a650d15",
    (7, 2, "raw"): "9d50febb0c1b3f8b13cc3a2b5b6d0b30",
    (7, 2, "postselected"): "e5e6172c90045a5e07ee374b22eb6113",
    (7, 2, "lc"): "bc375c32ca178b526cd683943e8e7189",
    (7, 3, "raw"): "c788adff414baf12b4a6773e918ff609",
    (7, 3, "postselected"): "ad01c664fe63340a4762e9f720c86a80",
    (7, 3, "lc"): "75bdac139dfd30e6bf32486ffaab3e48",
}


class TestChshSweepGolden:
    @pytest.mark.parametrize("resolution, two_s, label", list(CHSH_SWEEP_GOLDEN))
    def test_sweep_results(self, resolution, two_s, label):
        state = CatState(SpinQuantum(two_s), CatCoefficients(0.7, 0.3, -0.4))
        provider = lc_provider(state) if label == "lc" else full_provider(state, label)
        h = hashlib.sha256()
        sweep = grid_sweep(provider, "chsh", resolution,
                           sink=lambda block, _angles: h.update(block.astype("<f8").tobytes()))
        h.update(repr(sweep.to_dict()).encode())
        assert h.hexdigest()[:32] == CHSH_SWEEP_GOLDEN[(resolution, two_s, label)]
