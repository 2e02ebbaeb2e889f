"""Grid sweep and simplex refinement."""

import math

import numpy as np
import pytest
from conftest import random_direction
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcat import (
    INEQUALITIES,
    AngleConfig,
    CatCoefficients,
    CatState,
    Direction,
    GridTooLargeError,
    SpinQuantum,
    check,
    full_provider,
    grid_sweep,
    lc_provider,
    multistart_refine,
    objective_value,
    refine,
    singlet,
)

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

    def test_sink_streams_every_combination(self):
        p = full_half()
        for kind, spec in INEQUALITIES.items():
            rows = []
            result = grid_sweep(p, kind, 3, sink=lambda ang, v: rows.append((ang, v)))
            # resolution 3 gives 9 grid directions, 9^arity combinations
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

    def test_needs_at_least_one_start(self):
        with pytest.raises(ValueError):
            multistart_refine(full_half(), "chsh", 0, seed=1)


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
