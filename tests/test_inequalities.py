"""Inequality checks over the three provider kinds."""

import json
import math
import re

import numpy as np
import pytest
from conftest import random_direction, random_state

from bellcat import (
    CorrelationProvider,
    Direction,
    InequalityReport,
    SpinQuantum,
    check,
    full_provider,
    lc_provider,
    sampled_provider,
    singlet,
    wigner_joint,
)

PI = math.pi

# four coplanar axes realizing the largest quantum CHSH value for s = 1/2
TSIRELSON = (
    Direction(0.0, 0.0),
    Direction(PI / 4, 0.0),
    Direction(PI / 4, PI),
    Direction(PI / 2, 0.0),
)


class TestProviders:
    def test_provenance_tags(self):
        st = singlet(SpinQuantum(1))
        assert lc_provider(st).provenance == "lc-only"
        assert full_provider(st).provenance == "full"
        assert sampled_provider(st, 100, 1).provenance == "sampled"

    def test_full_singlet_matches_dot_product(self):
        st = singlet(SpinQuantum(1))
        p = full_provider(st)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_direction(rng), random_direction(rng)
            assert p.correlation(a, b) == pytest.approx(-a.dot(b), abs=1e-12)

    def test_correlations_bounded(self):
        rng = np.random.default_rng(3)
        for two_s in (1, 2, 3):
            st = random_state(rng, two_s)
            for provider in (lc_provider(st), full_provider(st)):
                for _ in range(50):
                    v = provider.correlation(random_direction(rng), random_direction(rng))
                    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12

    def test_sampled_provider_is_deterministic_and_cached(self):
        st = singlet(SpinQuantum(1))
        a, b = Direction(0.7, 0.3), Direction(1.9, 2.4)
        p1 = sampled_provider(st, 5000, 42)
        p2 = sampled_provider(st, 5000, 42)
        assert p1.correlation(a, b) == p2.correlation(a, b)
        assert p1.correlation(a, b) == p1.correlation(a, b)
        assert p1.correlation(a, b) != sampled_provider(st, 5000, 43).correlation(a, b)

    def test_sampled_cache_is_capped_without_changing_estimates(self, monkeypatch):
        import bellcat.inequalities as ineq
        import bellcat.sampling as sampling
        from bellcat import AngleConfig, refine, rng

        st = singlet(SpinQuantum(1))
        start = AngleConfig((Direction(0.3, 0.1), Direction(1.2, 2.0),
                             Direction(2.0, 4.0), Direction(2.6, 5.0)))
        uncapped = refine(sampled_provider(st, 500, 3), "chsh", start, max_iter=25)

        cap = 5
        monkeypatch.setattr(ineq, "SAMPLED_CACHE_LIMIT", cap)
        draws = []

        def recording(probs, n, seed, entries):
            draws.append(seed)
            return real(probs, n, seed, entries)

        real = sampling._count_below
        monkeypatch.setattr(sampling, "_count_below", recording)
        inner = sampled_provider(st, 500, 3)
        asked = []

        def corr(a, b):
            asked.append((a.theta, a.phi, b.theta, b.phi))
            return inner.correlation(a, b)

        capped = refine(CorrelationProvider("sampled", corr, inner.joint), "chsh", start,
                        max_iter=25)
        assert capped.to_dict() == uncapped.to_dict()
        assert len(set(asked)) > cap
        # Replaying the requests through a first-in first-out cache of cap
        # entries predicts exactly which requests drew samples.
        model: dict = {}
        expected = []
        for key in asked:
            if key not in model:
                expected.append(rng.derive(3, *key))
                if len(model) >= cap:
                    del model[next(iter(model))]
                model[key] = True
            assert len(model) <= cap
        assert draws == expected
        assert len(draws) < len(asked)

    def test_sampled_shots_are_bounded_in_total(self, monkeypatch):
        import bellcat.sampling as sampling
        from bellcat import BudgetExceededError, grid_sweep, optimize, rng

        draws = []

        def counting(probs, n, seed, entries):
            draws.append((seed, n))
            return real(probs, n, seed, entries)

        st = singlet(SpinQuantum(1))
        pole, other = Direction(0.0, 0.0), Direction(PI / 2, 0.0)
        estimate = sampled_provider(st, 600, 7).correlation(pole, pole)
        real = sampling._count_below
        monkeypatch.setattr(sampling, "_count_below", counting)
        monkeypatch.setattr(optimize, "SHOT_LIMIT", 1000)
        p = sampled_provider(st, 600, 7)
        # a resolution-3 sweep reads 36 distinct pairs, 21,600 shots; the
        # second draw would pass the limit and is refused before drawing
        with pytest.raises(BudgetExceededError, match="shot limit"):
            grid_sweep(p, "chsh", 3)
        assert draws == [(rng.derive(7, 0.0, 0.0, 0.0, 0.0), 600)]
        # the pair drawn before the refusal is still served, at no cost
        assert p.correlation(pole, pole) == estimate
        assert p.joint(pole, pole, +1, +1) >= 0.0
        with pytest.raises(BudgetExceededError, match="shot limit"):
            p.correlation(pole, other)
        assert len(draws) == 1
        # the limit itself may be reached
        monkeypatch.setattr(optimize, "SHOT_LIMIT", 1200)
        p = sampled_provider(st, 600, 7)
        p.correlation(pole, pole)
        p.correlation(pole, other)
        with pytest.raises(BudgetExceededError, match=r"\(1200 drawn\)"):
            p.correlation(other, pole)
        assert [d[-1] for d in draws] == [600] * 3

    def test_undefined_postselected_pair_is_drawn_once(self, monkeypatch):
        # its counts are cached like any pair's, so every read raises from
        # them, with no second draw and no second count against SHOT_LIMIT
        import bellcat.sampling as sampling
        from bellcat import ZeroConclusiveError, optimize

        draws = []

        def counting(probs, n, seed, entries):
            draws.append(n)
            return real(probs, n, seed, entries)

        real = sampling._count_below
        monkeypatch.setattr(sampling, "_count_below", counting)
        monkeypatch.setattr(optimize, "SHOT_LIMIT", 100)
        p = sampled_provider(singlet(SpinQuantum(2)), 100, 1, postselect=True)
        eq = Direction(PI / 2, 0.0)
        for read in (p.correlation, p.correlation, lambda a, b: p.joint(a, b, +1, +1)):
            with pytest.raises(ZeroConclusiveError, match="^all draws were inconclusive$"):
                read(eq, eq)
        assert draws == [100]

    def test_sampled_joint_sums_to_conclusive_fraction(self):
        st = singlet(SpinQuantum(2))
        p = sampled_provider(st, 4000, 9)
        a, b = Direction(0.5, 0.1), Direction(1.1, 2.0)
        total = sum(
            p.joint(a, b, sa, sb) for sa in (+1, -1) for sb in (+1, -1)
        )
        assert 0.0 <= total <= 1.0

    @pytest.mark.parametrize("signs", [(0, 1), (1, 2), (-2, -1), (1.7, -1.2), (1.9, "-1"),
                                       (None, 1), (1, -0.5)])
    def test_joint_rejects_bad_signs_before_drawing(self, monkeypatch, signs):
        def no_draw(*args, **kwargs):
            raise AssertionError("shots were drawn")

        monkeypatch.setattr("bellcat.sampling._count_below", no_draw)
        st = singlet(SpinQuantum(2))
        a, b = Direction(0.5, 0.1), Direction(1.1, 2.0)
        joints = [p.joint for p in (lc_provider(st), full_provider(st),
                                    full_provider(st, "postselected"), sampled_provider(st, 100, 1),
                                    sampled_provider(st, 100, 1, postselect=True))]
        joints += [lambda a, b, sa, sb, part=part: wigner_joint(st, a, b, sa, sb, part)
                   for part in ("lc", "full")]
        for joint in joints:
            with pytest.raises(ValueError, match=re.escape(f"signs must be +1 or -1, got {signs}")):
                joint(a, b, *signs)

    def test_joint_takes_signs_equal_to_one(self):
        # 1.0 and True equal 1, as coherent_state's sign check also accepts
        st = singlet(SpinQuantum(2))
        a, b = Direction(0.5, 0.1), Direction(1.1, 2.0)
        for p in (lc_provider(st), full_provider(st), sampled_provider(st, 100, 1)):
            assert p.joint(a, b, 1.0, -1.0) == p.joint(a, b, True, -True) == p.joint(a, b, 1, -1)
        assert wigner_joint(st, a, b, True, -1.0, "full") == wigner_joint(st, a, b, 1, -1, "full")

    def test_full_mode_validated(self):
        with pytest.raises(ValueError):
            full_provider(singlet(SpinQuantum(1)), mode="weird")


class TestBell:
    def test_lc_never_violates(self):
        rng = np.random.default_rng(5)
        for two_s in (1, 2, 3):
            p = lc_provider(singlet(SpinQuantum(two_s)))
            for _ in range(2000):
                r = check(p, "bell", random_direction(rng), random_direction(rng),
                          random_direction(rng))
                assert not r.violated
                assert r.margin >= -1e-9

    def test_full_singlet_half_violates_at_coplanar_thirds(self):
        p = full_provider(singlet(SpinQuantum(1)))
        a = Direction(0.0, 0.0)
        b = Direction(PI / 3, 0.0)
        c = Direction(2 * PI / 3, 0.0)
        r = check(p, "bell", a, b, c)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(0.5, abs=1e-12)
        assert r.violated
        assert r.margin == pytest.approx(-0.5, abs=1e-12)

    def test_full_integer_spin_never_violates(self):
        rng = np.random.default_rng(7)
        p = full_provider(singlet(SpinQuantum(2)))
        for _ in range(2000):
            r = check(p, "bell", random_direction(rng), random_direction(rng),
                      random_direction(rng))
            assert not r.violated


class TestChsh:
    def test_tsirelson_configuration(self):
        p = full_provider(singlet(SpinQuantum(1)))
        r = check(p, "chsh", *TSIRELSON)
        assert r.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert r.violated
        assert r.margin == pytest.approx(2.0 - 2.0 * math.sqrt(2.0), abs=1e-12)

    def test_lc_respects_classical_bound(self):
        rng = np.random.default_rng(11)
        for two_s in (1, 2, 3):
            p = lc_provider(singlet(SpinQuantum(two_s)))
            for _ in range(2000):
                r = check(p, "chsh", random_direction(rng), random_direction(rng),
                          random_direction(rng), random_direction(rng))
                assert r.lhs <= 2.0 + 1e-9
                assert not r.violated

    def test_angle_normalization_invariance(self):
        p = full_provider(singlet(SpinQuantum(1)))
        base = check(p, "chsh", *TSIRELSON)
        shifted = check(
            p,
            "chsh",
            Direction(0.0, 2 * PI),
            Direction(PI / 4 - 2 * PI, 0.0),
            Direction(-PI / 4, 0.0),
            Direction(PI / 2, -2 * PI),
        )
        assert shifted.lhs == pytest.approx(base.lhs, abs=1e-12)
        assert shifted.margin == pytest.approx(base.margin, abs=1e-12)


class TestWigner:
    def test_lc_singlet_half_never_violates(self):
        rng = np.random.default_rng(13)
        p = lc_provider(singlet(SpinQuantum(1)))
        for _ in range(2000):
            r = check(p, "wigner", random_direction(rng), random_direction(rng),
                      random_direction(rng))
            assert not r.violated

    def test_lc_spin_one_violates_at_polar_triple(self):
        p = lc_provider(singlet(SpinQuantum(2)))
        r = check(p, "wigner", Direction(PI / 2, 0.0), Direction(0.0, 0.0),
                  Direction(PI, 0.0))
        assert r.lhs == pytest.approx(0.5, abs=1e-12)
        assert r.rhs == pytest.approx(0.25, abs=1e-12)
        assert r.violated

    def test_jointless_provider_rejected(self):
        bare = CorrelationProvider("full", lambda a, b: 0.0, None)
        with pytest.raises(ValueError):
            check(bare, "wigner", *TSIRELSON[:3])


class TestQuadratic:
    def test_aligned_axes_sit_on_the_boundary(self):
        for two_s in (1, 2):
            p = lc_provider(singlet(SpinQuantum(two_s)))
            z = Direction(0.0, 0.0)
            r = check(p, "quadratic", z, z, z)
            assert r.lhs == pytest.approx(4.0, abs=1e-12)
            assert r.rhs == pytest.approx(4.0, abs=1e-12)
            assert r.margin == pytest.approx(0.0, abs=1e-12)
            assert not r.violated

    def test_lc_never_violates(self):
        rng = np.random.default_rng(17)
        for two_s in (1, 2, 4):
            p = lc_provider(singlet(SpinQuantum(two_s)))
            for _ in range(2000):
                r = check(p, "quadratic", random_direction(rng), random_direction(rng),
                          random_direction(rng))
                assert not r.violated

    def test_full_singlet_half_violates_at_orthogonal_pair(self):
        # b and c orthogonal makes the lhs vanish while a at 45 degrees
        # keeps both products on the rhs large
        p = full_provider(singlet(SpinQuantum(1)))
        r = check(p, "quadratic", Direction(PI / 4, 0.0), Direction(0.0, 0.0),
                  Direction(PI / 2, 0.0))
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.rhs == pytest.approx(2.0, abs=1e-12)
        assert r.violated
        assert r.margin == pytest.approx(-2.0, abs=1e-12)


class TestReports:
    def test_json_round_trip(self):
        p = full_provider(singlet(SpinQuantum(1)))
        r = check(p, "chsh", *TSIRELSON)
        data = json.loads(r.to_json())
        config = tuple(Direction(t, f) for t, f in data["config"])
        again = InequalityReport(**{**data, "config": config})
        assert again == r


class TestDispatcher:
    def test_routes_by_kind(self):
        p = full_provider(singlet(SpinQuantum(1)))
        assert check(p, "chsh", *TSIRELSON).kind == "chsh"
        assert check(p, "bell", *TSIRELSON[:3]).kind == "bell"

    def test_config_arity(self):
        p = full_provider(singlet(SpinQuantum(1)))
        with pytest.raises(ValueError):
            check(p, "chsh", *TSIRELSON[:3])
        with pytest.raises(ValueError):
            check(p, "bell", *TSIRELSON)
        with pytest.raises(ValueError):
            check(p, "nonsense", *TSIRELSON[:3])

    def test_sampled_chsh_lands_near_tsirelson(self):
        st = singlet(SpinQuantum(1))
        p = sampled_provider(st, 200_000, 2024)
        r = check(p, "chsh", *TSIRELSON)
        assert r.lhs == pytest.approx(2.0 * math.sqrt(2.0), abs=0.02)
        assert r.violated
