"""End-to-end acceptance criteria with one printed pass/fail line each.

Every criterion is pinned to an explicit tolerance.  Lines are printed
through capsys.disabled() so they appear in the live pytest output.
"""

import cmath
import contextlib
import math
import time

import numpy as np
import pytest
import reference
from conftest import nondegenerate_pair, random_direction, random_directions, random_state

import bellcat as bc

PI = math.pi
EQ = bc.Direction(PI / 2, 0.0)
TSIRELSON = bc.AngleConfig((
    bc.Direction(0.0, 0.0),
    bc.Direction(PI / 4, 0.0),
    bc.Direction(PI / 4, PI),
    bc.Direction(PI / 2, 0.0),
))


@pytest.fixture
def report(capsys):
    @contextlib.contextmanager
    def _criterion(number: int, title: str):
        started = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nFAIL criterion {number}: {title}")
            raise
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"\nPASS criterion {number}: {title} ({elapsed:.2f}s)")

    return _criterion


def test_criterion_1_singlet_reproduces_minus_dot_product(report):
    with report(1, "singlet s=1/2 correlation equals -a.b (1000 pairs, 1e-12)"):
        st = bc.singlet(bc.SpinQuantum(1))
        rng = np.random.default_rng(101)
        pairs = [(random_direction(rng), random_direction(rng)) for _ in range(1000)]
        started = time.perf_counter()
        worst = 0.0
        for a, b in pairs:
            worst = max(worst, abs(bc.correlation(st, a, b).p_total + a.dot(b)))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-12, f"worst deviation {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.3f}s for 1000 evaluations"


def test_criterion_2_chsh_reaches_tsirelson_and_lc_stays_classical(report):
    with report(2, "CHSH: full search hits 2*sqrt(2) within 1e-6; "
                   "lc search bounded by 2 + 1e-9"):
        st = bc.singlet(bc.SpinQuantum(1))
        full = bc.full_provider(st)
        sweep = bc.grid_sweep(full, "chsh", 5)
        polished = bc.refine(full, "chsh", sweep.best_config)
        target = 2.0 * math.sqrt(2.0)
        assert abs(polished.best_value - target) <= 1e-6, (
            f"full search reached {polished.best_value!r}"
        )

        lc = bc.lc_provider(st)
        lc_sweep = bc.grid_sweep(lc, "chsh", 5)
        lc_multi = bc.multistart_refine(lc, "chsh", 20, seed=202)
        lc_best = max(lc_sweep.best_value, lc_multi.best_value)
        assert lc_best <= 2.0 + 1e-9, f"lc search reached {lc_best!r}"


def test_criterion_3_integer_spin_immunity_and_half_integer_contrast(report):
    with report(3, "integer-spin cats never violate CHSH (50 coefficient sets "
                   "x 1e4 configs + 50 refinements per spin); half-integer "
                   "cross part survives"):
        rng = np.random.default_rng(303)
        for two_s in (2, 4):
            for _ in range(50):
                st = random_state(rng, two_s)
                provider = bc.full_provider(st)
                best_s = -1.0
                best_dirs = None
                dirs = random_directions(rng, 40_000)
                for k in range(0, 40_000, 4):
                    a, b, c, d = dirs[k:k + 4]
                    br_ab = bc.correlation(st, a, b)
                    br_ac = bc.correlation(st, a, c)
                    br_db = bc.correlation(st, d, b)
                    br_dc = bc.correlation(st, d, c)
                    for br in (br_ab, br_ac, br_db, br_dc):
                        assert br.p_nlc == 0.0
                    value = abs(br_ab.p_total + br_ac.p_total
                                + br_db.p_total - br_dc.p_total)
                    if value > best_s:
                        best_s = value
                        best_dirs = (a, b, c, d)
                assert best_s <= 2.0 + 1e-9, f"scan found {best_s!r} at 2s={two_s}"
                refined = bc.refine(provider, "chsh", bc.AngleConfig(best_dirs),
                                    max_iter=400)
                assert refined.best_value <= 2.0 + 1e-9, (
                    f"refinement found {refined.best_value!r} at 2s={two_s}"
                )

        # half-integer spins keep a cross part at the equatorial benchmark
        for two_s in (1, 3, 5):
            st = bc.singlet(bc.SpinQuantum(two_s))
            b = bc.Direction(PI / 2, PI / two_s)
            p_nlc = bc.correlation(st, EQ, b).p_nlc
            assert abs(p_nlc) > 1e-3, f"2s={two_s} cross part {p_nlc!r}"
            if two_s == 3:
                assert abs(p_nlc - 1.0 / 16.0) <= 1e-12, f"got {p_nlc!r}"


def test_criterion_4_parity_factor_links_flipped_outcomes(report):
    with report(4, "oracle interference elements obey the (-1)^(2s) parity "
                   "ratio (100 pairs per spin, 1e-10)"):
        rng = np.random.default_rng(404)
        for two_s in range(1, 7):
            parity = bc.SpinQuantum(two_s).parity
            accepted = 0
            while accepted < 100:
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                el = reference.rho_elements_oracle(st, a, b)
                if abs(el.nlc[0]) <= 1e-6:
                    continue
                accepted += 1
                ratio = el.nlc[1] / el.nlc[0]
                assert abs(ratio - parity) <= 1e-10, (
                    f"2s={two_s}: ratio {ratio!r}"
                )
                assert abs(el.nlc[2] / el.nlc[0] - parity) <= 1e-10


def test_criterion_5_closed_forms_match_dyad_oracle(report):
    with report(5, "closed diagonal elements match the dyad oracle "
                   "(200 draws per spin, 1e-10); oracle fixes the spin-1 "
                   "equatorial interference constant at 1/16"):
        rng = np.random.default_rng(505)
        worst = 0.0
        for two_s in range(1, 7):
            for _ in range(200):
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                o = reference.rho_elements_oracle(st, a, b)
                c = bc.rho_elements_closed(st, a, b)
                worst = max(
                    worst,
                    float(np.max(np.abs(o.lc - c.lc))),
                    float(np.max(np.abs(o.nlc - c.nlc))),
                )
        assert worst < 1e-10, f"worst element deviation {worst:.3e}"

        # adjudication: for the spin-1 cat at equal equatorial axes the
        # interference element is sin(2 alpha)/16, not sin(2 alpha)/32
        st = bc.singlet(bc.SpinQuantum(2))
        oracle_value = reference.rho_elements_oracle(st, EQ, EQ).nlc[0]
        assert abs(oracle_value - (-1.0 / 16.0)) < 1e-12, (
            f"oracle supports {oracle_value!r}, not -1/32"
        )


def test_criterion_6_local_model_immunity_and_wigner_split(report):
    with report(6, "lc model never violates bell/chsh/quadratic (1e4 configs "
                   "per spin); wigner splits: s=1/2 safe, s=1 violates "
                   "0.5 > 0.25"):
        rng = np.random.default_rng(606)
        for two_s in range(1, 7):
            provider = bc.lc_provider(bc.singlet(bc.SpinQuantum(two_s)))
            for _ in range(10_000):
                a, b, c = (random_direction(rng) for _ in range(3))
                assert not bc.check(provider, "bell", a, b, c).violated
                assert not bc.check(provider, "quadratic", a, b, c).violated
                d = random_direction(rng)
                assert not bc.check(provider, "chsh", a, b, c, d).violated

        half = bc.lc_provider(bc.singlet(bc.SpinQuantum(1)))
        for _ in range(10_000):
            a, b, c = (random_direction(rng) for _ in range(3))
            assert not bc.check(half, "wigner", a, b, c).violated

        one = bc.lc_provider(bc.singlet(bc.SpinQuantum(2)))
        r = bc.check(one, "wigner", EQ, bc.Direction(0.0, 0.0), bc.Direction(PI, 0.0))
        assert abs(r.lhs - 0.5) <= 1e-12
        assert abs(r.rhs - 0.25) <= 1e-12
        assert r.violated


def test_criterion_7_overlap_phase_follows_triangle_area(report):
    with report(7, "coherent overlap phase equals s x signed triangle area "
                   "(500 pairs per spin, 1e-8); octant area pi/2 to 1e-12"):
        rng = np.random.default_rng(707)
        for two_s in range(1, 7):
            s = bc.SpinQuantum(two_s)
            for _ in range(500):
                n1, n2 = nondegenerate_pair(rng)
                phase = cmath.phase(bc.overlap_plus(s, n1, n2))
                predicted = s.s * bc.berry_area(n1, n2)
                residual = (phase - predicted) % (2.0 * PI)
                residual = min(residual, 2.0 * PI - residual)
                assert residual <= 1e-8, f"2s={two_s}: residual {residual:.3e}"

        octant = bc.berry_area(EQ, bc.Direction(PI / 2, PI / 2))
        assert abs(octant - PI / 2) <= 1e-12


def test_criterion_8_unrestricted_correlation_closed_forms(report):
    with report(8, "unrestricted <(S.a)(S.b)>: -s^2 cos cos for s >= 1 "
                   "(any coefficients), -a.b/4 for the s=1/2 singlet "
                   "(50 draws each, 1e-10)"):
        rng = np.random.default_rng(808)
        for two_s in (2, 3, 4):
            s = two_s / 2.0
            for _ in range(50):
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                got = bc.unrestricted_correlation(st, a, b)
                want = -(s ** 2) * math.cos(a.theta) * math.cos(b.theta)
                assert abs(got - want) < 1e-10

        st = bc.singlet(bc.SpinQuantum(1))
        for _ in range(50):
            a, b = random_direction(rng), random_direction(rng)
            got = bc.unrestricted_correlation(st, a, b)
            assert abs(got + a.dot(b) / 4.0) < 1e-10


def test_criterion_9_sampling_accuracy_determinism_runtime(report):
    with report(9, "20 sampling scenarios at n=1e6: estimates within "
                   "5 stderr, identical seeds reproduce counts, total "
                   "under 30s"):
        rng = np.random.default_rng(909)
        scenarios = []
        for k in range(20):
            two_s = (1, 2, 3)[k % 3]
            st = bc.singlet(bc.SpinQuantum(two_s))
            a, b = random_direction(rng), random_direction(rng)
            scenarios.append((st, a, b, 9000 + k))

        started = time.perf_counter()
        results = []
        for st, a, b, seed in scenarios:
            exact = bc.correlation(st, a, b).p_total
            stats = bc.sample_outcomes(st, a, b, 1_000_000, seed)
            assert stats.stderr > 0.0
            assert abs(stats.estimate - exact) <= 5.0 * stats.stderr, (
                f"seed {seed}: estimate {stats.estimate!r} vs exact {exact!r} "
                f"(stderr {stats.stderr:.2e})"
            )
            results.append(stats)

        for (st, a, b, seed), first in zip(scenarios[:5], results[:5]):
            again = bc.sample_outcomes(st, a, b, 1_000_000, seed)
            assert again.counts == first.counts
            assert again.estimate == first.estimate

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"sampling block took {elapsed:.1f}s"
