"""Single-particle layer: coherent states, operators, geometric phase."""

import cmath
import math

import numpy as np
import pytest
from conftest import nondegenerate_pair, random_direction
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    SpinMismatchError,
    coherent_state_by_rotation,
    extreme_state,
    inner,
    spin_moments,
)

from bellcat import (
    BudgetExceededError,
    DegenerateTriangleError,
    DickeKet,
    Direction,
    SpinQuantum,
    berry_area,
    coherent_state,
    overlap_plus,
    spin_matrices,
)
from bellcat import spins

PI = math.pi


class TestSpinQuantum:
    def test_basic_properties(self):
        half = SpinQuantum(1)
        assert half.s == 0.5
        assert half.dim == 2
        assert not half.is_integer
        assert half.parity == -1

        one = SpinQuantum(2)
        assert one.s == 1.0
        assert one.dim == 3
        assert one.is_integer
        assert one.parity == 1

    def test_m_values_descending(self):
        assert list(SpinQuantum(3).m_values()) == [1.5, 0.5, -0.5, -1.5]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SpinQuantum(0)
        with pytest.raises(ValueError):
            SpinQuantum(-2)
        with pytest.raises(TypeError):
            SpinQuantum(1.5)
        with pytest.raises(TypeError):
            SpinQuantum(True)


class TestDirection:
    def test_canonical_range(self):
        d = Direction(-0.3, 0.5)
        assert d.theta == pytest.approx(0.3, abs=1e-15)
        assert d.phi == pytest.approx(0.5 + PI, abs=1e-15)

        d = Direction(2 * PI + 0.1, -0.2)
        assert d.theta == pytest.approx(0.1, abs=1e-12)
        assert 0.0 <= d.phi < 2 * PI

        assert Direction(PI, 0.0).theta == PI
        assert Direction(0.7, 2 * PI).phi == 0.0

    def test_folding_preserves_the_point(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t, p = rng.uniform(-10, 10, 2)
            raw = np.array([
                math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)
            ])
            assert np.allclose(Direction(t, p).unit_vector(), raw, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(-1e6, 1e6), phi=st.floats(-1e6, 1e6))
    def test_canonicalization_is_idempotent(self, theta, phi):
        d = Direction(theta, phi)
        assert 0.0 <= d.theta <= PI
        assert 0.0 <= d.phi < 2 * PI
        again = Direction(d.theta, d.phi)
        assert again == d
        assert again.unit_vector().tobytes() == d.unit_vector().tobytes()

    def test_tiny_negative_azimuth_stays_below_two_pi(self):
        # -1e-20 % (2 pi) rounds to 2 pi itself
        d = Direction(0.3, -1e-20)
        assert d.phi == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Direction(math.nan, 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, math.inf)


class TestCoherentStates:
    def test_north_pole_is_extreme(self):
        for two_s in (1, 2, 5):
            s = SpinQuantum(two_s)
            up = coherent_state(s, Direction(0.0, 0.0), +1)
            assert up.amps[0] == 1.0
            assert np.all(up.amps[1:] == 0.0)
            # the minus convention carries e^(i(s-m)(phi+pi)), which at the
            # pole leaves a (-1)^(2s) phase on the m=-s amplitude
            down = coherent_state(s, Direction(0.0, 0.0), -1)
            assert abs(down.amps[-1] - s.parity) < 1e-15
            assert np.all(down.amps[:-1] == 0.0)

    @pytest.mark.parametrize("two_s", [61, 120])
    def test_log_space_pole_has_one_amplitude(self, two_s):
        # above 2s = 60 the amplitudes are assembled in log space, where the
        # zero sin(theta/2) of the pole gives exact zeros, not log(0)
        for sign in (+1, -1):
            amps = coherent_state(SpinQuantum(two_s), Direction(0.0, 0.3), sign).amps
            assert np.count_nonzero(amps) == 1
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_limit_checked_before_allocating(self, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("amplitudes were allocated")

        monkeypatch.setattr(spins, "COHERENT_DIM_LIMIT", 5)
        assert coherent_state(SpinQuantum(4), Direction(1.0, 2.0)).amps.shape == (5,)
        monkeypatch.setattr(np, "empty", no_alloc)
        for sign in (+1, -1):
            with pytest.raises(BudgetExceededError, match="coherent-state limit"):
                coherent_state(SpinQuantum(5), Direction(1.0, 2.0), sign)
        with pytest.raises(AssertionError, match="allocated"):
            coherent_state(SpinQuantum(4), Direction(1.0, 2.0))

    def test_spin1_equator_amplitudes(self):
        ket = coherent_state(SpinQuantum(2), Direction(PI / 2, 0.0), +1)
        expected = np.array([0.5, 1 / math.sqrt(2), 0.5])
        assert np.allclose(ket.amps, expected, atol=1e-15)

    def test_spin_half_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = random_direction(rng)
            ket = coherent_state(SpinQuantum(1), d, +1)
            expected = np.array([
                math.cos(d.theta / 2),
                math.sin(d.theta / 2) * cmath.exp(1j * d.phi),
            ])
            assert np.allclose(ket.amps, expected, atol=1e-15)

    def test_eigenvector_property(self):
        # (n.S) |sign n> = sign * s |sign n> for every spin up to s = 10
        rng = np.random.default_rng(7)
        for two_s in range(1, 21):
            s = SpinQuantum(two_s)
            mats = spin_matrices(s)
            for _ in range(10):
                d = random_direction(rng)
                op = mats.along(d)
                for sign in (+1, -1):
                    ket = coherent_state(s, d, sign)
                    assert np.linalg.norm(ket.amps) == pytest.approx(1.0, abs=1e-12)
                    residual = op @ ket.amps - sign * s.s * ket.amps
                    assert np.max(np.abs(residual)) < 1e-12

    def test_opposite_signs_are_orthonormal(self):
        rng = np.random.default_rng(19)
        for two_s in (1, 2, 3, 6):
            s = SpinQuantum(two_s)
            for _ in range(20):
                d = random_direction(rng)
                plus = coherent_state(s, d, +1)
                minus = coherent_state(s, d, -1)
                assert abs(inner(plus, minus)) < 1e-13
                assert abs(inner(plus, plus) - 1.0) < 1e-13
                assert abs(inner(minus, minus) - 1.0) < 1e-13

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            coherent_state(SpinQuantum(1), Direction(0.1, 0.2), 2)

    def test_rotation_construction_matches_plus(self):
        rng = np.random.default_rng(23)
        for two_s in range(1, 13):
            s = SpinQuantum(two_s)
            for _ in range(5):
                d = random_direction(rng)
                a = coherent_state(s, d, +1)
                b = coherent_state_by_rotation(s, d, +1)
                assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_rotation_construction_minus_global_phase(self):
        # same ray, global phase (-e^(-i phi))^(2s)
        rng = np.random.default_rng(29)
        for two_s in range(1, 9):
            s = SpinQuantum(two_s)
            for _ in range(5):
                d = random_direction(rng)
                closed = coherent_state(s, d, -1)
                rotated = coherent_state_by_rotation(s, d, -1)
                ratio = inner(closed, rotated)
                assert abs(abs(ratio) - 1.0) < 1e-12
                predicted = (-cmath.exp(-1j * d.phi)) ** two_s
                assert abs(ratio - predicted) < 1e-10

    def test_large_spin_stays_finite(self):
        ket = coherent_state(SpinQuantum(200), Direction(1.0, 2.0), +1)
        assert np.linalg.norm(ket.amps) == pytest.approx(1.0, abs=1e-9)


class TestInner:
    def test_known_overlap(self):
        # equatorial quarter turn at s = 1/2: <+x|+y> = (1 + i)/2
        s = SpinQuantum(1)
        x = coherent_state(s, Direction(PI / 2, 0.0), +1)
        y = coherent_state(s, Direction(PI / 2, PI / 2), +1)
        assert inner(x, y) == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_spin_mismatch(self):
        with pytest.raises(SpinMismatchError):
            inner(extreme_state(SpinQuantum(1), +1), extreme_state(SpinQuantum(2), +1))

    def test_overlap_plus_matches_kets(self):
        rng = np.random.default_rng(31)
        for two_s in (1, 2, 3, 5):
            s = SpinQuantum(two_s)
            for _ in range(20):
                n1 = random_direction(rng)
                n2 = random_direction(rng)
                direct = inner(coherent_state(s, n1, +1), coherent_state(s, n2, +1))
                assert abs(direct - overlap_plus(s, n1, n2)) < 1e-12


class TestGeometricPhase:
    def test_modulus_law(self):
        # |<+n1|+n2>| = ((1 + n1.n2)/2)^s
        rng = np.random.default_rng(37)
        for two_s in range(1, 11):
            s = SpinQuantum(two_s)
            for _ in range(30):
                n1 = random_direction(rng)
                n2 = random_direction(rng)
                expected = ((1.0 + n1.dot(n2)) / 2.0) ** s.s
                assert abs(abs(overlap_plus(s, n1, n2)) - expected) < 1e-12

    def test_phase_law(self):
        # arg <+n1|+n2> = s * area(pole, n1, n2)  (mod 2 pi)
        rng = np.random.default_rng(41)
        for two_s in range(1, 7):
            s = SpinQuantum(two_s)
            for _ in range(100):
                n1, n2 = nondegenerate_pair(rng)
                phase = cmath.phase(overlap_plus(s, n1, n2))
                predicted = s.s * berry_area(n1, n2)
                residual = (phase - predicted) % (2 * PI)
                assert min(residual, 2 * PI - residual) < 1e-8

    def test_phase_law_across_the_log_space_switch(self):
        # above 2s = 60 the ket amplitudes are assembled in log space; the
        # kets' overlap still equals overlap_plus and carries the phase
        # s * area.  Pairs with |overlap| < 1e-3 are skipped: there the
        # phase is lost to rounding (residuals up to about 3 rad at these
        # spins).
        rng = np.random.default_rng(47)
        for two_s in (58, 59, 60, 61, 62, 80, 120, 200):
            s = SpinQuantum(two_s)
            checked = 0
            while checked < 20:
                n1, n2 = nondegenerate_pair(rng)
                closed = overlap_plus(s, n1, n2)
                if abs(closed) < 1e-3:
                    continue
                direct = np.vdot(coherent_state(s, n1, +1).amps, coherent_state(s, n2, +1).amps)
                assert abs(direct - closed) < 1e-12
                residual = (cmath.phase(direct) - s.s * berry_area(n1, n2)) % (2 * PI)
                assert min(residual, 2 * PI - residual) < 1e-9
                checked += 1

    def test_octant_area(self):
        n1 = Direction(PI / 2, 0.0)
        n2 = Direction(PI / 2, PI / 2)
        assert berry_area(n1, n2) == pytest.approx(PI / 2, abs=1e-12)
        assert berry_area(n2, n1) == pytest.approx(-PI / 2, abs=1e-12)

    def test_area_shrinks_with_triangle(self):
        base = Direction(1.0, 0.5)
        for eps in (1e-2, 1e-4, 1e-6):
            near = Direction(1.0, 0.5 + eps)
            assert abs(berry_area(base, near)) < 2.0 * eps

    def test_area_bounds(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n1, n2 = nondegenerate_pair(rng, min_dot=-1.1)
            assert abs(berry_area(n1, n2)) < 2 * PI

    def test_degenerate_triangles(self):
        with pytest.raises(DegenerateTriangleError):
            berry_area(Direction(0.0, 0.0), Direction(1.0, 1.0))
        with pytest.raises(DegenerateTriangleError):
            berry_area(Direction(1.0, 1.0), Direction(PI, 0.0))
        with pytest.raises(DegenerateTriangleError):
            berry_area(Direction(1.0, 1.0), Direction(1.0, 1.0))
        with pytest.raises(DegenerateTriangleError):
            berry_area(Direction(1.0, 1.0), Direction(PI - 1.0, 1.0 + PI))


class TestSpinMatrices:
    def test_pauli_half(self):
        mats = spin_matrices(SpinQuantum(1))
        assert np.allclose(mats.sx, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(mats.sy, np.array([[0, -0.5j], [0.5j, 0]]))
        assert np.allclose(mats.sz, np.array([[0.5, 0], [0, -0.5]]))

    def test_spin_one(self):
        mats = spin_matrices(SpinQuantum(2))
        assert np.allclose(np.diag(mats.sz), [1.0, 0.0, -1.0])
        r = 1 / math.sqrt(2)
        assert np.allclose(mats.sx, np.array([[0, r, 0], [r, 0, r], [0, r, 0]]))

    def test_commutators_and_casimir(self):
        for two_s in (1, 2, 3, 6):
            s = SpinQuantum(two_s)
            mats = spin_matrices(s)
            comm = mats.sx @ mats.sy - mats.sy @ mats.sx
            assert np.allclose(comm, 1j * mats.sz, atol=1e-12)
            casimir = mats.sx @ mats.sx + mats.sy @ mats.sy + mats.sz @ mats.sz
            assert np.allclose(casimir, s.s * (s.s + 1) * np.eye(s.dim), atol=1e-12)

    def test_transverse_components_do_not_bridge_extremes(self):
        # <+s| sx |-s> vanishes once the extremes differ by more than one
        # m step; this is why the cross correlation collapses for s >= 1.
        for two_s in (2, 3, 4, 8):
            s = SpinQuantum(two_s)
            mats = spin_matrices(s)
            up = extreme_state(s, +1).amps
            down = extreme_state(s, -1).amps
            assert abs(up.conj() @ mats.sx @ down) == 0.0
            assert abs(up.conj() @ mats.sy @ down) == 0.0
        half = spin_matrices(SpinQuantum(1))
        up = extreme_state(SpinQuantum(1), +1).amps
        down = extreme_state(SpinQuantum(1), -1).amps
        assert abs(up.conj() @ half.sx @ down) == pytest.approx(0.5)

    def test_matrices_are_read_only(self):
        mats = spin_matrices(SpinQuantum(2))
        with pytest.raises(ValueError):
            mats.sx[0, 0] = 1.0


class TestSpinMoments:
    def test_extreme_spin_one(self):
        m = spin_moments(extreme_state(SpinQuantum(2), +1))
        assert np.allclose(m.mean, [0.0, 0.0, 1.0], atol=1e-14)
        assert np.allclose(m.second, [0.5, 0.5, 1.0], atol=1e-14)
        assert m.total_second == pytest.approx(2.0, abs=1e-13)

    def test_coherent_mean_points_along_axis(self):
        rng = np.random.default_rng(47)
        for two_s in (1, 3, 4):
            s = SpinQuantum(two_s)
            for _ in range(10):
                d = random_direction(rng)
                m = spin_moments(coherent_state(s, d, +1))
                assert np.allclose(m.mean, s.s * d.unit_vector(), atol=1e-12)
                assert m.total_second == pytest.approx(s.s * (s.s + 1), abs=1e-12)


class TestDickeKet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DickeKet(SpinQuantum(2), np.array([1.0, 0.0]))

    def test_amps_read_only(self):
        ket = extreme_state(SpinQuantum(1), +1)
        with pytest.raises(ValueError):
            ket.amps[0] = 5.0
