"""Closed-form correlations against the dyad oracle and frozen benchmarks."""

import json
import math

import numpy as np
import pytest
from conftest import random_direction, random_state
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import full_matrix, outcome_basis, rho_elements_oracle

from bellcat import (
    CatCoefficients,
    CatState,
    CorrelationBreakdown,
    DegeneratePostselectionError,
    Direction,
    SpinQuantum,
    correlation,
    lc_correlation_closed,
    rho_elements_closed,
    singlet,
    unrestricted_correlation,
    wigner_joint,
)
from bellcat.correlations import _lc_axis

PI = math.pi
EQ = Direction(PI / 2, 0.0)


class TestOutcomeBasis:
    def test_orthonormal(self):
        rng = np.random.default_rng(1)
        for two_s in (1, 2, 3):
            basis = outcome_basis(
                SpinQuantum(two_s), random_direction(rng), random_direction(rng)
            )
            gram = np.array(
                [[ki.overlap(kj) for kj in basis.kets] for ki in basis.kets]
            )
            assert np.allclose(gram, np.eye(4), atol=1e-13)


class TestOracleAgainstDenseMatrix:
    def test_elements_match_projections(self):
        # independent check: <i|rho|i> from the dense density matrix
        rng = np.random.default_rng(3)
        for two_s in (1, 2, 3):
            st = random_state(rng, two_s)
            a, b = random_direction(rng), random_direction(rng)
            rho = full_matrix(st)
            basis = outcome_basis(st.s, a, b)
            elements = rho_elements_oracle(st, a, b)
            for i, ket in enumerate(basis.kets):
                v = ket.vector()
                dense = float((v.conj() @ rho @ v).real)
                assert elements.totals[i] == pytest.approx(dense, abs=1e-12)


class TestClosedForms:
    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for two_s in range(1, 7):
            for _ in range(15):
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                o = rho_elements_oracle(st, a, b)
                c = rho_elements_closed(st, a, b)
                assert np.max(np.abs(o.lc - c.lc)) < 1e-12
                assert np.max(np.abs(o.nlc - c.nlc)) < 1e-12

    def test_singlet_half_frozen_elements(self):
        st = singlet(SpinQuantum(1))
        z = Direction(0.0, 0.0)
        el = rho_elements_closed(st, z, z)
        assert np.allclose(el.lc, [0.0, 0.5, 0.5, 0.0], atol=1e-15)
        assert np.allclose(el.nlc, 0.0, atol=1e-15)
        assert el.weight == pytest.approx(1.0, abs=1e-15)

    def test_spin_one_equatorial_interference_is_one_sixteenth(self):
        # the cross element for the spin-1 cat at two equatorial axes:
        # sin(2 alpha) cos(2 dphi) / 16, pinned by the dyad oracle
        st = singlet(SpinQuantum(2))
        closed = rho_elements_closed(st, EQ, EQ)
        oracle = rho_elements_oracle(st, EQ, EQ)
        assert closed.nlc[0] == pytest.approx(-1.0 / 16.0, abs=1e-15)
        assert oracle.nlc[0] == pytest.approx(-1.0 / 16.0, abs=1e-13)

    def test_parity_links_flipped_outcomes(self):
        rng = np.random.default_rng(11)
        for two_s in range(1, 7):
            par = SpinQuantum(two_s).parity
            found = 0
            while found < 20:
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                el = rho_elements_closed(st, a, b)
                if abs(el.nlc[0]) < 1e-6:
                    continue
                found += 1
                assert el.nlc[1] == pytest.approx(par * el.nlc[0], rel=1e-12)
                assert el.nlc[2] == pytest.approx(par * el.nlc[0], rel=1e-12)
                assert el.nlc[3] == pytest.approx(el.nlc[0], rel=1e-12)

    def test_weight_never_exceeds_one(self):
        rng = np.random.default_rng(13)
        for two_s in range(1, 7):
            for _ in range(40):
                st = random_state(rng, two_s)
                el = rho_elements_closed(st, random_direction(rng), random_direction(rng))
                assert -1e-12 < el.weight < 1.0 + 1e-12
                assert np.all(el.lc >= 0.0)

    def test_half_spin_weight_is_unity(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            st = random_state(rng, 1)
            el = rho_elements_closed(st, random_direction(rng), random_direction(rng))
            assert el.weight == pytest.approx(1.0, abs=1e-13)


class TestCorrelation:
    def test_singlet_half_is_minus_dot_product(self):
        rng = np.random.default_rng(19)
        st = singlet(SpinQuantum(1))
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            br = correlation(st, a, b)
            assert br.p_total == pytest.approx(-a.dot(b), abs=1e-12)
            assert br.postselect_weight == pytest.approx(1.0, abs=1e-13)

    def test_integer_spin_cross_part_cancels_exactly(self):
        rng = np.random.default_rng(23)
        for two_s in (2, 4, 6):
            for _ in range(50):
                st = random_state(rng, two_s)
                br = correlation(st, random_direction(rng), random_direction(rng))
                assert br.p_nlc == 0.0
                assert br.p_total == br.p_lc

    def test_three_halves_equatorial_benchmark(self):
        st = singlet(SpinQuantum(3))
        b = Direction(PI / 2, PI / 3)
        br = correlation(st, EQ, b)
        assert br.p_total == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert br.p_lc == pytest.approx(0.0, abs=1e-15)

    def test_raw_total_bounded(self):
        rng = np.random.default_rng(29)
        for two_s in range(1, 6):
            for _ in range(40):
                st = random_state(rng, two_s)
                br = correlation(st, random_direction(rng), random_direction(rng))
                assert -1.0 - 1e-12 <= br.p_total <= 1.0 + 1e-12

    def test_postselected_divides_by_weight(self):
        st = singlet(SpinQuantum(3))
        a, b = Direction(0.9, 0.2), Direction(2.0, 1.4)
        raw = correlation(st, a, b, mode="raw")
        post = correlation(st, a, b, mode="postselected")
        w = raw.postselect_weight
        assert 0.0 < w < 1.0
        assert post.p_total == pytest.approx(raw.p_total / w, rel=1e-13)
        assert post.p_lc == pytest.approx(raw.p_lc / w, rel=1e-13)
        assert post.postselect_weight == w

    def test_degenerate_postselection(self):
        # spin-1 cat at identical equatorial axes: conclusive weight is 0
        st = singlet(SpinQuantum(2))
        assert rho_elements_closed(st, EQ, EQ).weight == 0.0
        with pytest.raises(DegeneratePostselectionError):
            correlation(st, EQ, EQ, mode="postselected")

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            correlation(singlet(SpinQuantum(1)), EQ, EQ, mode="bogus")

    def test_round_trip_dict(self):
        # the dict the CLI prints carries every field
        br = correlation(singlet(SpinQuantum(3)), Direction(0.4, 0.1), Direction(1.2, 2.2))
        again = CorrelationBreakdown(**json.loads(json.dumps(br.to_dict())))
        assert again == br


class TestClosedPieces:
    def test_lc_aligned_poles(self):
        for two_s in (1, 2, 5):
            s = SpinQuantum(two_s)
            z = Direction(0.0, 0.0)
            assert lc_correlation_closed(s, z, z) == pytest.approx(-1.0, abs=1e-15)
            assert lc_correlation_closed(s, z, Direction(PI, 0.0)) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_lc_equator_vanishes(self):
        for two_s in (1, 2, 3):
            assert lc_correlation_closed(SpinQuantum(two_s), EQ, Direction(PI / 2, 1.0)) == (
                pytest.approx(0.0, abs=1e-15)
            )

    def test_lc_spin_one_frozen(self):
        d = Direction(PI / 3, 0.0)
        assert lc_correlation_closed(SpinQuantum(2), d, d) == pytest.approx(
            -0.25, abs=1e-15
        )

    def test_lc_matches_breakdown(self):
        rng = np.random.default_rng(31)
        for two_s in range(1, 6):
            st = random_state(rng, two_s)
            a, b = random_direction(rng), random_direction(rng)
            assert correlation(st, a, b).p_lc == pytest.approx(
                lc_correlation_closed(st.s, a, b), abs=1e-14
            )

    def test_nlc_integer_exact_zero(self):
        rng = np.random.default_rng(37)
        for two_s in (2, 4):
            st = random_state(rng, two_s)
            assert correlation(st, random_direction(rng), random_direction(rng)).p_nlc == 0.0

    def test_nlc_singlet_half_closed_form(self):
        rng = np.random.default_rng(41)
        st = singlet(SpinQuantum(1))
        for _ in range(100):
            a, b = random_direction(rng), random_direction(rng)
            expected = -math.sin(a.theta) * math.sin(b.theta) * math.cos(a.phi - b.phi)
            assert correlation(st, a, b).p_nlc == pytest.approx(expected, abs=1e-13)

    def test_nlc_matches_breakdown(self):
        # half-integer spin: the non-local part is four times the first
        # interference element, here the dyad oracle's
        rng = np.random.default_rng(43)
        for two_s in (1, 3, 5):
            st = random_state(rng, two_s)
            a, b = random_direction(rng), random_direction(rng)
            assert correlation(st, a, b).p_nlc == pytest.approx(
                4.0 * rho_elements_oracle(st, a, b).nlc[0], abs=1e-14
            )


class TestWignerJoint:
    def test_matches_elements(self):
        rng = np.random.default_rng(47)
        st = random_state(rng, 2)
        a, b = random_direction(rng), random_direction(rng)
        el = rho_elements_closed(st, a, b)
        signs = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]
        for idx, (sa, sb) in enumerate(signs):
            assert wigner_joint(st, a, b, sa, sb, part="lc") == el.lc[idx]
            assert wigner_joint(st, a, b, sa, sb, part="full") == pytest.approx(
                el.totals[idx], abs=1e-15
            )

    def test_spin_one_antipodal_frozen(self):
        st = singlet(SpinQuantum(2))
        up = Direction(0.0, 0.0)
        down = Direction(PI, 0.0)
        assert wigner_joint(st, up, down, +1, +1, part="lc") == pytest.approx(
            0.5, abs=1e-15
        )
        assert wigner_joint(st, up, up, +1, +1, part="lc") == pytest.approx(
            0.0, abs=1e-15
        )

    def test_validation(self):
        st = singlet(SpinQuantum(1))
        with pytest.raises(ValueError):
            wigner_joint(st, EQ, EQ, 0, 1)
        with pytest.raises(ValueError):
            wigner_joint(st, EQ, EQ, +1, +1, part="both")


class TestUnrestricted:
    def test_spin_one_poles_frozen(self):
        st = singlet(SpinQuantum(2))
        z = Direction(0.0, 0.0)
        assert unrestricted_correlation(st, z, z) == pytest.approx(-1.0, abs=1e-13)

    def test_singlet_half_isotropic(self):
        rng = np.random.default_rng(53)
        st = singlet(SpinQuantum(1))
        for _ in range(100):
            a, b = random_direction(rng), random_direction(rng)
            assert unrestricted_correlation(st, a, b) == pytest.approx(
                -a.dot(b) / 4.0, abs=1e-12
            )

    def test_higher_spins_keep_only_longitudinal(self):
        # any coefficients: -s^2 cos(theta_a) cos(theta_b) for s >= 1
        rng = np.random.default_rng(59)
        for two_s in (2, 3, 4):
            s = two_s / 2.0
            for _ in range(30):
                st = random_state(rng, two_s)
                a, b = random_direction(rng), random_direction(rng)
                expected = -(s ** 2) * math.cos(a.theta) * math.cos(b.theta)
                assert unrestricted_correlation(st, a, b) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_matches_dense_kron(self):
        from bellcat import spin_matrices

        rng = np.random.default_rng(61)
        st = random_state(rng, 3)
        a, b = random_direction(rng), random_direction(rng)
        mats = spin_matrices(st.s)
        rho = full_matrix(st)
        op = np.kron(mats.along(a), mats.along(b))
        dense = float(np.trace(rho @ op).real)
        assert unrestricted_correlation(st, a, b) == pytest.approx(dense, abs=1e-12)


class TestCorrelationProperties:
    angle = st.one_of(st.sampled_from([0.0, PI / 2, PI]), st.floats(-20.0, 20.0))
    coefficient = st.one_of(st.sampled_from([0.0, PI / 4, -PI / 4, PI / 2]),
                            st.floats(-10.0, 10.0))
    cat = st.builds(CatState, st.sampled_from([1, 2, 3, 4, 5, 6, 59, 60, 61]).map(SpinQuantum),
                    st.builds(CatCoefficients, coefficient, coefficient, coefficient))

    @settings(max_examples=300, deadline=None)
    @given(state=cat, a=st.builds(Direction, angle, angle), b=st.builds(Direction, angle, angle))
    def test_raw_total_is_bounded_and_parts_add_up(self, state, a, b):
        raw = correlation(state, a, b)
        # cos(alpha)^2 + sin(alpha)^2 can round to 1 + 2^-52 (alpha = 0.9426685608778058
        # with both axes at the pole gives p_total = -1.0000000000000002), so the
        # bound holds to a few ulps, not exactly.
        assert abs(raw.p_total) <= 1.0 + 8 * 2.0**-52
        assert raw.p_lc + raw.p_nlc == raw.p_total
        try:
            post = correlation(state, a, b, "postselected")
        except DegeneratePostselectionError:
            return
        assert post.p_lc + post.p_nlc == post.p_total

    signed_angle = st.one_of(st.sampled_from([0.0, -0.0, PI / 2, PI, -PI, 2 * PI, -2 * PI]),
                             st.floats(-20.0, 20.0))

    @settings(max_examples=300, deadline=None)
    @given(two_s=st.sampled_from([2, 4, 6, 58, 60, 62]),
           coeffs=st.tuples(coefficient, coefficient, coefficient),
           a=st.builds(Direction, signed_angle, signed_angle),
           b=st.builds(Direction, signed_angle, signed_angle))
    def test_integer_spin_raw_correlation_is_a_product(self, two_s, coeffs, a, b):
        # For integer s the raw correlation is -x(a) x(b) with |x| <= 1 on
        # each axis, so no raw CHSH combination of an integer spin exceeds 2.
        raw = correlation(CatState(SpinQuantum(two_s), CatCoefficients(*coeffs)), a, b)
        xa, xb = _lc_axis(two_s, a.theta), _lc_axis(two_s, b.theta)
        assert raw.p_nlc == 0.0
        assert abs(xa) <= 1.0 and abs(xb) <= 1.0
        assert abs(raw.p_total + xa * xb) <= 1e-15

    @settings(max_examples=500, deadline=None)
    @given(two_s=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 59, 60, 61]),
           coeffs=st.tuples(coefficient, coefficient, coefficient),
           a=st.builds(Direction, signed_angle, signed_angle),
           b=st.builds(Direction, signed_angle, signed_angle))
    def test_raw_correlation_is_the_papers_closed_form(self, two_s, coeffs, a, b):
        # p_total = -(w1 + w2) x(a) x(b)
        #           + 2 (1 - (-1)^(2s)) sin(2 alpha) cos(2s (phi_a - phi_b) + delta) y(a) y(b)
        # with x = K^2 - G^2 and y = (cos(theta/2) sin(theta/2))^(2s) = K G: the
        # interference term survives only for half-integer spin
        alpha, gamma1, gamma2 = coeffs
        raw = correlation(CatState(SpinQuantum(two_s), CatCoefficients(*coeffs)), a, b)

        def y(d):
            return (math.cos(d.theta / 2.0) * math.sin(d.theta / 2.0)) ** two_s

        local = -(math.cos(alpha) ** 2 + math.sin(alpha) ** 2) \
            * _lc_axis(two_s, a.theta) * _lc_axis(two_s, b.theta)
        interference = 2.0 * (1 - (-1) ** two_s) * math.sin(2.0 * alpha) \
            * math.cos(two_s * (a.phi - b.phi) + (gamma1 - gamma2)) * y(a) * y(b)
        assert abs(raw.p_total - (local + interference)) <= 4e-15
