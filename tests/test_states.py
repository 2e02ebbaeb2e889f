"""Cat-state construction and the density split."""

import math

import numpy as np
import pytest
from reference import ProductKet, SpinMismatchError, density_dyads, extreme_state, full_matrix

from bellcat import CatCoefficients, CatState, SpinQuantum, singlet


def dense_from_dyads(state):
    dyads = density_dyads(state)
    dim = state.s.dim ** 2
    rho = np.zeros((dim, dim), dtype=complex)
    for weight, u, v in dyads.terms():
        rho += weight * np.outer(u.vector(), v.vector().conj())
    return rho


class TestCoefficients:
    def test_singlet_values(self):
        st = singlet(SpinQuantum(1))
        r = 1 / math.sqrt(2)
        assert st.coeffs.c1 == pytest.approx(r, abs=1e-15)
        assert st.coeffs.c2 == pytest.approx(-r, abs=1e-15)
        assert st.coeffs.delta == 0.0
        assert st.coeffs.weight1 == pytest.approx(0.5, abs=1e-15)
        assert st.coeffs.weight2 == pytest.approx(0.5, abs=1e-15)
        assert st.coeffs.interference == pytest.approx(-1.0, abs=1e-15)

    def test_weights_always_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = CatCoefficients(*rng.uniform(-4, 4, 3))
            assert c.weight1 + c.weight2 == pytest.approx(1.0, abs=1e-14)
            assert abs(c.c1) ** 2 == pytest.approx(c.weight1, abs=1e-14)

    def test_constants_read_once_leave_identity_alone(self):
        read = CatCoefficients(0.7, 0.3, -0.8)
        fresh = CatCoefficients(0.7, 0.3, -0.8)
        assert (read.weight1, read.weight2) == (math.cos(0.7) ** 2, math.sin(0.7) ** 2)
        assert (read.interference, read.delta) == (math.sin(1.4), 0.3 - -0.8)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        spin = SpinQuantum(2)
        assert CatState(spin, read) == CatState(spin, fresh)
        with pytest.raises(AttributeError):
            read.alpha = 0.1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CatCoefficients(math.nan)
        with pytest.raises(ValueError):
            CatCoefficients(0.0, math.inf, 0.0)


class TestDensityDyads:
    def test_local_weights(self):
        st = CatState(SpinQuantum(2), CatCoefficients(0.7, 0.3, -0.8))
        dyads = density_dyads(st)
        (w1, b1, b1b), (w2, b2, b2b) = dyads.local
        assert w1 == pytest.approx(math.cos(0.7) ** 2, abs=1e-15)
        assert w2 == pytest.approx(math.sin(0.7) ** 2, abs=1e-15)
        assert b1 is b1b and b2 is b2b

    def test_cross_weights_conjugate_pair(self):
        st = CatState(SpinQuantum(1), CatCoefficients(math.pi / 4, math.pi / 2, 0.0))
        dyads = density_dyads(st)
        (x1, _, _), (x2, _, _) = dyads.cross
        assert x1 == pytest.approx(0.5j, abs=1e-15)
        assert x2 == pytest.approx(-0.5j, abs=1e-15)
        assert x2 == pytest.approx(x1.conjugate(), abs=1e-16)

    def test_cross_vanishes_for_single_branch(self):
        st = CatState(SpinQuantum(1), CatCoefficients(0.0))
        dyads = density_dyads(st)
        assert all(abs(w) == 0.0 for w, _, _ in dyads.cross)


class TestFullMatrix:
    def test_singlet_half_is_pure(self):
        rho = full_matrix(singlet(SpinQuantum(1)))
        eigs = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.allclose(eigs, [1.0, 0.0, 0.0, 0.0], atol=1e-13)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        assert np.allclose(rho @ rho, rho, atol=1e-13)

    def test_matches_dyad_assembly(self):
        rng = np.random.default_rng(5)
        for two_s in (1, 2, 3):
            st = CatState(SpinQuantum(two_s), CatCoefficients(*rng.uniform(-3, 3, 3)))
            assert np.allclose(full_matrix(st), dense_from_dyads(st), atol=1e-14)

    def test_local_part_is_a_classical_mixture(self):
        st = CatState(SpinQuantum(2), CatCoefficients(1.1, 0.4, 2.2))
        dyads = density_dyads(st)
        dim = st.s.dim ** 2
        rho_local = np.zeros((dim, dim), dtype=complex)
        for w, u, v in dyads.local:
            rho_local += w * np.outer(u.vector(), v.vector().conj())
        eigs = np.linalg.eigvalsh(rho_local)
        assert eigs.min() > -1e-13
        assert np.trace(rho_local).real == pytest.approx(1.0, abs=1e-13)
        purity = np.trace(rho_local @ rho_local).real
        w1, w2 = st.coeffs.weight1, st.coeffs.weight2
        assert purity == pytest.approx(w1 ** 2 + w2 ** 2, abs=1e-13)


class TestProductKet:
    def test_mismatched_spins_rejected(self):
        with pytest.raises(SpinMismatchError):
            ProductKet(extreme_state(SpinQuantum(1), +1), extreme_state(SpinQuantum(2), +1))

    def test_overlap_factorizes(self):
        up = extreme_state(SpinQuantum(1), +1)
        down = extreme_state(SpinQuantum(1), -1)
        a = ProductKet(up, down)
        b = ProductKet(down, up)
        assert a.overlap(a) == pytest.approx(1.0)
        assert a.overlap(b) == 0.0

    def test_vector_ordering(self):
        up = extreme_state(SpinQuantum(1), +1)
        down = extreme_state(SpinQuantum(1), -1)
        v = ProductKet(up, down).vector()
        # first particle is the slow index: |up, down> sits at position 1
        assert np.allclose(v, [0, 1, 0, 0])
