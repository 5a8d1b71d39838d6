import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bures.generators import gell_mann, pauli
from bures.linalg import NonHermitianError, as_square, expm_i_generator
from conftest import random_hermitian


class TestMatmul:
    def test_pauli_product(self):
        assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3), atol=0)

    def test_unitary_times_adjoint(self, rng):
        u = expm_i_generator(random_hermitian(3, rng), 0.83)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-14

    def test_non_square_rejected(self):
        # the shape check that every linalg entry point runs
        with pytest.raises(ValueError):
            as_square(np.ones((2, 3)))


class TestDagger:
    def test_pauli2_hermitian(self):
        assert np.array_equal(pauli(2).conj().T, pauli(2))


class TestTrace:
    def test_gm8_traceless(self):
        assert np.trace(gell_mann(8)) == 0.0

    def test_conjugation_invariance(self, rng):
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        u = expm_i_generator(random_hermitian(3, rng), 1.2)
        assert abs(np.trace(u @ rho @ u.conj().T) - 1.0) <= 1e-14


class TestExpm:
    def test_zero_angle(self):
        assert np.abs(expm_i_generator(pauli(3), 0.0) - np.eye(2)).max() <= 1e-15

    def test_pauli2_closed_form(self):
        beta = 0.4321
        got = expm_i_generator(pauli(2), beta)
        want = np.array([[np.cos(beta), np.sin(beta)],
                         [-np.sin(beta), np.cos(beta)]])
        assert np.abs(got - want).max() <= 1e-14

    def test_gm3_diagonal_phases(self):
        alpha = 1.234
        got = expm_i_generator(gell_mann(3), alpha)
        want = np.diag([np.exp(1j * alpha), np.exp(-1j * alpha), 1.0])
        assert np.abs(got - want).max() <= 1e-14

    def test_unitarity_random(self, rng):
        for n in (2, 3):
            for _ in range(25):
                u = expm_i_generator(random_hermitian(n, rng), rng.uniform(-5, 5))
                assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-13

    def test_determinant_law(self, rng):
        for n in (2, 3):
            h = random_hermitian(n, rng)
            t = 0.731
            det = np.linalg.det(expm_i_generator(h, t))
            assert abs(det - np.exp(1j * t * np.trace(h))) <= 1e-13
            traceless = h - np.trace(h) * np.eye(n) / n
            assert abs(np.linalg.det(expm_i_generator(traceless, t)) - 1) <= 1e-13

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianError):
            expm_i_generator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.floats(-3, 3, allow_nan=False),
           st.floats(-3, 3, allow_nan=False))
    def test_group_law(self, seed, s, t):
        h = random_hermitian(3, np.random.default_rng(seed))
        lhs = expm_i_generator(h, s + t)
        rhs = expm_i_generator(h, s) @ expm_i_generator(h, t)
        assert np.abs(lhs - rhs).max() <= 1e-13

