import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bures.euler import (AngleRangeError, CosetAngles,
                         DensityMatrixParams, EigenvalueAngles,
                         NotADensityMatrixError, coset_unitary, density_batch,
                         density_from_params, diag_eigenvalues,
                         diag_eigenvalues_batch, euler_unitary,
                         params_from_density_2, params_from_values,
                         validate_density)
from bures.functionals import eigenvalue_moment, purity, von_neumann_entropy
from bures.kernels import THETA2_MAX, coset_unitary_batch
from conftest import random_box_points


def params2(theta, alpha, beta):
    return params_from_values(2, [theta, alpha, beta])


class TestAngleTypes:
    def test_range_endpoints_inclusive(self):
        EigenvalueAngles(2, (0.0,))
        EigenvalueAngles(2, (math.pi / 4,))
        EigenvalueAngles(3, (math.pi / 4, THETA2_MAX))
        CosetAngles(2, (math.pi, math.pi / 2))
        CosetAngles(3, (math.pi, math.pi / 2, math.pi, math.pi / 2, math.pi, math.pi / 2))

    @pytest.mark.parametrize("bad", [-1e-12, math.pi / 4 + 1e-12, 1.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(AngleRangeError, match="theta"):
            EigenvalueAngles(2, (bad,))

    def test_error_names_the_angle(self):
        with pytest.raises(AngleRangeError, match="theta_big"):
            CosetAngles(3, (0.1, 0.1, 0.1, 2.0, 0.1, 0.1))

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            EigenvalueAngles(3, (0.1,))
        with pytest.raises(ValueError):
            params_from_values(2, [0.1, 0.2])

    def test_total_dimension(self):
        assert len(params_from_values(2, [0, 0, 0]).values()) == 3
        assert len(params_from_values(3, [0] * 8).values()) == 8

    def test_component_dims_must_agree(self):
        with pytest.raises(ValueError):
            DensityMatrixParams(2, EigenvalueAngles(2, (0.1,)),
                                CosetAngles(3, (0,) * 6))


class TestDiagEigenvalues:
    def test_pure_state(self):
        assert np.allclose(diag_eigenvalues(EigenvalueAngles(2, (0.0,))), [1, 0], atol=0)

    def test_exact_trig_value(self):
        lam = diag_eigenvalues(EigenvalueAngles(2, (math.pi / 6,)))
        assert np.abs(lam - np.array([0.75, 0.25])).max() <= 1e-15

    def test_maximally_mixed_3state(self):
        lam = diag_eigenvalues(EigenvalueAngles(3, (math.pi / 4, THETA2_MAX)))
        assert np.abs(lam - 1 / 3).max() <= 1e-15

    def test_simplex(self, rng):
        for n in (2, 3):
            pts = random_box_points(n, 200, rng)[:, :n - 1]
            lam = diag_eigenvalues_batch(n, pts)
            assert lam.min() >= 0
            assert np.abs(lam.sum(axis=1) - 1).max() <= 1e-15

    def test_first_eigenvalue_dominates_2state(self):
        for t in np.linspace(0, math.pi / 4, 50):
            lam = diag_eigenvalues(EigenvalueAngles(2, (t,)))
            assert lam[0] >= lam[1]


class TestEulerUnitary:
    def test_identity_at_zero(self):
        assert np.abs(euler_unitary(2, (0, 0, 0)) - np.eye(2)).max() <= 1e-14
        assert np.abs(euler_unitary(3, [0] * 8) - np.eye(3)).max() <= 1e-14

    def test_commuting_diagonal_factors(self):
        al, ga = 0.3, 1.1
        got = euler_unitary(2, (al, 0.0, ga))
        want = np.diag([np.exp(1j * (al + ga)), np.exp(-1j * (al + ga))])
        assert np.abs(got - want).max() <= 1e-14

    def test_wrong_angle_count(self):
        with pytest.raises(ValueError):
            euler_unitary(2, (0.1, 0.2))
        with pytest.raises(ValueError):
            euler_unitary(3, [0.1] * 7)

    def test_special_unitary(self, rng):
        for n, count in ((2, 3), (3, 8)):
            for _ in range(20):
                u = euler_unitary(n, rng.uniform(0, math.pi, count))
                assert np.abs(u @ u.conj().T - np.eye(n)).max() <= 1e-13
                assert abs(np.linalg.det(u) - 1) <= 1e-13


class TestCosetUnitary:
    def test_rotation_closed_form(self):
        beta = 0.77
        got = coset_unitary(CosetAngles(2, (0.0, beta)))
        want = np.array([[np.cos(beta), np.sin(beta)],
                         [-np.sin(beta), np.cos(beta)]])
        assert np.abs(got - want).max() <= 1e-14

    def test_diagonal_phases(self):
        al = 1.9
        got = coset_unitary(CosetAngles(2, (al, 0.0)))
        assert np.abs(got - np.diag([np.exp(1j * al), np.exp(-1j * al)])).max() <= 1e-14

    def test_identity_3state(self):
        assert np.abs(coset_unitary(CosetAngles(3, (0,) * 6)) - np.eye(3)).max() <= 1e-14

    def test_batch_matches_scalar(self, rng):
        for n in (2, 3):
            pts = random_box_points(n, 30, rng)[:, n - 1:]
            batch = coset_unitary_batch(n, pts)
            for row, u in zip(pts, batch):
                ref = coset_unitary(CosetAngles(n, tuple(row)))
                assert np.abs(u - ref).max() <= 1e-13


class TestDensityFromParams:
    def test_zero_coset_gives_diagonal(self):
        p = params2(0.3, 0.0, 0.0)
        rho = density_from_params(p)
        lam = diag_eigenvalues(p.eigen)
        assert np.abs(rho - np.diag(lam)).max() <= 1e-14

    def test_maximally_mixed_fixed_point(self, rng):
        for _ in range(10):
            p = params2(math.pi / 4, rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
            assert np.abs(density_from_params(p) - np.eye(2) / 2).max() <= 1e-14

    def test_rotated_pure_state(self):
        # U = e^{i s2 pi/4} = [[c, s], [-s, c]] applied to diag(1, 0)
        rho = density_from_params(params2(0.0, 0.0, math.pi / 4))
        want = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.abs(rho - want).max() <= 1e-14

    def test_validity_random(self, rng):
        for n in (2, 3):
            pts = random_box_points(n, 300, rng)
            rhos = density_batch(n, pts[:, :n - 1], pts[:, n - 1:])
            herm = np.abs(rhos - np.swapaxes(rhos, 1, 2).conj()).max()
            assert herm <= 1e-13
            tr = np.trace(rhos, axis1=1, axis2=2)
            assert np.abs(tr - 1).max() <= 1e-13
            w = np.linalg.eigvalsh(rhos)
            assert w.min() >= -1e-12
            lam = np.sort(diag_eigenvalues_batch(n, pts[:, :n - 1]), axis=1)
            assert np.abs(np.sort(w, axis=1) - lam).max() <= 1e-12

    def test_dropped_angle_invariance_small(self, rng):
        # full-size version in test_acceptance
        for n, dropped in ((2, 1), (3, 2)):
            pts = random_box_points(n, 5, rng)
            for row in pts:
                k = n - 1
                lam = diag_eigenvalues_batch(n, row[None, :k])[0]
                for slot in range(dropped):
                    rhos = []
                    for g in np.linspace(0, 2 * math.pi, 5):
                        full = list(row[k:]) + [0.0] * dropped
                        full[len(row[k:]) + slot] = g
                        u = euler_unitary(n, full)
                        rhos.append((u * lam) @ u.conj().T)
                    spread = max(np.abs(r - rhos[0]).max() for r in rhos)
                    assert spread <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0, math.pi / 4), st.floats(0, math.pi), st.floats(0, math.pi / 2))
    def test_validity_property(self, theta, alpha, beta):
        rho = density_from_params(params2(theta, alpha, beta))
        assert abs(np.trace(rho) - 1) <= 1e-13
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestClosedFormKernel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_density_batch_matches_expm_chain(self, rng, n):
        # the closed-form batch kernel against the product of generator
        # exponentials; every few rows sit on a box edge: theta (or theta1)
        # = 0 and pi/4, beta (column n) = 0 and pi/2, theta2 at its max
        pts = random_box_points(n, 1200, rng)
        edges = [(0, 0.0), (0, math.pi / 4), (n, 0.0), (n, math.pi / 2)]
        if n == 3:
            edges.append((1, THETA2_MAX))
        for i, (col, value) in enumerate(edges):
            pts[i::len(edges) + 1, col] = value
        k = n - 1
        fast = density_batch(n, pts[:, :k], pts[:, k:])
        ref = np.array([density_from_params(params_from_values(n, row)) for row in pts])
        assert np.abs(fast - ref).max() <= 1e-14
        # each entry has its own closed form: rho_ji = conj(rho_ij) exactly,
        # which also makes the diagonal exactly real
        assert np.array_equal(fast, fast.conj().transpose(0, 2, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_do_not_depend_on_row_count(self, rng, n):
        # each cell is formed elementwise, so a row's bits must not depend on
        # the rows that come with it; from 16384 rows up numpy reuses
        # temporaries in place, which can swap a product's operands, so the
        # kernel's products must be bitwise commutative (real ones are)
        pts = random_box_points(n, 65536, rng)
        k = n - 1
        for total in (16384, 16385, 65536):
            whole = density_batch(n, pts[:total, :k], pts[:total, k:])
            for m in (1, 1000, 1024, 16383):
                part = density_batch(n, pts[:m, :k], pts[:m, k:])
                assert part.tobytes() == whole[:m].tobytes(), (total, m)


class TestValidateDensity:
    def test_accepts_valid(self):
        validate_density(np.diag([0.75, 0.25]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotADensityMatrixError, match="Hermitian"):
            validate_density(np.array([[0.5, 0.4], [0.1, 0.5]], dtype=complex))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotADensityMatrixError, match="trace"):
            validate_density(np.diag([0.8, 0.4]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotADensityMatrixError, match="negative"):
            validate_density(np.diag([1.2, -0.2]).astype(complex))

    def test_dimension_mismatch(self):
        with pytest.raises(NotADensityMatrixError):
            validate_density(np.eye(3) / 3, n=2)

    @pytest.mark.parametrize("rho", [
        np.full((2, 2), math.nan),
        [[math.nan, 0.0], [0.0, 1.0]],
        [[0.5, math.nan], [math.nan, 0.5]],
        [[0.5, math.inf], [math.inf, 0.5]],
    ], ids=["all-nan", "diagonal-nan", "off-diagonal-nan", "off-diagonal-inf"])
    def test_rejects_non_finite(self, rho):
        # a NaN fails every tolerance comparison, so only an explicit
        # finiteness check rejects these
        for fn in (validate_density, von_neumann_entropy, purity,
                   lambda m: eigenvalue_moment(m, 2), params_from_density_2):
            with pytest.raises(NotADensityMatrixError, match="finite"):
                fn(np.array(rho, dtype=complex))


class TestInverse2:
    def test_diagonal_exact(self):
        res = params_from_density_2(np.diag([0.75, 0.25]).astype(complex))
        assert not res.degenerate
        theta, alpha, beta = res.params.values()
        assert abs(theta - math.pi / 6) <= 1e-12
        assert alpha == 0.0
        assert beta <= 1e-12

    def test_maximally_mixed_flagged(self):
        res = params_from_density_2(np.eye(2, dtype=complex) / 2)
        assert res.degenerate
        theta, alpha, beta = res.params.values()
        assert abs(theta - math.pi / 4) <= 1e-12
        assert (alpha, beta) == (0.0, 0.0)

    def test_gap_threshold(self):
        flagged = params_from_density_2(np.diag([0.5 + 1e-11, 0.5 - 1e-11]).astype(complex))
        assert flagged.degenerate
        clear = params_from_density_2(np.diag([0.5 + 5e-10, 0.5 - 5e-10]).astype(complex))
        assert not clear.degenerate

    def test_roundtrip_random(self, rng):
        worst = 0.0
        for row in random_box_points(2, 300, rng):
            p = params_from_values(2, row)
            rho = density_from_params(p)
            rec = params_from_density_2(rho)
            worst = max(worst, np.abs(density_from_params(rec.params) - rho).max())
        assert worst <= 1e-10

    def test_recovered_angles_in_range(self, rng):
        for row in random_box_points(2, 100, rng):
            rec = params_from_density_2(density_from_params(params_from_values(2, row)))
            theta, alpha, beta = rec.params.values()
            assert 0 <= theta <= math.pi / 4
            assert 0 <= alpha <= math.pi
            assert 0 <= beta <= math.pi / 2

    @pytest.mark.parametrize("theta, tol", [(1e-2, 2e-13), (1e-4, 1e-8)])
    def test_theta_near_pure_state(self, theta, tol):
        # arccos(sqrt(lambda_max)) read 1.3e-12 and 2.0e-8 relative here
        rec = params_from_density_2(density_from_params(params2(theta, 0.4, 0.3)))
        assert abs(rec.params.values()[0] - theta) <= tol * theta

    def test_rejects_non_density(self):
        with pytest.raises(NotADensityMatrixError):
            params_from_density_2(np.diag([0.9, 0.3]).astype(complex))

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, math.pi / 4), st.floats(0.0, math.pi),
           st.floats(0.0, math.pi / 2))
    def test_roundtrip_property(self, theta, alpha, beta):
        rho = density_from_params(params2(theta, alpha, beta))
        rec = params_from_density_2(rho)
        assert np.abs(density_from_params(rec.params) - rho).max() <= 1e-10
