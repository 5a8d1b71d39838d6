import functools
import math

import numpy as np
import pytest

from bures.checks import VOLUME
from bures.euler import (COSET_NAMES, COSET_RANGES, EIGEN_NAMES, EIGEN_RANGES,
                         CosetAngles, EigenvalueAngles, coset_unitary,
                         density_batch, diag_eigenvalues_batch, params_from_values)
from bures.generators import generator_set
from bures.kernels import (THETA2_MAX, coset_angles_from_uniforms,
                           coset_normalization_constant)
from bures.measure import (bures_joint_density, coset_measure_factor,
                           eigen_measure_factor,
                           eigenvalue_jacobian, haar_coset_density,
                           hall_density, normalization_constant)
from bures.tensorgrid import axis_rule, tensor_quadrature
from conftest import random_box_points

# independent high-resolution evaluations (frozen; see also pi^2 and pi^3/4).
# Z3 on the paper's box, VOLUME[3], is mpmath's tanh-sinh quadrature of the
# paper's formulas (tests/test_reference_values.py)
JOINT3_PINNED_POINT = [0.31, 0.77, 2.13, 0.95, 0.41, 1.02, 2.9, 0.2]
JOINT3_PINNED_VALUE = 0.016246150905926


class TestHallDensity:
    def test_degenerate_pair_vanishes(self):
        assert hall_density([0.5, 0.5]) == 0.0

    def test_two_state_value(self):
        # 4*(1/2)^2/1 / sqrt(3/16)
        assert abs(hall_density([0.75, 0.25]) - 4 / math.sqrt(3)) <= 1e-14

    def test_three_state_value(self):
        # hand evaluation: 16/135
        assert abs(hall_density([0.5, 1 / 3, 1 / 6]) - 16 / 135) <= 1e-14

    def test_boundary_singular(self):
        assert hall_density([1.0, 0.0]) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hall_density([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            hall_density([0.6, 0.6])

    @pytest.mark.parametrize("lam", [[math.nan, math.nan], [0.5, math.nan],
                                     [math.inf, 0.0], [0.5, 0.5, -math.inf]],
                             ids=["all-nan", "one-nan", "inf", "minus-inf"])
    def test_rejects_non_finite(self, lam):
        # a NaN compares false against the nonnegativity and unit-sum tests
        with pytest.raises(ValueError, match="finite"):
            hall_density(lam)


class TestEigenvalueJacobian:
    def test_two_state_values(self):
        assert abs(eigenvalue_jacobian(EigenvalueAngles(2, (math.pi / 4,))) - 1) <= 1e-15
        assert eigenvalue_jacobian(EigenvalueAngles(2, (0.0,))) == 0.0

    def test_three_state_finite_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            t = np.array([rng.uniform(0.01, math.pi / 4 - 0.01),
                          rng.uniform(0.01, 0.94)])
            closed = eigenvalue_jacobian(EigenvalueAngles(3, tuple(t)))
            jac = np.empty((2, 2))
            for col in range(2):
                step = np.zeros(2)
                step[col] = h
                up = diag_eigenvalues_batch(3, (t + step)[None, :])[0]
                dn = diag_eigenvalues_batch(3, (t - step)[None, :])[0]
                jac[:, col] = (up[:2] - dn[:2]) / (2 * h)
            assert abs(closed - abs(np.linalg.det(jac))) <= 1e-8


class TestEigenMeasureFactor:
    def test_matches_hall_times_jacobian_interior(self, rng):
        for n in (2, 3):
            for _ in range(100):
                pts = random_box_points(n, 1, rng)[0, :n - 1]
                # keep clear of the spectrum boundary where hall_density blows up
                eig = EigenvalueAngles(n, tuple(np.clip(pts, 0.05, None)))
                lam = diag_eigenvalues_batch(n, np.asarray(eig.angles)[None, :])[0]
                direct = hall_density(lam) * eigenvalue_jacobian(eig)
                composed = float(eigen_measure_factor(n, np.asarray(eig.angles)))
                assert abs(direct - composed) <= 1e-10 * max(1.0, abs(direct))

    def test_finite_on_boundary(self):
        assert eigen_measure_factor(2, np.array([0.0])) == 8.0
        val3 = eigen_measure_factor(3, np.array([0.0, 0.0]))
        assert np.isfinite(val3) and val3 == 0.0

    def test_two_state_closed_form(self):
        t = np.linspace(0, math.pi / 4, 64)
        got = eigen_measure_factor(2, t[:, None])
        assert np.abs(got - 8 * np.cos(2 * t) ** 2).max() <= 1e-14


class TestCosetDensity:
    def test_two_state_equals_sin_2beta(self):
        worst = 0.0
        for al in np.linspace(0, math.pi, 50):
            for be in np.linspace(0, math.pi / 2, 50):
                d = haar_coset_density(CosetAngles(2, (al, be)))
                worst = max(worst, abs(d - math.sin(2 * be)))
        assert worst <= 1e-10

    def test_two_state_pole_and_peak(self):
        assert abs(haar_coset_density(CosetAngles(2, (1.0, math.pi / 4))) - 1) <= 1e-13
        assert haar_coset_density(CosetAngles(2, (0.3, 0.0))) <= 1e-13

    def test_alpha_independence(self, rng):
        for n in (2, 3):
            base = random_box_points(n, 1, rng)[0, n - 1:]
            vals = []
            for al in np.linspace(0, math.pi, 20):
                ang = base.copy()
                ang[0] = al
                vals.append(haar_coset_density(CosetAngles(n, tuple(ang))))
            assert max(vals) - min(vals) <= 1e-10

    def test_three_state_finite_differences(self, rng):
        """Central-difference recomputation of the same coefficient matrix."""
        gset = generator_set(3)
        coset_gens = gset.coset_generators()
        h = 1e-6
        for _ in range(20):
            ang = np.array([rng.uniform(lo + 0.05, hi - 0.05) for lo, hi in COSET_RANGES[3]])
            u0 = coset_unitary(CosetAngles(3, tuple(ang)))
            rows = []
            for k in range(6):
                up, dn = ang.copy(), ang.copy()
                up[k] += h
                dn[k] -= h
                du = (coset_unitary(CosetAngles(3, tuple(up)))
                      - coset_unitary(CosetAngles(3, tuple(dn)))) / (2 * h)
                x = -1j * u0.conj().T @ du
                rows.append([0.5 * np.trace(x @ t).real for t in coset_gens])
            fd = abs(np.linalg.det(np.array(rows)))
            exact = haar_coset_density(CosetAngles(3, tuple(ang)))
            assert abs(exact - fd) <= 1e-7

    def test_batch_matches_scalar(self, rng):
        # the closed-form batch kernel against |det C| from first principles
        for n in (2, 3):
            pts = random_box_points(n, 200, rng)[:, n - 1:]
            batch = coset_measure_factor(n, pts)
            for row, val in zip(pts, batch):
                assert abs(val - haar_coset_density(CosetAngles(n, tuple(row)))) <= 1e-13


def _factor_product(n: int, pts: np.ndarray) -> np.ndarray:
    """RAW joint density on full-coordinate rows: eigen factor x coset factor."""
    return eigen_measure_factor(n, pts[:, :n - 1]) * coset_measure_factor(n, pts[:, n - 1:])


class TestJointDensity:
    def test_degenerate_point_vanishes(self):
        # cos(2 theta)^2 at theta = float(pi/4); zero up to roundoff of pi/2
        p = params_from_values(2, [math.pi / 4, 0.3, 0.4])
        assert bures_joint_density(p) <= 1e-30

    def test_two_state_analytic(self, rng):
        pts = random_box_points(2, 100, rng)
        dens = _factor_product(2, pts)
        want = 8 * np.cos(2 * pts[:, 0]) ** 2 * np.sin(2 * pts[:, 2])
        assert np.abs(dens - want).max() <= 1e-10

    def test_three_state_pinned_point(self):
        p = params_from_values(3, JOINT3_PINNED_POINT)
        got = bures_joint_density(p)
        assert abs(got - JOINT3_PINNED_VALUE) <= 1e-10

    def test_nonnegative_everywhere(self, rng):
        for n in (2, 3):
            assert _factor_product(n, random_box_points(n, 500, rng)).min() >= 0.0

    def test_modes(self):
        p = params_from_values(2, [0.3, 0.5, 0.7])
        raw = bures_joint_density(p)
        norm = bures_joint_density(p, normalized=True)
        assert type(raw) is float and type(norm) is float
        assert raw == bures_joint_density(p, normalized=False)
        assert abs(norm - raw / normalization_constant(2)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_is_the_factor_product(self, rng, n):
        # the one form: the scalar is the two kernel factors on its row
        for row in random_box_points(n, 50, rng):
            got = bures_joint_density(params_from_values(n, row))
            assert type(got) is float
            assert got == _factor_product(n, row[None, :])[0]


class TestNormalization:
    def test_two_state_is_pi_squared(self):
        assert abs(normalization_constant(2) - math.pi ** 2) <= 1e-8

    def test_two_state_resolution_stability(self):
        z32 = normalization_constant(2, points=32)
        z64 = normalization_constant(2, points=64)
        assert abs(z32 - z64) <= 1e-6

    def test_three_state_pinned(self):
        assert abs(normalization_constant(3) - VOLUME[3]) <= 1e-6 * VOLUME[3]

    def test_three_state_64_points_meet_the_independent_value(self):
        # the eigenvalue factor is analytic on the box, so Gauss-Legendre
        # reaches roundoff: 1.8e-15 relative at 64 points
        z = normalization_constant(3, points=64)
        assert abs(z - VOLUME[3]) <= 1e-14 * VOLUME[3]

    @staticmethod
    def _coset_quadrature(n: int) -> float:
        lower, upper = zip(*COSET_RANGES[n])
        return tensor_quadrature(lambda p: coset_measure_factor(n, p),
                                 lower, upper, 10)

    def test_coset_constant_3state(self):
        # pi^3 from the three free diagonal angles, 1/4 from the rest; the
        # production rule takes 1-D and 2-D boxes only, so the 6-D
        # tensor-product rule (10^6 nodes) is built here from the axis rules
        rules = [axis_rule(10, lo, hi) for lo, hi in COSET_RANGES[3]]
        grid = np.meshgrid(*(x for x, _ in rules), indexing="ij")
        nodes = np.stack([g.ravel() for g in grid], axis=-1)
        weights = functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()
        quad = float(np.add.reduce(weights * coset_measure_factor(3, nodes)))
        assert abs(quad - math.pi ** 3 / 4) <= 1e-9
        assert abs(coset_normalization_constant(3) - quad) <= 1e-9

    def test_coset_constant_2state(self):
        quad = self._coset_quadrature(2)
        assert abs(quad - math.pi) <= 1e-12
        assert abs(coset_normalization_constant(2) - quad) <= 1e-12

    def test_cached(self):
        assert normalization_constant(2) == normalization_constant(2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            normalization_constant(4)

    def test_non_integral_points_rejected(self):
        # int(3.7) would run the 3-point rule
        with pytest.raises(TypeError):
            normalization_constant(2, points=3.7)
        assert normalization_constant(2, points=np.int64(32)) == \
            normalization_constant(2, points=32)


# each batch kernel on rows shaped for n=3, which an unchecked n would run
# through the n=3 formulas
_ROW6, _ROW2 = np.full((1, 6), 0.3), np.full((1, 2), 0.3)
_BATCH_KERNELS = {
    "diag_eigenvalues_batch": lambda n: diag_eigenvalues_batch(n, _ROW2),
    "density_batch": lambda n: density_batch(n, _ROW2, _ROW6),
    "eigen_measure_factor": lambda n: eigen_measure_factor(n, _ROW2),
    "coset_measure_factor": lambda n: coset_measure_factor(n, _ROW6),
    "coset_angles_from_uniforms": lambda n: coset_angles_from_uniforms(n, _ROW6),
}


@pytest.mark.parametrize("n", [1, 4, 7])
@pytest.mark.parametrize("kernel", list(_BATCH_KERNELS))
def test_batch_kernels_reject_unsupported_n(kernel, n):
    with pytest.raises(ValueError, match=r"only n in \{2, 3\} is supported"):
        _BATCH_KERNELS[kernel](n)


class TestAngleBox:
    def test_contents(self):
        # the one angle box: eigenvalue angles, then coset angles
        quarter, half = math.pi / 4, math.pi / 2
        assert EIGEN_NAMES[2] + COSET_NAMES[2] == ("theta", "alpha", "beta")
        assert EIGEN_RANGES[2] + COSET_RANGES[2] == (
            (0.0, quarter), (0.0, math.pi), (0.0, half))
        assert EIGEN_NAMES[3] + COSET_NAMES[3] == (
            "theta1", "theta2", "alpha", "beta", "gamma", "theta_big", "a", "b")
        assert EIGEN_RANGES[3] == ((0.0, quarter), (0.0, THETA2_MAX))
        assert COSET_RANGES[3] == ((0.0, math.pi), (0.0, half)) * 3
        assert abs(THETA2_MAX - math.acos(1 / math.sqrt(3))) <= 1e-15
