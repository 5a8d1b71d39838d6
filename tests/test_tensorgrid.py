import math

import numpy as np
import pytest

from bures import kernels, tensorgrid
from bures.functionals import FunctionalId
from bures.integration import integrate
from bures.tensorgrid import axis_rule, tensor_quadrature


class TestAxisRules:
    def test_gauss_legendre_polynomial_exactness(self):
        # m-point GL integrates degree 2m-1 exactly
        x, w = axis_rule(4, 0.0, 1.0)
        got = (w * x ** 7).sum()
        assert abs(got - 1 / 8) <= 1e-14

    def test_weights_sum_to_length(self):
        for pts in (2, 5, 8, 9):
            _, w = axis_rule(pts, -1.0, 3.5)
            assert abs(w.sum() - 4.5) <= 1e-12

    def test_each_rule_built_once(self, monkeypatch):
        # integrate runs the rule at P and P/2, each for the numerator and
        # the normalizer on both axes, (u, t2) after the first axis's map;
        # numpy's leggauss is a dense eigensolve
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda pts: calls.append(pts) or leggauss(pts))
        kernels._eigen_integral.cache_clear()
        tensorgrid._unit_rule.cache_clear()
        integrate(3, FunctionalId.parse("entropy"))
        assert sorted(calls) == [kernels.QUADRATURE_POINTS // 2, kernels.QUADRATURE_POINTS]

    def test_returned_rule_is_a_copy(self):
        x, w = axis_rule(6, 0.0, 1.0)
        x0, w0 = x.copy(), w.copy()
        x[:] = 0.0
        w *= 2.0
        x1, w1 = axis_rule(6, 0.0, 1.0)
        assert np.array_equal(x1, x0) and np.array_equal(w1, w0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tensor_quadrature(lambda p: p[:, 0], [0.0], [1.0], 1)
        with pytest.raises(ValueError):
            axis_rule(1, 0, 1)
        # the point count is an int: 6.0 is a TypeError, not the 6-point rule
        with pytest.raises(TypeError):
            tensor_quadrature(lambda p: p[:, 0], [0.0], [1.0], 6.0)
        with pytest.raises(TypeError):
            axis_rule(6.0, 0.0, 1.0)


class TestTensorQuadrature:
    def test_separable_product(self):
        points = 16
        got = tensor_quadrature(lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]) * p[:, 1] ** 2,
                                [0, 0], [math.pi, math.pi / 2], points)
        # int_0^pi sin = 2; int_0^(pi/2) x^2 cos x dx = pi^2/4 - 2
        assert abs(got - 2.0 * (math.pi ** 2 / 4 - 2)) <= 1e-12

    def test_three_dimensional_box_rejected(self):
        with pytest.raises(ValueError, match="dimension 1 or 2"):
            tensor_quadrature(lambda p: p[:, 0], [0, 0, 0], [1, 1, 1], 3)

    def test_block_sums_added_in_index_order(self):
        # 100 points per axis: 81 whole rows (8100 nodes) fill the first
        # block and 19 the second; each block is one pairwise sum
        points, lo, hi = 100, [0.0, -1.0], [1.0, 2.0]
        fn = lambda p: np.exp(-p[:, 0] * p[:, 1]) + p[:, 0]
        x0, w0 = axis_rule(100, lo[0], hi[0])
        x1, w1 = axis_rule(100, lo[1], hi[1])
        want = 0.0
        for rows in (slice(0, 81), slice(81, 100)):
            g0, g1 = np.meshgrid(x0[rows], x1, indexing="ij")
            pts = np.column_stack([g0.ravel(), g1.ravel()])
            want += float(np.add.reduce(np.outer(w0[rows], w1).ravel() * fn(pts)))
        assert tensor_quadrature(fn, lo, hi, points) == want

    def test_integrand_sees_bounded_blocks(self):
        sizes = []
        tensor_quadrature(lambda p: sizes.append(len(p)) or np.ones(len(p)),
                          [0.0, 0.0], [1.0, 1.0], 1000)
        assert sizes == [8000] * 125

    def test_matches_dense_reference(self):
        points = 5
        lo, hi = [0.0, -1.0], [1.0, 2.0]
        fn = lambda p: np.exp(-p[:, 0] * p[:, 1]) + p[:, 0]
        got = tensor_quadrature(fn, lo, hi, points)
        x0, w0 = axis_rule(5, lo[0], hi[0])
        x1, w1 = axis_rule(5, lo[1], hi[1])
        g0, g1 = np.meshgrid(x0, x1, indexing="ij")
        pts = np.column_stack([g0.ravel(), g1.ravel()])
        ref = (np.outer(w0, w1).ravel() * fn(pts)).sum()
        assert abs(got - ref) <= 1e-14

    def test_linear_in_the_integrand(self):
        # a weighted sum over the nodes: Q[a f + b g] = a Q[f] + b Q[g]
        a, b = 2.5, -0.75
        points, lo, hi = 32, [0.0, 0.0], [1.0, 2.0]
        f = lambda p: np.exp(-p[:, 0] * p[:, 1])
        g = lambda p: p[:, 0] ** 2 + np.sin(p[:, 1])
        lhs = tensor_quadrature(lambda p: a * f(p) + b * g(p), lo, hi, points)
        rhs = a * tensor_quadrature(f, lo, hi, points) + b * tensor_quadrature(g, lo, hi, points)
        assert abs(lhs - rhs) <= 1e-12

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            tensor_quadrature(lambda p: p[:, 0], [0, 0], [1], 3)
