import math

import numpy as np
import pytest

from bures.tensorgrid import QuadratureSpec, axis_rule, tensor_quadrature


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

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(1)
        with pytest.raises(ValueError):
            axis_rule(1, 0, 1)


class TestTensorQuadrature:
    def test_separable_product(self):
        spec = QuadratureSpec(16)
        got = tensor_quadrature(
            lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]) * p[:, 2] ** 2,
            [0, 0, 0], [math.pi, math.pi / 2, 1.0], spec)
        assert abs(got - 2.0 * 1.0 * (1 / 3)) <= 1e-12

    def test_matches_dense_reference(self):
        spec = QuadratureSpec(5)
        lo, hi = [0.0, -1.0], [1.0, 2.0]
        fn = lambda p: np.exp(-p[:, 0] * p[:, 1]) + p[:, 0]
        got = tensor_quadrature(fn, lo, hi, spec)
        x0, w0 = axis_rule(5, lo[0], hi[0])
        x1, w1 = axis_rule(5, lo[1], hi[1])
        g0, g1 = np.meshgrid(x0, x1, indexing="ij")
        pts = np.column_stack([g0.ravel(), g1.ravel()])
        ref = (np.outer(w0, w1).ravel() * fn(pts)).sum()
        assert abs(got - ref) <= 1e-14

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            tensor_quadrature(lambda p: p[:, 0], [0, 0], [1], QuadratureSpec(3))
