import math

import numpy as np
import pytest

from bures.euler import NotADensityMatrixError, density_batch, validate_density
from bures.functionals import (FunctionalId, FunctionalKind, eigenvalue_moment,
                               from_eigenvalues, from_matrices, purity,
                               spectrum_batch, von_neumann_entropy)
from conftest import random_box_points


class TestEntropy:
    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2)) <= 1e-14
        assert abs(von_neumann_entropy(np.eye(3) / 3) - math.log(3)) <= 1e-14

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_direct_value(self):
        # -(3/4) ln(3/4) - (1/4) ln(1/4)
        got = von_neumann_entropy(np.diag([0.75, 0.25]))
        assert abs(got - 0.5623351446188083) <= 1e-12

    def test_invalid_input(self):
        with pytest.raises(NotADensityMatrixError):
            von_neumann_entropy(np.diag([0.9, 0.5]))

    def test_unitary_invariance(self, rng):
        """Spectral functionals are constant over the coset angles."""
        for n in (2, 3):
            eigen = random_box_points(n, 1, rng)[0, :n - 1]
            coset = random_box_points(n, 100, rng)[:, n - 1:]
            rhos = density_batch(n, np.tile(eigen, (100, 1)), coset)
            fid = FunctionalId(FunctionalKind.VON_NEUMANN_ENTROPY)
            vals = from_matrices(fid, rhos)
            assert vals.max() - vals.min() <= 1e-12


class TestPurity:
    def test_values(self):
        assert abs(purity(np.eye(3) / 3) - 1 / 3) <= 1e-15
        assert purity(np.diag([1.0, 0.0])) == 1.0
        assert abs(purity(np.diag([0.75, 0.25])) - 5 / 8) <= 1e-15

    def test_off_diagonal(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert abs(purity(rho) - 1.0) <= 1e-15


class TestMoments:
    def test_first_moment_is_trace(self, rng):
        row = random_box_points(3, 1, rng)[0]
        rho = density_batch(3, row[None, :2], row[None, 2:])[0]
        assert abs(eigenvalue_moment(rho, 1) - 1.0) <= 1e-13

    def test_second_moment_is_purity(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert abs(eigenvalue_moment(rho, 2) - purity(rho)) <= 1e-14

    def test_order_validation(self):
        with pytest.raises(ValueError):
            eigenvalue_moment(np.eye(2) / 2, 0)

    @pytest.mark.parametrize("order", [2.5, 2.0, np.float64(2.0)],
                             ids=["2.5", "2.0", "numpy-2.0"])
    def test_float_order_rejected(self, order):
        # sum lam^2.5 is no eigenvalue moment of integer order
        with pytest.raises(TypeError):
            eigenvalue_moment(np.eye(2) / 2, order)


class TestScalarForm:
    """The scalar functionals are ``from_matrices`` on a stack of one."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_is_the_batch_form(self, rng, n):
        pts = random_box_points(n, 200, rng)
        rhos = density_batch(n, pts[:, :n - 1], pts[:, n - 1:])
        cases = [("purity", purity), ("entropy", von_neumann_entropy)]
        cases += [(f"moment:{k}", lambda m, k=k: eigenvalue_moment(m, k)) for k in (1, 2, 3)]
        for text, scalar in cases:
            batch = from_matrices(FunctionalId.parse(text), rhos)
            if text == "entropy":
                batch = np.maximum(batch, 0.0)
            got = np.array([scalar(m) for m in rhos])
            assert got.tobytes() == batch.tobytes(), text

    def test_tolerance_is_not_a_parameter(self):
        rho = np.eye(2) / 2
        for fn in (validate_density, von_neumann_entropy, purity,
                   lambda m, **kw: eigenvalue_moment(m, 2, **kw)):
            with pytest.raises(TypeError):
                fn(rho, tol=1e-6)


class TestFunctionalId:
    def test_parse(self):
        assert FunctionalId.parse("entropy").kind is FunctionalKind.VON_NEUMANN_ENTROPY
        assert FunctionalId.parse("purity").label == "purity"
        fid = FunctionalId.parse("moment:3")
        assert fid.kind is FunctionalKind.EIGENVALUE_MOMENT and fid.order == 3

    def test_parse_errors(self):
        for bad in ("enthalpy", "moment:x", "moment:"):
            with pytest.raises(ValueError):
                FunctionalId.parse(bad)

    def test_order_constraints(self):
        with pytest.raises(ValueError):
            FunctionalId(FunctionalKind.EIGENVALUE_MOMENT, -1)
        with pytest.raises(ValueError):
            FunctionalId(FunctionalKind.PURITY, 2)

    @pytest.mark.parametrize("order", [2.5, 2.0, np.float64(2.0)],
                             ids=["2.5", "2.0", "numpy-2.0"])
    def test_float_order_rejected(self, order):
        with pytest.raises(TypeError):
            FunctionalId(FunctionalKind.EIGENVALUE_MOMENT, order)

    @pytest.mark.parametrize("order,label", [(True, "moment:1"), (np.int64(3), "moment:3")],
                             ids=["True", "numpy-3"])
    def test_integer_order_stored_as_int(self, order, label):
        fid = FunctionalId(FunctionalKind.EIGENVALUE_MOMENT, order)
        assert type(fid.order) is int
        assert fid.label == label
        assert fid == FunctionalId.parse(label)

    def test_moment_zero_is_constant_one(self):
        fid = FunctionalId.parse("moment:0")
        lam = np.array([[0.7, 0.3], [0.5, 0.5]])
        assert np.array_equal(from_eigenvalues(fid, lam), [1.0, 1.0])


class TestBatchEvaluators:
    def test_matrix_vs_eigenvalue_route(self, rng):
        pts = random_box_points(3, 50, rng)
        rhos = density_batch(3, pts[:, :2], pts[:, 2:])
        lam = np.linalg.eigvalsh(rhos)
        for fid in (FunctionalId.parse("entropy"), FunctionalId.parse("purity"),
                    FunctionalId.parse("moment:2"), FunctionalId.parse("moment:3")):
            a = from_matrices(fid, rhos)
            b = from_eigenvalues(fid, np.clip(lam, 0, None))
            assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_route_has_the_stacked_spectrum_bits(self, rng, n):
        # from_matrices keeps the n=2 spectrum as two columns; its values
        # are the bits of the stacked, clipped spectrum's
        pts = random_box_points(n, 5000, rng)
        pts[:50, 0] = 0.0                            # a zero eigenvalue, clipped
        rhos = density_batch(n, pts[:, :n - 1], pts[:, n - 1:])
        lam = np.clip(spectrum_batch(rhos), 0.0, None)
        for text in ("entropy", "moment:0", "moment:1", "moment:3"):
            fid = FunctionalId.parse(text)
            assert from_matrices(fid, rhos).tobytes() == from_eigenvalues(fid, lam).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_eigenvalue_terms_are_added_as_a_row_sum(self, rng, n):
        lam = rng.uniform(0.0, 1.0, (5000, n))
        lam[:50, 0] = 0.0
        xlogx = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
        for text, want in (("entropy", -xlogx.sum(axis=-1)), ("purity", (lam ** 2).sum(axis=-1)),
                           ("moment:3", (lam ** 3).sum(axis=-1))):
            got = from_eigenvalues(FunctionalId.parse(text), lam)
            assert got.tobytes() == want.tobytes(), text

    def test_zero_eigenvalue_entropy(self):
        fid = FunctionalId.parse("entropy")
        assert from_eigenvalues(fid, np.array([1.0, 0.0])) == 0.0


class TestSpectrum2State:
    """The n=2 spectrum read off the matrix entries, against ``eigvalsh``."""

    def test_maximally_mixed(self):
        # h = 0: both eigenvalues are the mean of the diagonal
        assert np.array_equal(spectrum_batch(np.eye(2)[None] / 2), [[0.5, 0.5]])

    def test_pure_states_stay_nonnegative(self, rng):
        pts = random_box_points(2, 10_000, rng)
        pts[:, 0] = 0.0
        lam = spectrum_batch(density_batch(2, pts[:, :1], pts[:, 1:]))
        assert lam[:, 0].min() >= -1e-15             # before the clip
        assert np.abs(lam[:, 1] - 1.0).max() <= 1e-15

    def test_diagonal(self):
        # rho_01 = 0: the eigenvalues are the diagonal, up to the rounding of m -/+ h
        rhos = np.array([np.diag(d) for d in ([0.7, 0.3], [0.3, 0.7], [1.0, 0.0],
                                              [0.0, 1.0])], dtype=complex)
        want = np.sort(np.real(np.diagonal(rhos, axis1=1, axis2=2)), axis=1)
        assert np.abs(spectrum_batch(rhos) - want).max() <= 1e-16

    def test_matches_eigvalsh_route(self, rng):
        count = 100_000
        pts = random_box_points(2, count, rng)
        edge = count // 100
        pts[:edge, 0] = rng.uniform(0.0, 1e-6, edge)                      # near pure
        pts[edge:2 * edge, 0] = math.pi / 4 - rng.uniform(0.0, 1e-6, edge)   # near I/2
        rhos = density_batch(2, pts[:, :1], pts[:, 1:])
        ref = np.clip(np.linalg.eigvalsh(rhos), 0.0, None)
        for text in ("entropy", "moment:1", "moment:2", "moment:3"):
            fid = FunctionalId.parse(text)
            gap = np.abs(from_matrices(fid, rhos) - from_eigenvalues(fid, ref)).max()
            assert gap <= 1e-13, text
